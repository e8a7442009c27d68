(* Log-bucketed histogram in the HdrHistogram family, sized for sim-time
   microseconds and byte counts. Values 0..3 get exact buckets; every
   power-of-two octave above that is split into 4 linear sub-buckets, so the
   relative quantile error is bounded by 25% while the whole structure is a
   fixed 256-slot int array. *)

let sub_bits = 2 (* 4 sub-buckets per octave *)
let sub_count = 1 lsl sub_bits
let bucket_count = 256

type t = {
  buckets : int array;
  mutable count : int;
  mutable sum : int;
  mutable min : int;  (** meaningful only when [count > 0] *)
  mutable max : int;
}

let create () =
  { buckets = Array.make bucket_count 0; count = 0; sum = 0; min = 0; max = 0 }

(* Index of the highest set bit of [v > 0]. *)
let msb v =
  let rec go k v = if v = 1 then k else go (k + 1) (v lsr 1) in
  go 0 v

let bucket_of v =
  let v = if v < 0 then 0 else v in
  if v < sub_count then v
  else begin
    let k = msb v in
    let sub = (v lsr (k - sub_bits)) land (sub_count - 1) in
    let idx = sub_count + (((k - sub_bits) * sub_count) + sub) in
    if idx >= bucket_count then bucket_count - 1 else idx
  end

let lower_bound idx =
  if idx < sub_count then idx
  else begin
    let k = sub_bits + ((idx - sub_count) / sub_count) in
    let sub = (idx - sub_count) mod sub_count in
    (1 lsl k) + (sub * (1 lsl (k - sub_bits)))
  end

(* Largest value that still lands in bucket [idx] (inclusive). *)
let upper_bound idx =
  if idx >= bucket_count - 1 then max_int else lower_bound (idx + 1) - 1

let add t v =
  let v = if v < 0 then 0 else v in
  let idx = bucket_of v in
  t.buckets.(idx) <- t.buckets.(idx) + 1;
  t.sum <- t.sum + v;
  if t.count = 0 then begin
    t.min <- v;
    t.max <- v
  end
  else begin
    if v < t.min then t.min <- v;
    if v > t.max then t.max <- v
  end;
  t.count <- t.count + 1

let count t = t.count
let sum t = t.sum
let min_value t = if t.count = 0 then 0 else t.min
let max_value t = if t.count = 0 then 0 else t.max
let mean t = if t.count = 0 then 0. else float_of_int t.sum /. float_of_int t.count

(* Value at percentile [p] (0 < p <= 100): walk to the bucket holding the
   rank-th recorded value and report its upper bound, clamped to the exact
   observed maximum so p100 is precise. *)
let percentile t p =
  if t.count = 0 then 0
  else begin
    let rank =
      let r = int_of_float (ceil (p /. 100. *. float_of_int t.count)) in
      if r < 1 then 1 else if r > t.count then t.count else r
    in
    let rec walk idx cum =
      if idx >= bucket_count then t.max
      else begin
        let cum = cum + t.buckets.(idx) in
        if cum >= rank then min (upper_bound idx) t.max else walk (idx + 1) cum
      end
    in
    walk 0 0
  end

let p50 t = percentile t 50.
let p95 t = percentile t 95.
let p99 t = percentile t 99.

type summary = {
  s_count : int;
  s_sum : int;
  s_min : int;
  s_max : int;
  s_p50 : int;
  s_p95 : int;
  s_p99 : int;
}

let summary t =
  { s_count = t.count; s_sum = t.sum; s_min = min_value t; s_max = max_value t;
    s_p50 = p50 t; s_p95 = p95 t; s_p99 = p99 t }
