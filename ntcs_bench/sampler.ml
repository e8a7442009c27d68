(* The one host-time sampler and summariser behind every ntcs_bench timing.

   Clock: the Linux monotonic clock in ns, read through the stub the
   bechamel.monotonic_clock library links in. The external is declared
   here with an unboxed result so a read allocates nothing — the traced
   run calls it once per scheduler event, and an allocating clock would
   show up in the very minor-word counts it is meant to explain. *)

external clock_ns : unit -> (int64[@unboxed])
  = "clock_linux_get_time_bytecode" "clock_linux_get_time_native"
[@@noalloc]

let now_ns () = Int64.to_int (clock_ns ())

(* Per-op host ns and virtual µs for a whole run, and one phase per
   repetition: the ops it timed and its wall time. *)
type phase = { first : int; ops : int; wall_ns : int }

type t = {
  mutable n : int;
  mutable host_ns : int array;
  mutable virt_us : int array;
  mutable phases : phase list;  (** newest first *)
  mutable open_at : int;
  mutable open_first : int;
}

let create () = { n = 0; host_ns = [||]; virt_us = [||]; phases = []; open_at = 0; open_first = 0 }

(* Grow outside the timed phase only: recording must not allocate while
   ops are being timed. *)
let reserve s extra =
  let need = s.n + extra in
  if need > Array.length s.host_ns then begin
    let grow a =
      let b = Array.make (max need (2 * Array.length a)) 0 in
      Array.blit a 0 b 0 s.n;
      b
    in
    s.host_ns <- grow s.host_ns;
    s.virt_us <- grow s.virt_us
  end

let record s ~t0 ~t1 ~virt_us =
  let i = s.n in
  s.host_ns.(i) <- t1 - t0;
  s.virt_us.(i) <- virt_us;
  s.n <- i + 1

let begin_phase s ~at =
  s.open_at <- at;
  s.open_first <- s.n

let end_phase s ~at =
  s.phases <- { first = s.open_first; ops = s.n - s.open_first; wall_ns = at - s.open_at } :: s.phases

(* One phase timed by several samplers at once (one per shard domain),
   appended to the run's sampler. *)
let absorb dst srcs ~wall_ns =
  reserve dst (List.fold_left (fun acc s -> acc + s.n) 0 srcs);
  let first = dst.n in
  List.iter
    (fun s ->
      Array.blit s.host_ns 0 dst.host_ns dst.n s.n;
      Array.blit s.virt_us 0 dst.virt_us dst.n s.n;
      dst.n <- dst.n + s.n)
    srcs;
  dst.phases <- { first; ops = dst.n - first; wall_ns } :: dst.phases

(* --- summaries --- *)

type summary = { samples : int; median : float; p99 : float }

(* Linear interpolation between closest ranks over a sorted array. *)
let quantile sorted p =
  let n = Array.length sorted in
  if n = 0 then nan
  else
    let h = p *. float_of_int (n - 1) in
    let lo = truncate h in
    let hi = min (n - 1) (lo + 1) in
    sorted.(lo) +. ((h -. float_of_int lo) *. (sorted.(hi) -. sorted.(lo)))

let summarise xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  { samples = Array.length a; median = quantile a 0.5; p99 = quantile a 0.99 }

let median xs = (summarise xs).median

let virt_us s = Array.init s.n (fun i -> float_of_int s.virt_us.(i))

(* Host-time statistics over the fastest tenth of the repetitions.

   Every repetition of a run performs the same simulated work, so the
   wall time of its set-up, or of its timed phase, differs from another's
   only through the host. The host this benchmark was calibrated on is a
   shared virtual machine whose speed swings by up to 2x for seconds to
   minutes at a time, invisibly to the guest (process CPU time inflates
   with wall time), and such swings only ever slow a repetition down. So
   each host-time statistic is taken over the fastest tenth of the
   repetitions: a code change moves it, a host slowdown covering up to
   nine tenths of the run does not. *)
let fastest_tenth ~time xs =
  let ranked = List.sort (fun a b -> Float.compare (time a) (time b)) xs in
  let n = List.length ranked in
  List.filteri (fun i _ -> 10 * i < n) ranked

type host = { ops_per_s : float; op : summary; reps : int; kept : int }

(* The rate is the median over the kept repetitions; the latency
   percentiles are over all of their ops. *)
let host s =
  let rate p = float_of_int p.ops *. 1e9 /. float_of_int (max 1 p.wall_ns) in
  let reps = List.length s.phases in
  let kept = fastest_tenth ~time:(fun p -> -.rate p) s.phases in
  let op =
    summarise
      (Array.concat
         (List.map
            (fun p -> Array.init p.ops (fun i -> float_of_int s.host_ns.(p.first + i) /. 1e3))
            kept))
  in
  { ops_per_s = median (Array.of_list (List.map rate kept)); op; reps; kept = List.length kept }

(* Python's [statistics.quantiles data n=4] (the default "exclusive"
   method), so `compare` reports the quartiles the acceptance rule uses. *)
let quartiles xs =
  let d = Array.copy xs in
  Array.sort Float.compare d;
  let ld = Array.length d in
  if ld = 0 then (nan, nan, nan)
  else if ld = 1 then (d.(0), d.(0), d.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = i * m / 4 in
      let j = if j < 1 then 1 else if j > ld - 1 then ld - 1 else j in
      let delta = (i * m) - (j * 4) in
      ((d.(j - 1) *. float_of_int (4 - delta)) +. (d.(j) *. float_of_int delta)) /. 4.
    in
    (q 1, q 2, q 3)
