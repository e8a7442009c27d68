(* Deterministic splitmix64 generator. Every stochastic component of the
   simulator draws from one of these, seeded explicitly, so that whole
   experiment runs are reproducible bit-for-bit. *)

type t = { mutable state : int64 }

let create seed = { state = Int64.of_int seed }

let golden_gamma = 0x9E3779B97F4A7C15L

let next_int64 t =
  t.state <- Int64.add t.state golden_gamma;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* Non-negative 62-bit int. *)
let next_int t = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  next_int t mod bound

let float t bound =
  let u = Int64.to_float (Int64.shift_right_logical (next_int64 t) 11) in
  bound *. u /. 9007199254740992.0 (* 2^53 *)

(* Range [lo, hi) *)
let between t lo hi =
  if hi <= lo then lo else lo + int t (hi - lo)

let split t = create (Int64.to_int (next_int64 t))

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let pick t arr =
  if Array.length arr = 0 then invalid_arg "Rng.pick: empty array";
  arr.(int t (Array.length arr))
