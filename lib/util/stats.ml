(* Sample accumulator used by the experiment harness to summarize latency
   series: count, mean and percentiles. *)

type t = { mutable samples : float list; mutable n : int }

let create () = { samples = []; n = 0 }

let add t x =
  t.samples <- x :: t.samples;
  t.n <- t.n + 1

let count t = t.n

let sorted t = List.sort compare t.samples

let mean t =
  if t.n = 0 then 0.
  else List.fold_left ( +. ) 0. t.samples /. float_of_int t.n

let percentile t p =
  match sorted t with
  | [] -> 0.
  | xs ->
    let arr = Array.of_list xs in
    let n = Array.length arr in
    let rank = p /. 100. *. float_of_int (n - 1) in
    let lo = int_of_float (floor rank) in
    let hi = int_of_float (ceil rank) in
    if lo = hi then arr.(lo)
    else begin
      let frac = rank -. float_of_int lo in
      (arr.(lo) *. (1. -. frac)) +. (arr.(hi) *. frac)
    end

let median t = percentile t 50.
