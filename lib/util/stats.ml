(* Sample accumulator used by the experiment harness to summarize latency
   series: count, mean, stddev, min/max and percentiles. *)

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

let stddev t =
  if t.n < 2 then 0.
  else begin
    let m = mean t in
    let ss = List.fold_left (fun acc x -> acc +. ((x -. m) ** 2.)) 0. t.samples in
    sqrt (ss /. float_of_int (t.n - 1))
  end

let min_ t =
  if t.n = 0 then 0.
  else List.fold_left (fun acc x -> if x < acc then x else acc) infinity t.samples

let max_ t =
  if t.n = 0 then 0.
  else List.fold_left (fun acc x -> if x > acc then x else acc) neg_infinity t.samples

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
