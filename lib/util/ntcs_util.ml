(* Library root: re-export every util module, and give protocol code its
   one deterministic walk over a hash table.

   [Hashtbl]'s own iteration order is a function of hashing internals and
   insertion history; protocol code must never let that order reach the
   wire, a trace, or a peer (DESIGN §6 — the whole simulation is
   replayable only if every observable order is). The repo linter
   (lib/lint, rule R2) forbids raw [Hashtbl.iter]/[Hashtbl.fold] in
   protocol paths and points offenders here. *)

module Bqueue = Bqueue
module Heap = Heap
module Lru = Lru
module Pool = Pool
module Rng = Rng
module Stats = Stats

(* Assumes replace-style tables (at most one binding per key), which is how
   every table in this repo is used; shadowed [add] bindings would all
   surface. *)
let sorted_bindings ?(compare = Stdlib.compare) tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
