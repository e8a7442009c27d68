(* Library root: re-export every util module and lift the [Tbl] helpers to
   the top level — protocol code calls [Ntcs_util.sorted_bindings] directly
   when it needs a deterministic walk over a hash table. *)

module Bqueue = Bqueue
module Heap = Heap
module Lru = Lru
module Pool = Pool
module Rng = Rng
module Stats = Stats
module Tbl = Tbl

let sorted_bindings = Tbl.sorted_bindings
