(** Library root: re-exports every util module and lifts the [Tbl]
    helpers to the top level — protocol code calls
    [Ntcs_util.sorted_bindings] directly when it needs a deterministic
    walk over a hash table.

    Nothing here is module-level mutable state: every container is
    created by a caller and owned by whoever holds it (R8 [domsafe]
    keeps it that way). *)

module Bqueue = Bqueue
module Heap = Heap
module Lru = Lru
module Pool = Pool
module Rng = Rng
module Stats = Stats
module Tbl = Tbl

val sorted_bindings :
  ?compare:('a -> 'a -> int) -> ('a, 'b) Hashtbl.t -> ('a * 'b) list
(** Bindings sorted by key ({!Tbl.sorted_bindings}): deterministic
    iteration order regardless of hash-table internals. *)
