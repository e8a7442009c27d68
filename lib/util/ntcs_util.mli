(** Library root: re-exports every util module, and gives protocol code
    its one deterministic walk over a hash table,
    [Ntcs_util.sorted_bindings].

    Nothing here is module-level mutable state: every container is
    created by a caller and owned by whoever holds it (R8 [domsafe]
    keeps it that way). *)

module Bqueue = Bqueue
module Heap = Heap
module Lru = Lru
module Pool = Pool
module Rng = Rng
module Stats = Stats

val sorted_bindings :
  ?compare:('a -> 'a -> int) -> ('a, 'b) Hashtbl.t -> ('a * 'b) list
(** All bindings sorted by key ([compare] defaults to the polymorphic
    compare): a canonical order regardless of hash-table internals. Safe
    to mutate the table while consuming the result: the list is a
    snapshot. Assumes replace-style tables (one binding per key). *)
