(** Fixed-capacity LRU cache. *)

type ('k, 'v) t

val create : int -> ('k, 'v) t
(** [create capacity] — raises [Invalid_argument] if [capacity <= 0]. *)

val find : ('k, 'v) t -> 'k -> 'v option
(** Lookup; refreshes recency. *)

val set : ('k, 'v) t -> 'k -> 'v -> unit
(** Insert or update, evicting the least-recently-used entry when full. *)

val remove : ('k, 'v) t -> 'k -> unit

val invalidate_if : ('k, 'v) t -> ('k -> 'v -> bool) -> int
(** Evict every entry the predicate selects and return how many were
    dropped. Survivors keep their relative recency order. The predicate is consulted in recency order
    (most recently used first) and must not mutate the cache. *)

val length : ('k, 'v) t -> int
val clear : ('k, 'v) t -> unit

val iter : ('k, 'v) t -> ('k -> 'v -> unit) -> unit
(** Visits entries in recency order, most recently used first — a
    guaranteed, deterministic order (never the backing table's). [f] must
    not mutate the cache during iteration. *)
