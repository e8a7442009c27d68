(** Versioned lookup cache for the naming plane (DESIGN.md §15).

    Entries carry the answering shard, that shard's invalidation
    generation and, optionally, the name they answer for. Per shard the
    cache keeps the newest generation it has {!observe}d ([seen]) and a
    hard [floor]. A versioned answer names what its shard's last K
    generations changed: when those names reach back to [seen], only the
    entries for them are retired; otherwise (first contact, more than K
    generations missed) the floor rises to the new generation and retires
    the whole shard. A retired entry is reported as {!Stale} — the caller
    must treat it as a miss and re-look-up, never deliver on it. Recency
    order, eviction and iteration are deterministic (built on
    [Ntcs_util.Lru]). The cache keeps no counts: its caller counts each
    outcome in the world's registry ([nsp.cache_{hits,stale,misses}]). *)

type ('k, 'v) t

val create : capacity:int -> nshards:int -> ('k, 'v) t
(** Both arguments are clamped to at least 1. *)

val nshards : _ t -> int

type 'v outcome =
  | Hit of 'v * int * int
      (** [(value, shard, gen)] — fresh: within TTL, at/above its shard's
          floor, and stored after every observed change of its name *)
  | Stale of 'v * int * int
      (** its shard retired this entry — resolve as a miss; the value is
          exposed only so callers can log/repair it *)
  | Miss

val find : ('k, 'v) t -> now:int -> 'k -> 'v outcome
(** TTL-expired entries are ordinary misses; retired entries are
    {!Stale}. Either way the dead entry is evicted. *)

val store :
  ('k, 'v) t -> ?name:string -> 'k -> value:'v -> shard:int -> gen:int -> expiry:int -> unit
(** Cache an authoritative answer about [name]. [gen] is clamped up to the
    shard's [seen] generation: a fresh answer postdates every change
    already observed, even when the server's counter restarted. An entry
    stored without a [name] is retired by any later change in its
    shard. *)

val observe : ('k, 'v) t -> shard:int -> gen:int -> changed:string list -> bool
(** Fold a versioned answer's stamp into the shard's state. [changed] is
    the names generations [gen], [gen - 1], ... changed, newest first.
    No-op unless [gen] is above [seen]. If [changed] names every
    generation since [seen], the entries for those names are retired;
    otherwise, or when more than [capacity] changed names are pending,
    the floor rises to [gen] and every older entry of the shard is
    retired. Invalidation is lazy: retired entries report {!Stale} on
    their next [find] (and are evicted then), sending the caller back for
    a fresh lookup. Returns whether the floor rose. *)

val floor : ('k, 'v) t -> shard:int -> int
(** Current generation floor of a shard (0 until first observation). *)

val seen : ('k, 'v) t -> shard:int -> int
(** Newest generation observed from a shard (0 until first observation). *)

val invalidate_if : ('k, 'v) t -> ('k -> 'v -> bool) -> int
(** Predicate eviction over (key, value); returns the eviction count. *)

val remove : ('k, 'v) t -> 'k -> unit

val iter : ('k, 'v) t -> ('k -> 'v -> shard:int -> gen:int -> unit) -> unit
(** Recency order (most recently used first), like [Lru.iter]. *)

val clear : ('k, 'v) t -> unit
val length : ('k, 'v) t -> int
