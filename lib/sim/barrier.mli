(** Conservative virtual-time barrier coordinator over shard schedulers —
    the synchronization kernel of domain-parallel world execution
    (ROADMAP 2).

    Each shard is a complete, self-contained {!Sched.t} (lint R8 flags any
    module-level mutable binding in [lib/], so shards share no ambient
    mutable state); shards
    couple only through typed {!Chan}s owned by this coordinator. Time
    advances in {e epochs}: at each barrier the coordinator flushes every
    cross-shard message posted during the previous epoch into the
    destination heaps, computes [tmin] (the global earliest pending
    event), and runs every shard to [tmin + quantum] — on parallel
    domains when [workers > 1].

    {b Determinism.} Cross-shard sends only append to the sending shard's
    private outbox; the coordinator alone drains outboxes, sorting all
    pending messages by (arrival time, source shard, per-source send
    sequence) — a total order derived from virtual time and program
    order, never from wall-clock interleaving. Because every channel's
    latency is at least the quantum (enforced at creation), a message
    sent at time [tau >= tmin] arrives at [tau + latency >= tmin +
    quantum], i.e. never inside the epoch that produced it. The epoch
    structure is therefore a pure function of the program and its seeds,
    and a run is bit-identical for {e any} worker count. *)

type t

val create : quantum:int -> Sched.t array -> t
(** [create ~quantum scheds] couples the given shard schedulers. The
    quantum (virtual µs) is the conservative lookahead: every channel
    must have latency ≥ quantum. Raises [Invalid_argument] on a
    non-positive quantum or an empty shard array. *)

val post : t -> src:int -> dst:int -> arrival:int -> (unit -> unit) -> unit
(** Low-level cross-shard send, called from inside shard [src]'s running
    epoch: [deliver] runs on shard [dst] at absolute virtual time
    [arrival]. Raises [Invalid_argument] when [arrival] is less than the
    sender's clock plus the quantum (the lookahead invariant) or a shard
    index is out of range. Most code should use {!Chan} instead. *)

val run : ?until:int -> ?workers:int -> t -> unit
(** Run the coupled world to quiescence, or to virtual time [until]
    (every shard clock then advances to exactly [until], like
    {!Sched.run}). [workers] (default 1) is the number of OCaml domains
    used per epoch: shard [s] runs on worker [s mod workers], workers
    beyond the first are spawned per epoch and joined at the barrier.
    Output is bit-identical for every [workers] value. *)

val epochs : t -> int
(** Barrier rounds completed so far. *)

val messages_exchanged : t -> int
(** Cross-shard messages flushed through barriers so far. *)

(** Typed, unidirectional cross-shard channel: the only sanctioned way
    for shards to communicate. Latency must be ≥ the barrier quantum. *)
module Chan : sig
  type barrier := t

  type 'a t

  val create : barrier -> src:int -> dst:int -> latency:int -> 'a t
  (** Raises [Invalid_argument] when [latency < quantum] or a shard index
      is out of range. *)

  val set_handler : 'a t -> ('a -> unit) -> unit
  (** Install the destination-side delivery handler; it runs on the
      destination shard at each message's arrival time. Messages arriving
      with no handler installed are counted in {!dropped}. *)

  val send : 'a t -> 'a -> unit
  (** Send from inside the source shard's epoch; arrival is the source
      clock plus the channel latency. *)
end
