(** A simulated world: scheduler + machines + networks + bookkeeping —
    the "hypothetical machine configuration" of the paper's figures.

    Experiments build one, spawn NTCS modules on its machines and run
    virtual time forward. Everything is deterministic under the seed. *)

type t

(** Declarative world construction: one record naming every
    instrumentation feature, applied at creation in one fixed order
    instead of per-feature setters callers would have to sequence by
    hand. All defaults are off, so
    [create ()] is the plain deterministic seed-42 world and default-mode
    traces stay byte-identical with earlier PRs. *)
module Config : sig
  (** Schedule-choice policy. [Choose] is the exploration hook (same
      contract as [Sched.set_chooser]); every consulted choice is recorded
      in the world's {!choice_log} as [(index, arity)]. [Replay] feeds a
      previously recorded log back in — exhausted or out-of-range entries
      fall back to owner 0, the deterministic default. *)
  type chooser =
    | Default
    | Choose of (time:int -> owners:int array -> int)
    | Replay of int list

  (** Naming-plane shape (DESIGN.md §15), consumed by [Cluster.build]:
      [shards > 1] stands up that many shard name servers (round-robin
      over the declared NS machines) with a pinned shard map;
      [cache_capacity] sizes every ComMod's NSP lookup caches. Plain data
      — the sim itself never interprets it. *)
  type naming = {
    shards : int;  (** 1 = the classic single/replicated name server *)
    cache_capacity : int;  (** per-ComMod NSP lookup-cache entries *)
  }

  val default_naming : naming
  (** [{shards = 1; cache_capacity = 512}] *)

  type t = {
    seed : int;
    domains : int;  (** shard count for {!Par} worlds; 1 = sequential *)
    faults : Faults.spec option;
        (** declarative fault plane, armed at creation: scheduled events
            registered on the scheduler, frame rules consulted by
            {!transmit}, every injection a [fault.*] trace event *)
    chooser : chooser;
    naming : naming;  (** naming-plane shape (see {!type-naming}) *)
  }

  val default : t
  (** [{seed = 42; domains = 1; faults = None; chooser = Default;
      naming = default_naming}] *)

  val shard : t -> shard:int -> t
  (** Per-shard copy: decorrelated seed (prime stride), [domains = 1].
      Shard 0 keeps the base seed, so a 1-domain parallel world is the
      sequential world. *)
end

val create : ?config:Config.t -> unit -> t
(** The single construction entrypoint. Applies the config in one fixed
    order: chooser, fault plane. *)

(** {1 Accessors} *)

val sched : t -> Sched.t

val config : t -> Config.t

val choice_log : t -> (int * int) list
(** Every chooser consultation so far, oldest first, as [(choice index,
    arity)] pairs. Empty under [Config.Default]. [Config.Replay (List.map
    fst (choice_log w))] reproduces this world's schedule. *)

val set_label : t -> string -> unit
(** Tag this world's scheduler with a shard label (see
    {!Sched.set_label}). *)

val label : t -> string

val trace : t -> Trace.t
(** {!obs}, read through {!Trace}. *)

val rng : t -> Ntcs_util.Rng.t
val now : t -> int

val obs : t -> Ntcs_obs.Registry.t
(** The world's observability registry: counters, gauges, histograms,
    the one event log and the circuit-id allocator. *)

val note : t -> cat:string -> actor:string -> Ntcs_obs.Span.detail -> unit
(** Trace an event at the current virtual time (see {!Trace}). *)

val record : t -> cat:string -> actor:string -> string -> unit
(** [note] with a [Text] detail. *)

val span :
  t ->
  ctx:Ntcs_obs.Span.ctx ->
  phase:Ntcs_obs.Span.phase ->
  name:string ->
  actor:string ->
  Ntcs_obs.Span.detail ->
  unit
(** Record a span event stamped with the current virtual time. *)

(** {1 Topology} *)

val add_machine :
  t -> name:string -> Machine.mtype -> ?drift_ppm:float -> ?offset_us:int -> unit -> Machine.t

val add_net : t -> name:string -> Net.kind -> ?latency:int * int * int -> unit -> Net.t
val net : t -> Net.id -> Net.t
val attach : t -> Machine.t -> Net.t -> unit
val nets_of_machine : t -> Machine.id -> Net.id list
val common_nets : t -> Machine.id -> Machine.id -> Net.id list
val all_machines : t -> Machine.t list

(** {1 Processes} *)

val spawn : t -> machine:Machine.t -> name:string -> (unit -> unit) -> Sched.pid
(** Spawn a process on a machine; crashes are recorded in the trace
    (category ["sim.proc_crash"]). *)

val crash_machine : t -> Machine.t -> unit
(** Mark the machine down and kill every process on it. *)

(** {1 Fault plane} *)

val faults : t -> Faults.t option
(** The armed fault plane, when [Config.faults] was given. *)

(** {1 Shared cells}

    The world's own mutable state is declared as {!Sched.cell}s for the
    domain-safety monitor (see [Ntcs_check.Check_race]): the topology
    tables ([world.topology], exclusive), the pid→machine map
    ([world.procs], waived) and the fault plane's partition set + rng
    ([world.faults], waived). Enumerate them with [Sched.cells (sched t)]. *)

(** {1 Transmission} *)

val transmit :
  ?fifo:int ref ->
  ?droppable:bool ->
  t ->
  net:Net.t ->
  src:Machine.t ->
  dst:Machine.t ->
  size:int ->
  (unit -> unit) ->
  bool
(** Schedule delivery of [size] bytes; [false] when the attempt cannot even
    leave (partition, crash, detachment). The callback re-checks destination
    liveness at delivery time, so a machine crashing mid-flight swallows the
    bytes. [fifo] is a per-flow high-water mark forcing monotone arrivals
    (e.g. one direction of a TCP connection), so jitter never reorders a
    flow.

    [droppable] (default [false]) marks a transmission carrying one whole,
    self-contained ND frame; only those may be dropped, duplicated or
    reordered by an installed fault plane. A dropped frame still returns
    [true] — the sender saw it leave; it died on the wire. *)

val run : ?until:int -> t -> unit

(** {1 Domain-parallel worlds}

    A parallel world is [Config.domains] completely isolated sequential
    worlds — one per shard, each with its own scheduler, registry (event
    log included) and rng (lint R8 flags any module-level mutable binding
    in [lib/])
    — coupled only through the {!Barrier} coordinator's
    typed channels. Shard [i] runs under [Config.shard config ~shard:i]
    and carries the label ["s<i>"]. Runs are bit-identical for any
    [workers] value; see {!Barrier} for the determinism argument. *)
module Par : sig
  type world := t

  type t

  val create :
    ?quantum:int ->
    ?shard_config:(int -> Config.t) ->
    Config.t ->
    t
  (** Build [max 1 config.domains] shard worlds coupled by a barrier with
      the given conservative quantum (virtual µs, default 1000 — every
      cross-shard channel must have latency ≥ quantum).
      With more than one shard, shard [i]'s circuit-id allocator starts at
      [i * 1_000_000] so merged span logs stay world-unique.
      [shard_config] overrides the derived per-shard config (shard [i]
      runs under [shard_config i] with [domains] forced back to 1) — the
      replay path uses it to hand shard [i] its own recorded choice log
      via [Config.Replay]. *)

  val shards : t -> world array
  val shard : t -> int -> world
  val shard_count : t -> int
  val barrier : t -> Barrier.t

  val chan : t -> src:int -> dst:int -> latency:int -> 'a Barrier.Chan.t
  (** A typed cross-shard channel (see {!Barrier.Chan}). *)

  val run : ?until:int -> ?workers:int -> t -> unit
  (** Run the coupled world on [workers] domains (default 1); output is
      bit-identical for every worker count. *)

  val epochs : t -> int
  val messages_exchanged : t -> int

  val merged_events : t -> (int * Ntcs_obs.Span.event) list
  (** All shards' event logs, each event tagged with its shard index,
      stable-sorted on virtual time (within one instant shard order, then
      per-shard program order — the total order the barrier flush uses).
      Circuit ids are world-unique across shards. *)

  val blocked_processes : t -> string list
  (** Every shard's {!Sched.blocked_processes} (already label-prefixed),
      merged and sorted — the shard-stable teardown report. *)

  val choice_logs : t -> (int * int) list array
  (** Per-shard choice logs (see {!choice_log}); shard [i]'s log replays
      via [Config.Replay] on shard [i] of an equal-topology world. *)
end
