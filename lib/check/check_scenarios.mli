(** Bounded scenarios for schedule exploration: each builds a small
    cluster, drives one protocol exchange, and reports R3 trace invariants,
    lifecycle-automaton conformance, process crashes and the exchange's own
    outcome as that schedule's violations. [ntcs_check] explores
    {!exhaustive} and {!soaks} once each, with the race checker of
    {!Mode} armed. *)

(** The instrumentation mode is the scheduler's canonical
    {!Ntcs_sim.Sched.Mode} record, threaded explicitly through every build
    — a module-level flag would itself be the ambient shared state rule R8
    forbids.

    [races]: the happens-before checker ({!Check_race}), armed by this
    library on any world whose config asks for it; any [race.conflict] it
    reports fails the schedule. Off in [Mode.default] (the replication and
    benchmark runs), keeping those traces byte-identical with the seed. *)
module Mode = Ntcs_sim.Sched.Mode

type scenario = {
  sc_name : string;
  sc_from : int;
  sc_until : int;
      (** ties inside [[sc_from, sc_until)] are branched on; the boot
          before and the steady-state maintenance after run in default
          order *)
  sc_make : Mode.t -> Ntcs_sim.World.t * (unit -> string list);
      (** build a fresh world for this mode and return it with the body
          that drives the exchange and reports that run's violations *)
}

val config_of_mode :
  ?faults:Ntcs_sim.Faults.spec ->
  ?naming:Ntcs_sim.World.Config.naming ->
  Mode.t ->
  Ntcs_sim.World.Config.t
(** The world configuration a mode asks for (fault plane armed
    declaratively at creation; [naming] shapes the naming plane, default
    unsharded). *)

val first_send : scenario
(** §6.1 first send across a prime gateway (chained open + splice). *)

val exhaustive : scenario list
(** [first_send] and [break_ns]: exploration must drain the whole tree. *)

(** {1 Fault-plane and naming soak scenarios}

    The same contract per schedule — zero violations — but the world runs
    under an armed {!Ntcs_sim.Faults} plane (or the sharded naming plane
    of DESIGN.md §15, checked for cache coherence by {!Check_naming}), so
    what is being explored is the recovery machinery itself. Their
    schedule trees are effectively unbounded (retry timers breed ties
    forever); run them with a budget and accept truncation, requiring a
    minimum number of failure-free schedules instead of exhaustiveness. *)

val fault_crash_restart : scenario
(** §3.5: crash and restart the machine hosting a located module; a new
    generation re-registers and the app's stale address must heal through
    the address-fault oracle. *)

val naming_stale_splice : scenario
(** §3.5 relocation racing a cached lookup: crash/restart of the service's
    machine plus re-registration; the owner's generation bump must retire
    cached copies, the chaser's stale address heals by splice repair, and
    no stale hit ever resolves as fresh. *)

val naming_shard_loss : scenario
(** The machine owning the probe name's shard crashes for good; resolution
    must survive through replica failover and unversioned backup answers. *)

val soaks : scenario list
(** Every soak scenario, each once: partition-heal, crash-restart, the
    §6.3 NS partition with the guard on and off, then naming-stale-splice,
    naming-shard-loss and naming-shard-route (all owners alive, a lookup
    relayed by a non-owner shard). *)

val explore : ?max_schedules:int -> ?mode:Mode.t -> scenario -> Ntcs_sim.Explore.outcome
(** Explore the scenario's schedule tree (see {!Ntcs_sim.Explore.run});
    [mode] defaults to [Mode.default] — everything disarmed. *)
