(** Happens-before race checker — the dynamic half of the domain-safety
    pass (static half: {!Lint_domsafe}, no module-level mutable state).

    Arms a {!Ntcs_sim.Sched.monitor} on a world and tracks a vector
    clock per event owner: pushing an event snapshots the pusher's
    clock into it (a send), executing one joins that snapshot into the
    owner's clock (a receive). Two accesses to the same registered
    shared cell at the same virtual instant, from different owners,
    with at least one write and neither ordered by happens-before, are
    would-be races under the planned domain-parallel world execution
    (ROADMAP item 2), where distinct virtual times are separated by
    barriers and only same-instant work runs concurrently.

    Owner 0 is the coordinator (setup, fault schedule, test driver); a
    coordinator event joins all clocks and raises a global floor, so
    deliberately-sequential harness writes are never reported.

    Conflicts on [Exclusive] cells are races: each distinct
    (cell, owners, kinds) pattern is reported once as a [race.conflict]
    trace event plus a [race.conflicts] counter. Conflicts on [Waived]
    cells only bump [race.waived]. Disarmed, every scheduler hook is a
    no-op and same-seed traces are byte-identical. *)

(** Vector clocks over dense owner ids. Pure operations (exposed for
    the qcheck law tests in [test_race]). *)
module Vc : sig
  type t

  val empty : t
  val get : t -> int -> int
  val tick : t -> int -> t
  val join : t -> t -> t

  val leq : t -> t -> bool
  (** Component-wise ≤ — the happens-before partial order. *)

end

type access = {
  a_owner : int;
  a_write : bool;
  a_snap : Vc.t;  (** the owner's clock at the instant of the access *)
}

type conflict = {
  r_cell : string;
  r_policy : Ntcs_sim.Sched.cell_policy;
  r_time : int;  (** virtual instant both accesses happened at *)
  r_first : access;
  r_second : access;
}

type t
(** An armed checker (one per world). *)

val arm : Ntcs_sim.World.t -> t
(** Install the monitor on the world's scheduler. Arm before traffic
    runs; accesses made while disarmed are invisible. *)

val conflicts : t -> conflict list
(** Races on [Exclusive] cells, in detection order. *)

val waived : t -> int
(** Count of conflict patterns on [Waived] cells (sanctioned shared
    state — counted, not reported). *)
