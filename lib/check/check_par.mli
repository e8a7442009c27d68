(** Domain-parallel validation (DESIGN.md §14): scenario replication on
    real OCaml domains, and a coupled multi-shard barrier soak whose
    merged event log and blocked-process report must stay
    byte-identical for every worker count. Driven by [ntcs_check] (at 1, 2
    and 4 domains, after the exploration pass) and [test/test_par.ml]. *)

module Mode = Ntcs_sim.Sched.Mode

(** {1 Scenario replication}

    Each bounded scenario builds its whole world from a seed, so N
    replicas running concurrently on N domains must each produce a trace
    byte-identical to the solo run and report zero violations — the
    shard-isolation claim of the parallel world model, exercised with
    actual preemptive parallelism. *)

type replication = {
  rp_scenario : string;
  rp_replicas : int;
  rp_violations : string list;  (** the solo run's own violations *)
  rp_divergent : int list;  (** replica indices whose run differed *)
}

val replicate : ?replicas:int -> Check_scenarios.scenario -> replication
(** Run the scenario solo, then on [replicas] (default 2) concurrent
    domains, and compare every replica's trace and violation list against
    the solo run's. *)

val replication_failed : replication -> bool
val report_replication : Format.formatter -> replication -> unit

(** {1 Coupled barrier soak} *)

type par_report = {
  pr_domains : int;
  pr_workers : int list;
  pr_epochs : int;
  pr_messages : int;  (** cross-shard messages exchanged *)
  pr_events : int;  (** merged event-log lines (trace entries and span events) *)
  pr_choices : int;  (** chooser consultations replayed in the replay pass *)
  pr_blocked : string list;  (** the shard-stable teardown report *)
  pr_race_conflicts : int;
  pr_span_violations : Check_trace.violation list;
  pr_divergences : string list;
}

val par_soak : ?domains:int -> ?workers:int list -> ?seed:int -> unit -> par_report
(** Build the coupled workload — a ring of barrier channels carrying
    spanned tokens between [domains] (default 2) shard worlds, each under
    a seeded crash/restart fault plane — and require bit-identical output
    across [workers] (default [[1; 2; 4]]), with the race checker armed
    (zero conflicts, zero byte perturbation), the merged event log clean
    under {!Check_trace.spans}, and a recording chooser whose per-shard
    choice logs replay to the same bytes via
    {!Ntcs_sim.World.Config.Replay}. *)

val par_soak_failed : par_report -> bool
val report_par : Format.formatter -> par_report -> unit
