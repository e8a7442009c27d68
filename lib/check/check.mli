(** ntcs_check driver: protocol-conformance static analyses plus the
    schedule-exploration harness. *)

val check_sources : Lint_lex.source list -> Lint_diag.t list
(** Automaton self-check + {!Check_proto} + {!Check_graph}, sorted. *)

val static_check : string list -> Lint_diag.t list
(** [check_sources] over every [.ml]/[.mli] under the given paths. *)

val report : Format.formatter -> Lint_diag.t list -> unit

type exploration = {
  x_scenario : string;
  x_outcome : Ntcs_sim.Explore.outcome;
}

val explore :
  ?max_schedules:int ->
  ?sanitize:bool ->
  ?races:bool ->
  Check_scenarios.scenario list ->
  exploration list
(** Explore every scenario of the list ({!Check_scenarios.all},
    {!Check_scenarios.faults} or {!Check_scenarios.naming}) under a
    schedule budget. [sanitize] arms the pool sanitizer, [races] the
    happens-before race checker, on every scenario world (see
    {!Check_scenarios.Mode}); both default off. *)

val exploration_failed : exploration -> bool
(** Truncated (budget exhausted) or any schedule violated an invariant:
    the contract for the bounded scenarios, which must be exhaustive. *)

val fault_exploration_failed : ?min_schedules:int -> exploration -> bool
(** The soak contract of the fault and naming scenarios: any violation
    fails; truncation is acceptable but only past [min_schedules] (default
    100) failure-free schedules. *)

val report_exploration : Format.formatter -> exploration -> unit

val exploration_to_json : exploration list -> string
