(** ntcs_check driver: protocol-conformance static analyses plus the
    schedule-exploration harness. *)

val static_check : string list -> Lint_diag.t list
(** The automaton's soundness, handler exhaustiveness ({!Check_proto})
    and recursion cycles ({!Check_graph}) over every [.ml]/[.mli] under
    the given paths; a file that does not parse is a [parse] finding. *)

val report : Format.formatter -> Lint_diag.t list -> unit

(** {1 Schedule exploration} *)

type contract
(** What an exploration must show besides zero violations: a schedule
    cap, whether hitting it is allowed, and a floor on the schedules run. *)

val exhaustive : contract
(** Cap 4000, hitting it fails: the whole tree must drain. At least 2
    schedules (the scenario must branch). *)

val soak : contract
(** Cap 150, truncation allowed; at least 100 schedules must run. *)

type exploration = {
  x_scenario : string;
  x_contract : contract;
  x_outcome : Ntcs_sim.Explore.outcome;
}

val explore : contract -> Check_scenarios.scenario list -> exploration list
(** Explore every scenario of the list under [contract], with the race
    checker armed on every world ([{!Check_scenarios.Mode} {races = true}]). *)

val explore_all : unit -> exploration list
(** {!Check_scenarios.exhaustive} under {!exhaustive}, then
    {!Check_scenarios.soaks} in their order, each under {!exhaustive} when
    it is one of {!Check_scenarios.finite_soaks} and under {!soak}
    otherwise: the dynamic half of [ntcs_check]. *)

val exploration_failed : exploration -> bool
(** Any schedule violated an invariant, or the outcome breaks its
    contract (cap hit where forbidden, too few schedules). *)

val report_exploration : Format.formatter -> exploration -> unit

val exploration_to_json : exploration list -> string
