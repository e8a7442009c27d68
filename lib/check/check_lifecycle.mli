(** Dynamic lifecycle conformance: replays a simulation trace through the
    {!Check_auto} automaton, one machine per circuit endpoint (opener,
    acceptor, each gateway splice leg), and reports every illegal
    transition as an R3-style violation. *)

val invariant : string
(** ["lifecycle"] — the [v_invariant] tag on every violation. *)

val inputs_of : Ntcs_sim.Trace.entry -> (string * Check_auto.input) list
(** The (endpoint key, automaton input) pairs one trace entry drives;
    [[]] for categories outside the lifecycle vocabulary. *)

val check : Ntcs_sim.Trace.entry list -> Lint_trace.violation list
