(** Dynamic lifecycle conformance: replays a simulation trace through the
    {!Check_auto} automaton, one machine per circuit endpoint (opener,
    acceptor, each gateway splice leg), and reports every illegal
    transition as an R3-style violation. *)

val check : Ntcs_sim.Trace.entry list -> Lint_trace.violation list
