(** Span invariants over a finished world's causal span log: circuit spans
    bracket message spans, B/E events pair exactly, nothing rides an
    unopened circuit, and every opened span is closed or excused by a crash
    (see DESIGN.md §10). *)

type violation = Lint_trace.violation = {
  v_at_us : int;
  v_invariant : string;
  v_detail : string;
}

val check : Ntcs_obs.Span.event list -> violation list
(** Violations in event order, for an event log in oldest-first order
    ({!Ntcs_obs.Registry.spans}). Events with {!Ntcs_obs.Span.none} —
    trace entries, control-frame forwards — are skipped. *)
