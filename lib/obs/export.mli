(** Deterministic snapshot exporters: equal-seed runs serialize registries
    to byte-identical strings. *)

val stats_json : Registry.t -> string
(** Flat JSON object: counters, gauges, histogram summaries, circuit and
    span-event totals. *)

val span_json : Span.event -> string
(** One span event as a JSON object (no trailing newline). *)

val by_circuit : Registry.t -> (int * Span.event list) list
(** Span events grouped by circuit id, ids ascending, each group oldest
    first. Events with {!Span.none} (trace entries, control-frame
    forwards) belong to no circuit and are left out. *)

val spans_jsonl : Registry.t -> string
(** One JSON object per line per event of the log (trace entries
    included), oldest first. *)

val chrome_trace : Registry.t -> string
(** Chrome trace-event JSON for about:tracing / Perfetto: one timeline row
    per circuit, B/E duration slices, instant marks for hops; events with
    the null context (trace entries among them) share the ["control"]
    row. *)
