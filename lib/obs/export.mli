(** Deterministic snapshot exporters: equal-seed runs serialize registries
    to byte-identical strings. *)

val stats_json : Registry.t -> string
(** Flat JSON object: counters, gauges, histogram summaries, circuit and
    span-event totals. *)

val span_json : Span.event -> string
(** One span event as a JSON object (no trailing newline). *)

val spans_jsonl : Registry.t -> string
(** One JSON object per line per span event, oldest first. *)

val chrome_trace : Registry.t -> string
(** Chrome trace-event JSON for about:tracing / Perfetto: one timeline row
    per circuit, B/E duration slices, instant marks for hops. *)
