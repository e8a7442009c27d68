(** The registered trace/span category manifest. Lint rule R4 enforces that
    every [Trace.record ~cat] literal in the library tree appears here, so
    exporters never meet an unknown category. *)

val known : string -> bool

val track_of : string -> string
(** Layer prefix of a category (["lcm.retry"] → ["lcm"]), used to group
    Chrome-trace tracks. *)
