(** The registered event-name manifest: trace categories and span names
    share one namespace, as they share one log. Lint rule R4 enforces that
    every [~cat:] literal in the library tree appears here, so exporters
    never meet an unknown category; span names built at run time are
    checked by test_internet's manifest test. *)

val known : string -> bool

val track_of : string -> string
(** Layer prefix of a category (["lcm.retry"] → ["lcm"]), used to group
    Chrome-trace tracks. *)
