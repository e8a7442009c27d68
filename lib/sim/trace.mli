(** The trace of a simulated world: a view over its one event log
    ({!Ntcs_obs.Registry}).

    Tests and experiments assert protocol-level properties from it (e.g.
    "gateways never open circuits to each other"), and it answers the §6.2
    complaint — one must know {i why} a layer is called and {i who} called
    it — by recording a category and an actor with every entry. An entry
    is an instant with {!Ntcs_obs.Span.none} named by its category; span
    events share the log, so every read sees both, in logging order. *)

type entry = Ntcs_obs.Span.event
type t = Ntcs_obs.Registry.t

val create : unit -> t

val note : t -> at_us:int -> cat:string -> actor:string -> Ntcs_obs.Span.detail -> unit
(** Log an entry. *)

val record : t -> at_us:int -> cat:string -> actor:string -> string -> unit
(** [note] with a [Text] detail. *)

val categories : entry list -> (string * int) list
(** Every event name among [entries] with its count, sorted by name. *)

val entries : t -> entry list
(** Oldest first. *)

val count : t -> int
val clear : t -> unit
val matching : t -> cat:string -> entry list

val dump : Format.formatter -> t -> unit
(** One {!Ntcs_obs.Span.pp_event} line per event. *)
