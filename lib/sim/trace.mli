(** Append-only event trace of a simulated world.

    Tests and experiments assert protocol-level properties from it (e.g.
    "gateways never open circuits to each other"), and it answers the §6.2
    complaint — one must know {i why} a layer is called and {i who} called
    it — by recording a category and an actor with every entry. *)

type entry = {
  at_us : int;
  cat : string;  (** e.g. ["nd.open"], ["lcm.fault"], ["gw.splice"] *)
  actor : string;  (** module (process) name *)
  detail : string;
}

type t

val create : unit -> t

val set_filter : t -> string list -> unit
(** Record only these categories ([[]] = everything) — the "adequate
    selectivity" of §6.2. *)

val record : t -> at_us:int -> cat:string -> actor:string -> string -> unit
(** Categories are interned: the stored entry shares one copy of the
    category string per trace, so the hot path does not allocate. *)

val categories : t -> (string * int) list
(** Every category recorded so far with its entry count, sorted by name. *)

val entries : t -> entry list
val count : t -> int
val clear : t -> unit
val matching : t -> cat:string -> entry list
val matching_prefix : t -> prefix:string -> entry list
val pp_entry : Format.formatter -> entry -> unit
val dump : Format.formatter -> t -> unit
