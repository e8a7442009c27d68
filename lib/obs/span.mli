(** Causal span contexts: circuit id + per-message sequence id, carried in
    the protocol header so every frame is attributable to one logical send. *)

type ctx = { sp_circuit : int; sp_seq : int }

val none : ctx
(** The null context ([sp_circuit = 0]): control traffic that predates
    circuit establishment (handshakes, opens) carries this. *)

val is_none : ctx -> bool
val make : circuit:int -> seq:int -> ctx

val to_string : ctx -> string
(** ["c<circuit>#<seq>"], the form {!pp_event} and the exporters print. *)

type phase = B | E | I

val phase_to_string : phase -> string

(** What an event says. The formats the trace checker reads are typed, so
    it matches fields instead of parsing text; every other event is
    [Text]. Each constructor's comment gives the text {!detail_to_string}
    renders for it. *)
type detail =
  | Text of string
  | Leg of { net_a : int; label_a : int; net_b : int; label_b : int; dst : string option }
      (** [gw.splice], [gw.close]: ["net<a> label <l> <-> net<b> label <l'>[ dst=<d>]"] *)
  | Forward of
      { net_a : int; label_a : int; net_b : int; label_b : int; kind : string; dst : string }
      (** [gw.forward]: ["net<a> label <l> -> net<b> label <l'> kind=<k> dst=<d>"] *)
  | Ivc_open of { dst : string; hops : int; label : int }
      (** [ip.ivc_open]: ["to <dst> via <hops> hop(s) label <l>"] *)
  | Label of { label : int; rest : string }
      (** [ip.ivc_open_sent], [ip.ivc_reject], [ip.ivc_close]: ["label <l><rest>"] *)
  | Ivc_accept of { src : string; label : int }
      (** [ip.ivc_accept]: ["from <src> label <l>"] *)
  | Convert of { mode : string; local : string; remote : string; dst : string; forced : bool }
      (** [ip.convert]: ["mode=<m> local=<o> remote=<o> dst=<d>[ forced]"] *)
  | Nd_open of { addr : string; phys : string }  (** [nd.open]: ["<addr> at <phys>"] *)
  | Depth of int  (** [lcm.depth]: ["<depth>"] *)
  | Cache_entry of { kind : string; key : string; shard : int; gen : int }
      (** [ns.cache.hit], [ns.cache.stale], [ns.cache.store]:
          ["<kind>:<key> shard <s> gen <g>"] *)
  | Floor of { shard : int; floor : int }
      (** [ns.cache.invalidate], a floor raise: ["shard <s> floor <g>"] *)
  | Shard_hop of { name : string; from_shard : int; to_shard : int; hop : int }
      (** [ns.shard.forward]: ["<name>: shard <a> -> <b> hop <h>"] *)
  | Shard_gen of { shard : int; gen : int; what : string; name : string; addr : string option }
      (** [ns.shard.gen]: ["shard <s> gen <g>: <what> <name>[ (<addr>)]"] *)

val detail_to_string : detail -> string
(** The detail as text; [Text s] is [s] itself. Only readers of a log
    call it, never a producer. *)

type event = {
  ev_at_us : int;
  ev_ctx : ctx;
  ev_phase : phase;
  ev_name : string;
  ev_actor : string;
  ev_detail : detail;
}

val event :
  at_us:int -> ctx:ctx -> phase:phase -> name:string -> actor:string -> detail -> event

val pp_event : Format.formatter -> event -> unit
