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

type event = {
  ev_at_us : int;
  ev_ctx : ctx;
  ev_phase : phase;
  ev_name : string;
  ev_actor : string;
  ev_detail : string;
}

val event :
  at_us:int -> ctx:ctx -> phase:phase -> name:string -> actor:string -> string -> event

val pp_event : Format.formatter -> event -> unit
