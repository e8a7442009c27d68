(* Causal identity for a message crossing the stack. A [ctx] names one
   logical send: the circuit it travels on (world-unique, allocated at the
   ALI boundary the first time a destination is spoken to) and the sequence
   number of this message within that circuit. The ctx rides inside the
   protocol header, so it survives gateway splices and fault-plane retries
   unchanged — every frame on every intermediate net carries the identity of
   the application send that caused it. *)

type ctx = { sp_circuit : int; sp_seq : int }

let none = { sp_circuit = 0; sp_seq = 0 }
let is_none c = c.sp_circuit = 0
let make ~circuit ~seq = { sp_circuit = circuit; sp_seq = seq }
let to_string c = Printf.sprintf "c%d#%d" c.sp_circuit c.sp_seq

(* Phases mirror the Chrome trace-event vocabulary: a [B]egin/[E]nd pair
   brackets a duration (a circuit's life, a synchronous call), an [I]nstant
   marks a point a frame passed through (ND tx/rx, a gateway forward). *)
type phase = B | E | I

let phase_to_string = function B -> "B" | E -> "E" | I -> "I"

type event = {
  ev_at_us : int;  (** sim time, never wall time *)
  ev_ctx : ctx;
  ev_phase : phase;
  ev_name : string;  (** what happened, drawn from the category manifest *)
  ev_actor : string;  (** "machine/process" doing it *)
  ev_detail : string;
}

let event ~at_us ~ctx ~phase ~name ~actor detail =
  { ev_at_us = at_us; ev_ctx = ctx; ev_phase = phase; ev_name = name; ev_actor = actor;
    ev_detail = detail }

let pp_event ppf e =
  Fmt.pf ppf "[%8dus] %s %-4s %-16s %-22s %s" e.ev_at_us (phase_to_string e.ev_phase)
    (to_string e.ev_ctx) e.ev_name e.ev_actor e.ev_detail
