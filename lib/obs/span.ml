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

(* The formats the trace checker reads carry their fields; the text a
   reader sees is rendered from them here and nowhere else. *)
type detail =
  | Text of string
  | Leg of { net_a : int; label_a : int; net_b : int; label_b : int; dst : string option }
  | Forward of
      { net_a : int; label_a : int; net_b : int; label_b : int; kind : string; dst : string }
  | Ivc_open of { dst : string; hops : int; label : int }
  | Label of { label : int; rest : string }
  | Ivc_accept of { src : string; label : int }
  | Convert of { mode : string; local : string; remote : string; dst : string; forced : bool }
  | Nd_open of { addr : string; phys : string }
  | Depth of int
  | Cache_entry of { kind : string; key : string; shard : int; gen : int }
  | Floor of { shard : int; floor : int }
  | Shard_hop of { name : string; from_shard : int; to_shard : int; hop : int }
  | Shard_gen of { shard : int; gen : int; what : string; name : string; addr : string option }

let detail_to_string = function
  | Text s -> s
  | Leg { net_a; label_a; net_b; label_b; dst } ->
    Printf.sprintf "net%d label %d <-> net%d label %d%s" net_a label_a net_b label_b
      (match dst with None -> "" | Some d -> " dst=" ^ d)
  | Forward { net_a; label_a; net_b; label_b; kind; dst } ->
    Printf.sprintf "net%d label %d -> net%d label %d kind=%s dst=%s" net_a label_a net_b label_b
      kind dst
  | Ivc_open { dst; hops; label } -> Printf.sprintf "to %s via %d hop(s) label %d" dst hops label
  | Label { label; rest } -> Printf.sprintf "label %d%s" label rest
  | Ivc_accept { src; label } -> Printf.sprintf "from %s label %d" src label
  | Convert { mode; local; remote; dst; forced } ->
    Printf.sprintf "mode=%s local=%s remote=%s dst=%s%s" mode local remote dst
      (if forced then " forced" else "")
  | Nd_open { addr; phys } -> Printf.sprintf "%s at %s" addr phys
  | Depth d -> string_of_int d
  | Cache_entry { kind; key; shard; gen } ->
    Printf.sprintf "%s:%s shard %d gen %d" kind key shard gen
  | Floor { shard; floor } -> Printf.sprintf "shard %d floor %d" shard floor
  | Shard_hop { name; from_shard; to_shard; hop } ->
    Printf.sprintf "%s: shard %d -> %d hop %d" name from_shard to_shard hop
  | Shard_gen { shard; gen; what; name; addr } ->
    Printf.sprintf "shard %d gen %d: %s %s%s" shard gen what name
      (match addr with None -> "" | Some a -> " (" ^ a ^ ")")

type event = {
  ev_at_us : int;  (** sim time, never wall time *)
  ev_ctx : ctx;
  ev_phase : phase;
  ev_name : string;  (** what happened, drawn from the category manifest *)
  ev_actor : string;  (** "machine/process" doing it *)
  ev_detail : detail;
}

let event ~at_us ~ctx ~phase ~name ~actor detail =
  { ev_at_us = at_us; ev_ctx = ctx; ev_phase = phase; ev_name = name; ev_actor = actor;
    ev_detail = detail }

let pp_event ppf e =
  Fmt.pf ppf "[%8dus] %s %-4s %-16s %-22s %s" e.ev_at_us (phase_to_string e.ev_phase)
    (to_string e.ev_ctx) e.ev_name e.ev_actor (detail_to_string e.ev_detail)
