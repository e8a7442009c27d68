(** The circuit-lifecycle automaton: idle → opening → established →
    draining → closed, with reject and break edges. Declared once; the
    static exhaustiveness pass ({!Check_proto}) and the dynamic trace
    checker ({!Check_trace}) both read it, so protocol drift surfaces
    as a diagnostic rather than a stale table. *)

type state = Idle | Opening | Established | Draining | Closed

type input =
  | Open_sent  (** origin asked for a circuit: IVC_OPEN / ND HELLO sent *)
  | Open_rcvd  (** target (or gateway splice) saw the open and committed *)
  | Accept  (** origin learned the open succeeded: IVC_ACCEPT / HELLO_ACK *)
  | Reject  (** origin learned the open failed: IVC_REJECT *)
  | Traffic  (** payload-bearing frame: DATA / DGRAM / REPLY / PING / PONG *)
  | Close  (** orderly teardown: IVC_CLOSE, cascades included (§4.3) *)
  | Break  (** the circuit underneath failed *)

val state_to_string : state -> string
val input_to_string : input -> string

type step =
  | Goto of state
  | Stay
  | Violation of string  (** illegal (state, input) pair, with the reason *)

val transition : state -> input -> step
(** Total over [state × input]; the single source of truth. *)

val check_automaton : unit -> string list
(** Structural self-check: every state reachable from idle, closed
    absorbing, traffic legal exactly in established. Empty = sound. *)

val kinds : (string * input * string list) list
(** [Proto.kind] constructors in declaration order: name, automaton input,
    and the modules that must dispatch on the constructor. *)

val kind_names : string list

val ns_requests : (string * string) list
(** [Ns_proto.request] constructors in declaration order, each with the
    response constructor that answers it. *)

val ns_responses : string list
(** [Ns_proto.response] constructors in declaration order. *)

val ns_servers : string list
(** Modules implementing the naming-service server side. *)

val gw_events : string list
(** Gateway event alternatives ([Ip_layer.Gw_*]) every gateway must
    dispatch on. *)

val gw_modules : string list
