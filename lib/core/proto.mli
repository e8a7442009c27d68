(** The Nucleus wire protocol.

    Every NTCS message starts with a fixed header "built with structures of
    four byte integers, which can be bit field divided as required" (§5.2),
    transferred in shift mode so it is correct between any pair of machines
    with no conversion decision. Control messages that carry data fields
    (the route of an IVC_OPEN, HELLO announcements) put them in the payload
    in packed mode, as the paper prescribes. *)

open Ntcs_wire

exception Bad_header of string

val header_bytes : int

type kind =
  | Data  (** connection-oriented application data *)
  | Dgram  (** connectionless application data *)
  | Reply  (** send_sync response, matched by conversation id *)
  | Hello  (** ND channel-open: announces UAdd + machine representation *)
  | Hello_ack
  | Ivc_open  (** IP-layer: establish a chained circuit; payload = route *)
  | Ivc_accept
  | Ivc_reject
  | Ivc_close  (** IP-layer: cascade teardown (§4.3) *)
  | Ping  (** liveness probe (used by the naming service, §3.5) *)
  | Pong

val kind_to_string : kind -> string

val kind_detail : kind -> Ntcs_obs.Span.detail
(** [Text ("kind=" ^ kind_to_string k)], as a constant shared by every call. *)

val order_to_int : Endian.order -> int

type header = {
  kind : kind;
  src : Addr.t;
  dst : Addr.t;
  mode : Convert.mode;  (** how the payload was rendered *)
  src_order : Endian.order;  (** source machine's native representation *)
  hops : int;  (** gateway transits so far *)
  seq : int;
  conv : int;  (** conversation id for send_sync/reply matching *)
  app_tag : int;  (** application message type *)
  ivc : int;  (** internet-virtual-circuit leg label; 0 = direct *)
  payload_len : int;
  span : Ntcs_obs.Span.ctx;
      (** causal identity of the logical send that produced this frame;
          [Span.none] on control traffic predating any circuit. Rides the
          wire (words 11–12), so it survives gateway splices and fault-plane
          retries unchanged. *)
}

val make_header :
  kind:kind ->
  src:Addr.t ->
  dst:Addr.t ->
  ?mode:Convert.mode ->
  ?src_order:Endian.order ->
  ?hops:int ->
  ?seq:int ->
  ?conv:int ->
  ?app_tag:int ->
  ?ivc:int ->
  ?span:Ntcs_obs.Span.ctx ->
  payload_len:int ->
  unit ->
  header

val encode_header : header -> Bytes.t
(** Raises {!Bad_header} when [hops] is outside 0–255: the 8-bit hop field
    backs loop detection (E7), so a silently wrapped count would defeat it. *)

val encode_frame : header -> Bytes.t -> Bytes.t
(** Header (with [payload_len] fixed up) followed by the payload bytes. *)

(** {1 Zero-copy frame views}

    A {!Frame.t} is a window onto an existing buffer holding one complete
    frame: the header decodes lazily (and is memoised), the payload is only
    materialised on explicit request, and gateways forward by patching the
    affected shift-mode header words in place. Patching is byte-identical
    to a full re-encode because shift-mode layout is machine-independent
    (§5.2). *)
module Frame : sig
  type t

  val of_bytes : ?off:int -> ?len:int -> Bytes.t -> t
  (** View over [len] bytes (default: to the end of the buffer) starting at
      [off] (default 0). Only bounds are checked here; the header decodes on
      first {!header} call. Raises {!Bad_header} when the window cannot hold
      a frame. *)

  val header : t -> header
  (** Decode (once) and memoise. Raises {!Bad_header} when magic/version/
      payload_len disagree with the window. *)

  val buf : t -> Bytes.t
  val off : t -> int
  val len : t -> int

  val payload_bytes : t -> Bytes.t
  (** Materialise the payload (one copy). Call sites account for it in the
      [frame.bytes_copied] histogram. *)

  val encode_into : header -> payload:Bytes.t -> Bytes.t -> off:int -> t
  (** Encode a frame into a caller-supplied buffer at [off]: one
      header blit plus one payload blit. [payload_len] is fixed up. Raises
      {!Bad_header} when the frame does not fit. *)

  val patch_ivc : t -> int -> unit
  (** Rewrite the leg label (word 9) in place and drop the memo, allocating
      nothing: the next {!header} call re-decodes. *)

  val patch_hops : t -> int -> unit
  (** Rewrite the hop count (word 5 bits) in place, dropping the memo as
      {!patch_ivc} does. Raises {!Bad_header} outside 0–255. *)
end

(** {1 Control payload codecs (packed mode, §5.2)} *)

val addr_codec : Addr.t Packed.t

type hello = {
  h_addr : Addr.t;  (** the sender's current self-address (may be a TAdd) *)
  h_order : Endian.order;
  h_listen : string list;  (** its listening physical addresses, as strings *)
}

val hello_codec : hello Packed.t

type ivc_open = {
  route : Addr.t list;  (** remaining gateway hops, outermost first *)
  final_dst : Addr.t;
  origin_hello : hello;  (** so the destination learns the origin's machine
                             representation without a direct LVC *)
}

val ivc_open_codec : ivc_open Packed.t

val reason_codec : string Packed.t
(** Body of IVC_ACCEPT / IVC_REJECT / IVC_CLOSE. *)
