(** STD-IF: the uniform local-virtual-circuit interface (§2.2).

    "A simple STD-IF was desired ... incorporat[ing] only those features
    necessary for the NTCS, while maintaining a high degree of compatibility
    with anticipated underlying IPCSs."

    Everything above sees message-oriented local virtual circuits; below it
    is genuinely network dependent: over TCP, messages are framed onto the
    byte stream with a shift-mode length word; over MBX, messages larger
    than the mailbox limit are fragmented and reassembled. Either backend
    carries messages up to {!max_frame} bytes. Reassembly trusts no header
    from the wire: a TCP length word above {!max_frame}, or an MBX fragment
    header it cannot trust (count zero or beyond that bound, index outside
    the count, count disagreeing with the frame's earlier fragments), fails
    [recv_msg] with [Closed]; a repeated fragment index is ignored. No
    relocation or recovery here — failures surface as [Error] and pass
    upward. *)

open Ntcs_sim
open Ntcs_ipcs

type slice = { buf : Bytes.t; off : int; len : int }
(** One received message: [len] bytes at [off] in [buf]. The receiver owns
    [buf] for as long as it likes and may patch it in place: no other
    delivery shares it, and the STD-IF never touches it again. A
    single-segment TCP (single-fragment MBX) message lies in the arrived
    buffer itself, past the length word (fragment header); anything
    reassembled is a fresh copy at [off = 0]. *)

type lvc = {
  lvc_id : int;
  kind : Phys_addr.kind;
  headroom : int;
      (** Bytes the backend's framing takes in front of a message: 4 over
          TCP (the length word), 12 over MBX (the fragment header). *)
  send : Bytes.t -> off:int -> len:int -> (unit, Ipcs_error.t) result;
      (** Send [buf[off, off+len)] as one message. [send] takes ownership
          of [buf]: the caller must not touch it again. When the message
          sits exactly [headroom] bytes in and ends the buffer, the backend
          writes its framing into [[0, headroom)] and the buffer itself is
          what the wire carries; any other shape is copied once into a
          fresh buffer of [headroom + len] bytes. [Too_big] above
          {!max_frame}. *)
  recv_msg : ?timeout_us:int -> unit -> (slice, Ipcs_error.t) result;
  close : unit -> unit;
  abort : unit -> unit;
  is_open : unit -> bool;
}
(** One local virtual circuit: whole messages in, whole messages out,
    whichever backend carries them. *)

val max_frame : int
(** The largest message either backend carries (16 MiB). *)

type acceptor = {
  acc_addr : Phys_addr.t;  (** the listening address to register/announce *)
  accept : ?timeout_us:int -> unit -> (lvc, Ipcs_error.t) result;
  shutdown : unit -> unit;
}

val connect :
  ?allowed:Net.id list ->
  Registry.t ->
  machine:Machine.t ->
  dst:Phys_addr.t ->
  (lvc, Ipcs_error.t) result
(** Open an LVC over whichever backend the address kind selects. *)

val listen_tcp :
  ?port:int -> Registry.t -> machine:Machine.t -> (acceptor, Ipcs_error.t) result
(** Fixed [port] for well-known modules; fresh allocation otherwise. *)

val listen_mbx :
  ?path:string ->
  Registry.t ->
  machine:Machine.t ->
  hint:string ->
  (acceptor, Ipcs_error.t) result

(** {1 The unified envelope} *)

type envelope = {
  src : Addr.t;  (** who sent it (reply here) *)
  kind : [ `Data | `Dgram ];
  app_tag : int;
  mode : Ntcs_wire.Convert.mode;  (** how the payload was rendered *)
  src_order : Ntcs_wire.Endian.order;
  data : Bytes.t;
  conv : int;  (** nonzero: the sender is blocked awaiting a reply *)
  seq : int;  (** sender's LCM sequence number *)
  span : Ntcs_obs.Span.ctx;
      (** causal identity of the logical send that produced this message *)
}
(** The one message-envelope record shared by every layer above the STD-IF.
    The LCM constructs it, the ALI hands it to applications, and [reply]
    consumes it unchanged; upper layers re-export it so
    [env.Lcm_layer.src] and [env.Ali_layer.src] project the same record. *)
