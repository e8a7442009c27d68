(** The Network Dependent layer (§2.2).

    Sits directly on the native IPCS (through STD-IF) and gives the layers
    above uniform {e local virtual circuits}: message frames to and from
    peers named by NTCS addresses, on directly-reachable machines only.
    Lives here:

    - the channel-open protocol — a HELLO / HELLO-ACK exchange announcing
      each end's address, byte order and listening addresses (the
      "information exchanged during the channel open protocol" that feeds
      the local address cache, §3.3);
    - retry on open, the only recovery the paper allows at this level;
    - TAdd handling (§3.4): an incoming connection from a temporary-address
      source gets a locally-assigned alias, purged the moment a real UAdd is
      seen on that circuit;
    - reader processes per circuit, each carrying its received frames and
      its circuit's failure up the ComMod's layers through one upcall
      ({!set_upcall}) in its own event, so the ComMod stays passive
      (§2.1). *)

open Ntcs_sim
open Ntcs_ipcs
open Ntcs_wire

type span_memo
(** The last [nd.tx], [nd.rx] or [gw.forward] detail a circuit or splice
    leg built, reused while the kind and address stay the same. *)

val memo : (Proto.kind -> Addr.t -> Ntcs_obs.Span.detail) -> span_memo
(** A memo that builds each new detail with the given function. *)

val memo_detail : span_memo -> Proto.kind -> Addr.t -> Ntcs_obs.Span.detail
(** The last detail built, built again only when [kind] or [addr] differ
    from the last call's. *)

type circuit = {
  cid : int;
  lvc : Std_if.lvc;
  nd : t;
  mutable peer_addr : Addr.t;
      (** table key: the peer's real UAdd, or our local alias TAdd *)
  mutable peer_announced : Addr.t;
      (** what the peer calls itself — the wire destination for frames *)
  mutable peer_order : Endian.order;
  mutable peer_listen : Phys_addr.t list;
  mutable c_open : bool;
  outbound : bool;
  tx_memo : span_memo;  (** [nd.tx] details of frames sent on this circuit *)
  rx_memo : span_memo;  (** [nd.rx] details of frames received on it *)
}

and event =
  | Frame of circuit * Proto.Frame.t
      (** a received frame as a zero-copy view over the receive buffer;
          the header is already decoded and memoised *)
  | Circuit_down of circuit * Errors.t

and t = {
  node : Node.t;
  owner : string;  (** module name, for traces *)
  allowed_nets : Net.id list option;
      (** a gateway's per-network ComMod is pinned to its network *)
  mutable my_addr : Addr.t;
  mutable my_past : Addr.t list;
  tadds : Addr.Tadd_gen.gen;
  mutable upcall : event -> unit;  (** see {!set_upcall} *)
  circuits : (Addr.t, circuit) Hashtbl.t;
  alias_fwd : (Addr.t, Addr.t) Hashtbl.t;
  phys_cache : (Addr.t, Phys_addr.t list) Hashtbl.t;
  mutable acceptors : Std_if.acceptor list;
  mutable helpers : Sched.pid list;
  mutable next_cid : int;
  mutable closed : bool;
}

val create :
  Node.t ->
  owner:string ->
  ?allowed_nets:Net.id list ->
  ?fixed:Phys_addr.t list ->
  unit ->
  t
(** Allocate one communication resource per address kind this module can
    speak (well-known modules pass [fixed] resources) and start the accept
    loops. Call from within the owning process. *)

val shutdown : t -> unit
(** Abort every circuit, close listeners, kill helper processes — what
    module death looks like to the peers' ND-layers. *)

val my_addr : t -> Addr.t

val set_my_addr : t -> Addr.t -> unit
(** Registration upgrade: the self-assigned TAdd becomes the real UAdd.
    Frames addressed to previous self-addresses are still accepted. *)

val is_me : t -> Addr.t -> bool
val my_listen_addrs : t -> Phys_addr.t list

val fresh_alias : t -> Addr.t
(** A locally-unique temporary address — the IP-layer aliases TAdd-sourced
    origins on chained circuits exactly as the ND-layer does on direct
    ones. *)

val note_alias_purged : t -> Addr.t -> Addr.t -> unit
(** Record an alias upgrade made by an upper layer so late replies still
    resolve. *)

(** {1 Address cache (UAdd → physical), §3.3} *)

val lookup_phys : t -> Addr.t -> Phys_addr.t list option
val cache_phys : t -> Addr.t -> Phys_addr.t list -> unit

(** {1 Circuits} *)

val set_upcall : t -> (event -> unit) -> unit
(** Install the function each reader calls, in its own event, with every
    frame it receives and with its circuit's failure. It must not suspend:
    the reader serves only its circuit meanwhile. Until one is installed,
    events are dropped. *)

val find_circuit : t -> Addr.t -> circuit option
(** Open circuit to this peer, following purged aliases. *)

val resolve_alias : t -> Addr.t -> Addr.t

val find_or_open : t -> Addr.t -> Phys_addr.t list -> (circuit, Errors.t) result
(** The open circuit to this neighbour, or a new LVC (with retry on open,
    §2.2, and the HELLO handshake) to each physical address in turn until
    one answers (the last error when none does, [Unreachable] when the list
    is empty). Blocking. *)

val close_circuit : circuit -> unit
(** Local close, no upward notification (the caller asked for it). *)

val send_frame : circuit -> Proto.header -> Bytes.t -> (unit, Errors.t) result
(** Frame and transmit: one header blit + one payload blit into a fresh
    buffer with the LVC's headroom in front, which the STD-IF hands to the
    wire as it is. A failure marks the circuit broken. *)

val forward_view : circuit -> Proto.header -> Proto.Frame.t -> (unit, Errors.t) result
(** Transmit a received frame as-is (headers already patched in place, [h]
    read before the patches): no re-encode. The STD-IF takes the received
    buffer over, copying it once only when the outbound backend's headroom
    differs from the inbound one's. A failure marks the circuit broken. *)
