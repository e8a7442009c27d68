(** Simulated Unix TCP: connection-oriented, byte-stream, host:port
    addressed.

    Faithful in the ways that matter to the ND-layer above it:
    - it transports {e bytes}, not messages — single writes larger than the
      MSS are segmented, and bytes from consecutive writes coalesce at the
      receiver, so the ND-layer must do its own framing;
    - connection setup costs a round trip and can be refused;
    - a peer machine failing or a partition surfaces only when the
      connection is next used (plus FIN on clean close). *)

open Ntcs_sim

val mss : int
(** Maximum segment size in bytes: larger writes are segmented. *)

type t
(** One TCP stack per simulated world. *)

type listener
type conn

val create : World.t -> t

val listen : t -> machine:Machine.t -> port:int -> (listener, Ipcs_error.t) result
val listener_addr : listener -> Phys_addr.t
val close_listener : listener -> unit

val connect :
  ?timeout_us:int ->
  ?allowed:Net.id list ->
  t ->
  machine:Machine.t ->
  dst:Phys_addr.t ->
  (conn, Ipcs_error.t) result
(** Three-way-handshake connect over the cheapest usable common network
    (restricted to [allowed] when given — a gateway's per-network ComMod
    must not sneak packets across its other interface). Blocking; call from
    inside a process. *)

val accept : ?timeout_us:int -> listener -> (conn, Ipcs_error.t) result

val send : ?off:int -> ?len:int -> conn -> Bytes.t -> (unit, Ipcs_error.t) result
(** Stream write of [data[off, off+len)] (default: the whole buffer):
    segmented at {!mss}; in-order delivery per direction. The bytes are
    copied before [send] returns, so the caller may reuse (or release) the
    buffer immediately. A refused wire (partition / peer machine down)
    breaks the connection. *)

val recv : ?timeout_us:int -> conn -> (Bytes.t, Ipcs_error.t) result
(** [read(2)] semantics: everything available, coalesced; blocks when
    nothing has arrived. [Error Closed] after FIN or breakage. The caller
    owns the returned buffer: a lone segment arrives as the sender's
    in-flight copy itself, several are coalesced into one fresh buffer. *)

val close : conn -> unit
(** Graceful close; the peer sees [Closed] after draining. *)

val abort : conn -> unit
(** Abrupt teardown (process death). *)

val is_open : conn -> bool
val conn_id : conn -> int

val conn_world : conn -> World.t
(** The world this connection lives in — the STD-IF borrows its buffer
    pool for framing. *)
