(* The Nucleus wire protocol. Every NTCS message starts with a fixed header
   "built with structures of four byte integers, which can be bit field
   divided as required" (§5.2), transferred in shift mode so it is correct
   between any pair of machines with no conversion decision needed. Control
   messages that carry data fields (e.g. the route of an IVC_OPEN) put them
   in the payload in packed mode, as the paper prescribes. *)

open Ntcs_wire

exception Bad_header of string

let magic = 0x4E54 (* "NT" *)
let version = 1
let header_words = 13
let header_bytes = 4 * header_words

type kind =
  | Data (* connection-oriented application data *)
  | Dgram (* connectionless application data *)
  | Reply (* send_sync response, matched by conversation id *)
  | Hello (* ND channel-open: announces UAdd + machine repr *)
  | Hello_ack
  | Ivc_open (* IP-layer: establish a chained circuit; payload = route *)
  | Ivc_accept
  | Ivc_reject
  | Ivc_close (* IP-layer: cascade teardown (§4.3) *)
  | Ping (* liveness probe (used by the naming service) *)
  | Pong

let kind_to_int = function
  | Data -> 0
  | Dgram -> 1
  | Reply -> 2
  | Hello -> 3
  | Hello_ack -> 4
  | Ivc_open -> 5
  | Ivc_accept -> 6
  | Ivc_reject -> 7
  | Ivc_close -> 8
  | Ping -> 9
  | Pong -> 10

let kind_of_int = function
  | 0 -> Data
  | 1 -> Dgram
  | 2 -> Reply
  | 3 -> Hello
  | 4 -> Hello_ack
  | 5 -> Ivc_open
  | 6 -> Ivc_accept
  | 7 -> Ivc_reject
  | 8 -> Ivc_close
  | 9 -> Ping
  | 10 -> Pong
  | n -> raise (Bad_header (Printf.sprintf "unknown message kind %d" n))

let kind_to_string k =
  match k with
  | Data -> "data"
  | Dgram -> "dgram"
  | Reply -> "reply"
  | Hello -> "hello"
  | Hello_ack -> "hello-ack"
  | Ivc_open -> "ivc-open"
  | Ivc_accept -> "ivc-accept"
  | Ivc_reject -> "ivc-reject"
  | Ivc_close -> "ivc-close"
  | Ping -> "ping"
  | Pong -> "pong"

(* The [lcm.deliver] span detail: one shared constant per kind, so a
   delivery formats nothing. [Pong] is the highest tag. *)
let kind_details =
  Array.init (kind_to_int Pong + 1) (fun i -> "kind=" ^ kind_to_string (kind_of_int i))

let kind_detail k = kind_details.(kind_to_int k)

let order_to_int = function Endian.Le -> 0 | Endian.Be -> 1

let order_of_int = function
  | 0 -> Endian.Le
  | 1 -> Endian.Be
  | n -> raise (Bad_header (Printf.sprintf "unknown byte order tag %d" n))

type header = {
  kind : kind;
  src : Addr.t;
  dst : Addr.t;
  mode : Convert.mode; (* how the payload was rendered *)
  src_order : Endian.order; (* native representation of the source machine *)
  hops : int; (* gateway hops so far, for loop detection and E7 *)
  seq : int;
  conv : int; (* conversation id for send_sync/reply matching *)
  app_tag : int; (* application message type *)
  ivc : int; (* internet virtual circuit id *)
  payload_len : int;
  span : Ntcs_obs.Span.ctx;
      (* causal identity of the logical send that produced this frame;
         Span.none (circuit 0) on control traffic predating any circuit *)
}

let make_header ~kind ~src ~dst ?(mode = Convert.Packed) ?(src_order = Endian.Be) ?(hops = 0)
    ?(seq = 0) ?(conv = 0) ?(app_tag = 0) ?(ivc = 0) ?(span = Ntcs_obs.Span.none)
    ~payload_len () =
  { kind; src; dst; mode; src_order; hops; seq; conv; app_tag; ivc; payload_len; span }

(* Header layout:
   w0: magic(16) | version(8) | kind(8)
   w1-w2: src address
   w3-w4: dst address
   w5: mode(4) | src_order(4) | hops(8) | flags(16, reserved)
   w6: seq   w7: conv   w8: app_tag   w9: ivc   w10: payload_len
   w11: span circuit id   w12: span per-circuit sequence id

   Every word is written and read with shifts straight on the buffer: no
   word array, no field list, nothing allocated but the decoded header. *)

let poke buf off i w = Shift.poke_word buf (off + (4 * i)) w
let peek data off i = Shift.get_word data (off + (4 * i))

let blit_header h buf off =
  if h.hops < 0 || h.hops > 255 then
    raise
      (Bad_header
         (Printf.sprintf "hop count %d outside the 8-bit field (loop-detection E7 must not wrap)"
            h.hops));
  poke buf off 0 ((magic lsl 16) lor (version lsl 8) lor kind_to_int h.kind);
  poke buf off 1 (Addr.space_word h.src);
  poke buf off 2 (Addr.value_word h.src);
  poke buf off 3 (Addr.space_word h.dst);
  poke buf off 4 (Addr.value_word h.dst);
  poke buf off 5
    ((Convert.mode_to_int h.mode lsl 28)
    lor (order_to_int h.src_order lsl 24)
    lor (h.hops lsl 16));
  poke buf off 6 h.seq;
  poke buf off 7 h.conv;
  poke buf off 8 h.app_tag;
  poke buf off 9 h.ivc;
  poke buf off 10 h.payload_len;
  poke buf off 11 h.span.Ntcs_obs.Span.sp_circuit;
  poke buf off 12 h.span.Ntcs_obs.Span.sp_seq

let encode_header h =
  let buf = Bytes.create header_bytes in
  blit_header h buf 0;
  buf

let decode_header_at data off =
  if off < 0 || Bytes.length data - off < header_bytes then raise (Bad_header "short header");
  let w0 = peek data off 0 in
  if w0 lsr 16 <> magic then raise (Bad_header "bad magic");
  let v = (w0 lsr 8) land 0xFF in
  if v <> version then raise (Bad_header (Printf.sprintf "unsupported version %d" v));
  let kind = kind_of_int (w0 land 0xFF) in
  let w5 = peek data off 5 in
  (* Order before mode: a word with both fields bad reports the order. *)
  let src_order = order_of_int ((w5 lsr 24) land 0xF) in
  let mode =
    match Convert.mode_of_int (w5 lsr 28) with
    | Some m -> m
    | None -> raise (Bad_header (Printf.sprintf "unknown conversion mode %d" (w5 lsr 28)))
  in
  {
    kind;
    src = Addr.of_words (peek data off 1) (peek data off 2);
    dst = Addr.of_words (peek data off 3) (peek data off 4);
    mode;
    src_order;
    hops = (w5 lsr 16) land 0xFF;
    seq = peek data off 6;
    conv = peek data off 7;
    app_tag = peek data off 8;
    ivc = peek data off 9;
    payload_len = peek data off 10;
    span = Ntcs_obs.Span.make ~circuit:(peek data off 11) ~seq:(peek data off 12);
  }

let decode_header data = decode_header_at data 0

(* A full frame: shift-mode header followed by the (already converted)
   payload bytes. *)
let encode_frame h payload =
  let hdr = encode_header { h with payload_len = Bytes.length payload } in
  if Bytes.length payload = 0 then hdr else Bytes.cat hdr payload

(* --- zero-copy frame views ---

   A [view] is a window onto an existing buffer holding one complete frame.
   The header is decoded lazily and memoised; the payload is never
   materialised unless a consumer explicitly asks for bytes. Gateways
   forward a view by patching the affected shift-mode header words in
   place — legitimate exactly because shift-mode layout is
   machine-independent (§5.2), so a patched word is byte-identical to what
   a full re-encode would have produced. *)
module Frame = struct
  type t = {
    buf : Bytes.t;
    off : int;
    len : int;
    mutable hdr : header option; (* memoised decode; kept in sync by patches *)
  }

  let of_bytes ?(off = 0) ?len buf =
    let len = match len with Some l -> l | None -> Bytes.length buf - off in
    if off < 0 || len < header_bytes || off + len > Bytes.length buf then
      raise
        (Bad_header
           (Printf.sprintf "view [%d,+%d) does not hold a frame in %d bytes" off len
              (Bytes.length buf)))
    else { buf; off; len; hdr = None }

  let header v =
    match v.hdr with
    | Some h -> h
    | None ->
      let h = decode_header_at v.buf v.off in
      if v.len <> header_bytes + h.payload_len then
        raise
          (Bad_header
             (Printf.sprintf "view length %d does not match header payload_len %d" v.len
                h.payload_len));
      v.hdr <- Some h;
      h

  let buf v = v.buf
  let off v = v.off
  let len v = v.len
  let payload_off v = v.off + header_bytes
  let payload_len v = v.len - header_bytes

  (* Copies: each materialisation is deliberate — call sites account for it
     in the frame.bytes_copied histogram. *)
  let payload_bytes v = Bytes.sub v.buf (payload_off v) (payload_len v)

  let to_bytes v =
    if v.off = 0 && v.len = Bytes.length v.buf then v.buf else Bytes.sub v.buf v.off v.len

  (* Build a frame into a caller-supplied buffer at [off]: one
     header blit plus one payload blit — the only copy on the send path. *)
  let encode_into h ~payload buf ~off =
    let plen = Bytes.length payload in
    let h = { h with payload_len = plen } in
    let len = header_bytes + plen in
    if off < 0 || off + len > Bytes.length buf then
      raise
        (Bad_header
           (Printf.sprintf "frame of %d bytes does not fit at offset %d of %d-byte buffer" len
              off (Bytes.length buf)));
    blit_header h buf off;
    Bytes.blit payload 0 buf (off + header_bytes) plen;
    { buf; off; len; hdr = Some h }

  let of_parts h payload =
    let plen = Bytes.length payload in
    encode_into h ~payload (Bytes.create (header_bytes + plen)) ~off:0

  (* --- in-place header patches (word offsets per the layout above) --- *)

  let patch_ivc v ivc =
    poke v.buf v.off 9 ivc;
    match v.hdr with Some h -> v.hdr <- Some { h with ivc } | None -> ()

  let patch_hops v hops =
    if hops < 0 || hops > 255 then
      raise (Bad_header (Printf.sprintf "hop count %d outside the 8-bit field" hops));
    poke v.buf v.off 5 ((peek v.buf v.off 5 land lnot 0xFF0000) lor (hops lsl 16));
    match v.hdr with Some h -> v.hdr <- Some { h with hops } | None -> ()

  let patch_dst v dst =
    poke v.buf v.off 3 (Addr.space_word dst);
    poke v.buf v.off 4 (Addr.value_word dst);
    match v.hdr with Some h -> v.hdr <- Some { h with dst } | None -> ()
end

(* --- control payload codecs (packed mode, per §5.2) --- *)

let addr_codec =
  Packed.iso
    ~fwd:(fun (w0, w1) -> Addr.of_words w0 w1)
    ~bwd:(fun a -> (Addr.space_word a, Addr.value_word a))
    (Packed.pair Packed.int Packed.int)

(* HELLO / HELLO_ACK body: my UAdd (redundant with the header, but the header
   src may be a TAdd the peer should keep), my machine order, my listening
   addresses (so the peer can reconnect or pass them on). *)
type hello = {
  h_addr : Addr.t;
  h_order : Endian.order;
  h_listen : string list; (* physical addresses, uninterpreted strings *)
}

let hello_codec =
  Packed.iso
    ~fwd:(fun (a, (o, l)) ->
      (* The tag comes from a peer: an unknown one is malformed data. *)
      let h_order = try order_of_int o with Bad_header m -> raise (Packed.Unpack_error m) in
      { h_addr = a; h_order; h_listen = l })
    ~bwd:(fun h -> (h.h_addr, (order_to_int h.h_order, h.h_listen)))
    (Packed.pair addr_codec (Packed.pair Packed.int (Packed.list Packed.string)))

(* IVC_OPEN body: the remaining route (gateway commod UAdds, outermost
   first), the final destination, and the origin's HELLO announcement so the
   destination learns the origin's machine representation and listening
   addresses without a direct LVC. Gateways pop themselves off the front of
   the route and forward. The IVC_ACCEPT travelling back carries the final
   destination's HELLO for the same reason. *)
type ivc_open = {
  route : Addr.t list;
  final_dst : Addr.t;
  origin_hello : hello;
}

let ivc_open_codec =
  Packed.iso
    ~fwd:(fun (r, (f, o)) -> { route = r; final_dst = f; origin_hello = o })
    ~bwd:(fun v -> (v.route, (v.final_dst, v.origin_hello)))
    (Packed.pair (Packed.list addr_codec) (Packed.pair addr_codec hello_codec))

(* IVC_ACCEPT / IVC_REJECT / IVC_CLOSE body: reason string (possibly empty). *)
let reason_codec = Packed.string
