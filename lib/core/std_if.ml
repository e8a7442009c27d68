(* STD-IF: the uniform local-virtual-circuit interface (§2.2).

   "A simple STD-IF was desired ... This incorporates only those features
   necessary for the NTCS, while maintaining a high degree of compatibility
   with anticipated underlying IPCSs."

   Everything above this interface sees message-oriented local virtual
   circuits; everything below it is genuinely network dependent:
   - over the TCP backend we frame messages onto the byte stream with a
     shift-mode length word (segments split and coalesce underneath);
   - over the MBX backend we fragment messages larger than the mailbox
     message limit and reassemble on receive.

   Per the paper, there is no relocation or recovery here: failures surface
   as [Error] and notification is simply passed upward. *)

open Ntcs_sim
open Ntcs_ipcs

(* A received message, owned by the receiver (std_if.mli). *)
type slice = { buf : Bytes.t; off : int; len : int }

type lvc = {
  lvc_id : int;
  kind : Phys_addr.kind;
  headroom : int;
  send : Bytes.t -> off:int -> len:int -> (unit, Ipcs_error.t) result;
  recv_msg : ?timeout_us:int -> unit -> (slice, Ipcs_error.t) result;
  close : unit -> unit;
  abort : unit -> unit;
  is_open : unit -> bool;
}

(* The largest message either backend carries. Neither reassembly trusts
   a header from the wire: a TCP length word or an MBX fragment count
   beyond it is a broken circuit ([Closed]), never an allocation or a wait
   for bytes that will not come; a send beyond it is [Too_big]. *)
let max_frame = 1 lsl 24

(* The buffer the wire carries for [data[off, off+len)]: [data] itself
   when the message already sits [headroom] bytes in and ends the buffer
   (the backend writes its framing into the room in front), otherwise one
   copy into a fresh buffer with that room. *)
let wire_buffer ~headroom data ~off ~len =
  if off = headroom && off + len = Bytes.length data then data
  else begin
    let buf = Bytes.create (headroom + len) in
    Bytes.blit data off buf headroom len;
    buf
  end

(* --- TCP adaptation: length-prefix framing over a byte stream --- *)

let frame_word_bytes = 4

let of_tcp (conn : Ipcs_tcp.conn) =
  let send data ~off ~len =
    if len > max_frame then Error Ipcs_error.Too_big
    else begin
      let buf = wire_buffer ~headroom:frame_word_bytes data ~off ~len in
      Ntcs_wire.Shift.poke_word buf 0 len;
      Ipcs_tcp.send conn buf
    end
  in
  (* Reassembly state persists across recv_msg calls: a flat buffer with
     head/tail cursors, so extracting a message consumes the prefix without
     re-copying everything still pending (the old Buffer-based reassembly
     re-materialised the whole backlog on every message). *)
  let rbuf = ref (Bytes.create 4096) in
  let head = ref 0 in
  let tail = ref 0 in
  let append chunk =
    let n = Bytes.length chunk in
    let used = !tail - !head in
    if Bytes.length !rbuf - !tail < n then begin
      (* Slide the live region down; grow only if that is not enough. *)
      if !head > 0 then begin
        Bytes.blit !rbuf !head !rbuf 0 used;
        head := 0;
        tail := used
      end;
      if Bytes.length !rbuf - !tail < n then begin
        let cap = ref (2 * Bytes.length !rbuf) in
        while !cap - !tail < n do
          cap := 2 * !cap
        done;
        let nb = Bytes.create !cap in
        Bytes.blit !rbuf 0 nb 0 !tail;
        rbuf := nb
      end
    end;
    Bytes.blit chunk 0 !rbuf !tail n;
    tail := !tail + n
  in
  let rec recv_msg ?timeout_us () =
    let have = !tail - !head in
    if have >= frame_word_bytes then begin
      let need = Ntcs_wire.Shift.get_word !rbuf !head in
      if need > max_frame then Error Ipcs_error.Closed
      else if have >= frame_word_bytes + need then begin
        (* The message leaves the cursor buffer and becomes the frame
           view's backing store upstairs. *)
        (* lint: allow copies(Bytes.sub) — ownership hand-off out of the reused reassembly buffer *)
        let msg = Bytes.sub !rbuf (!head + frame_word_bytes) need in
        head := !head + frame_word_bytes + need;
        if !head = !tail then begin
          head := 0;
          tail := 0
        end;
        Ok { buf = msg; off = 0; len = need }
      end
      else fill ?timeout_us ()
    end
    else fill ?timeout_us ()
  and fill ?timeout_us () =
    match Ipcs_tcp.recv ?timeout_us conn with
    | Ok chunk
      when !head = !tail
           && Bytes.length chunk >= frame_word_bytes
           && Ntcs_wire.Shift.get_word chunk 0 = Bytes.length chunk - frame_word_bytes ->
      (* Nothing pending and the chunk is exactly one framed message (the
         usual case: one write, one segment): it is the message buffer. *)
      Ok { buf = chunk; off = frame_word_bytes; len = Bytes.length chunk - frame_word_bytes }
    | Ok chunk ->
      append chunk;
      recv_msg ?timeout_us ()
    | Error _ as e -> e
  in
  {
    lvc_id = Ipcs_tcp.conn_id conn;
    kind = Phys_addr.K_tcp;
    headroom = frame_word_bytes;
    send;
    recv_msg;
    close = (fun () -> Ipcs_tcp.close conn);
    abort = (fun () -> Ipcs_tcp.abort conn);
    is_open = (fun () -> Ipcs_tcp.is_open conn);
  }

(* --- MBX adaptation: fragmentation over bounded messages ---

   Fragment header: three shift-mode words (frame id, index, count). A
   message that fits in one MBX message still carries the header, so the
   receiver validates every message the same way. *)

let mbx_frag_header = 12
let mbx_frag_payload = Ipcs_mbx.max_message_size - mbx_frag_header

let mbx_max_frags = (max_frame + mbx_frag_payload - 1) / mbx_frag_payload

(* Reassembly trusts no fragment header: a count of zero, beyond what
   [max_frame] needs, or disagreeing with the frame's earlier fragments,
   and an index outside the count, are a broken circuit ([Closed], as a
   short fragment is), never an allocation or a delivery with a hole. A
   repeated index is ignored. *)
let of_mbx (chan : Ipcs_mbx.chan) =
  let next_frame = ref 1 in
  (* frame id -> (distinct fragments received, fragments in order) *)
  let partial : (int, int * Bytes.t option array) Hashtbl.t = Hashtbl.create 4 in
  let send data ~off:base ~len:total =
    let count = max 1 ((total + mbx_frag_payload - 1) / mbx_frag_payload) in
    let frame_id = !next_frame in
    next_frame := frame_id + 1;
    (* A single-fragment message is one whole ND frame on the ring: the
       fault plane may drop/duplicate/reorder it. Fragments of a larger
       frame must arrive whole and in order, so they are never marked. A
       full mailbox ([Queue_full]) surfaces to the ND-layer, which backs
       off and retries — MBX flow control is the caller's problem. *)
    let put frag idx =
      Ntcs_wire.Shift.poke_word frag 0 frame_id;
      Ntcs_wire.Shift.poke_word frag 4 idx;
      Ntcs_wire.Shift.poke_word frag 8 count;
      Ipcs_mbx.send ~droppable:(count = 1) chan frag
    in
    let rec go idx =
      if idx >= count then Ok ()
      else begin
        let off = idx * mbx_frag_payload in
        let len = min mbx_frag_payload (total - off) in
        (* Each fragment is written once, into the buffer the ring delivers. *)
        let frag = Bytes.create (len + mbx_frag_header) in
        Bytes.blit data (base + off) frag mbx_frag_header len;
        match put frag idx with Ok () -> go (idx + 1) | Error _ as e -> e
      end
    in
    if total > max_frame then Error Ipcs_error.Too_big
    else if count > 1 then go 0
    else put (wire_buffer ~headroom:mbx_frag_header data ~off:base ~len:total) 0
  in
  let rec recv_msg ?timeout_us () =
    match Ipcs_mbx.recv ?timeout_us chan with
    | Error _ as e -> e
    | Ok frag when Bytes.length frag < mbx_frag_header -> Error Ipcs_error.Closed
    | Ok frag -> (
      let frame_id = Ntcs_wire.Shift.get_word frag 0 in
      let idx = Ntcs_wire.Shift.get_word frag 4 in
      let count = Ntcs_wire.Shift.get_word frag 8 in
      let got, frags =
        match Hashtbl.find_opt partial frame_id with
        | Some s -> s
        | None -> (0, [||])
      in
      if count < 1 || count > mbx_max_frags || idx < 0 || idx >= count
         || (got > 0 && Array.length frags <> count)
      then begin
        Hashtbl.remove partial frame_id;
        Error Ipcs_error.Closed
      end
      else if count = 1 then
        Ok { buf = frag; off = mbx_frag_header; len = Bytes.length frag - mbx_frag_header }
      else
        let frags = if got = 0 then Array.make count None else frags in
        match frags.(idx) with
        | Some _ -> recv_msg ?timeout_us ()
        | None ->
          frags.(idx) <- Some frag;
          let got = got + 1 in
          if got = count then begin
            Hashtbl.remove partial frame_id;
            let buf = Buffer.create (count * mbx_frag_payload) in
            let add f = Buffer.add_subbytes buf f mbx_frag_header (Bytes.length f - mbx_frag_header) in
            Array.iter (Option.iter add) frags;
            (* lint: allow copies(Buffer.to_bytes) — multi-fragment reassembly *)
            let msg = Buffer.to_bytes buf in
            Ok { buf = msg; off = 0; len = Bytes.length msg }
          end
          else begin
            Hashtbl.replace partial frame_id (got, frags);
            recv_msg ?timeout_us ()
          end)
  in
  {
    lvc_id = Ipcs_mbx.chan_id chan;
    kind = Phys_addr.K_mbx;
    headroom = mbx_frag_header;
    send;
    recv_msg;
    close = (fun () -> Ipcs_mbx.close chan);
    abort = (fun () -> Ipcs_mbx.abort chan);
    is_open = (fun () -> Ipcs_mbx.is_open chan);
  }

(* --- uniform open / listen over both backends --- *)

type acceptor = {
  acc_addr : Phys_addr.t;
  accept : ?timeout_us:int -> unit -> (lvc, Ipcs_error.t) result;
  shutdown : unit -> unit;
}

let connect ?allowed (ipcs : Registry.t) ~(machine : Machine.t) ~(dst : Phys_addr.t) =
  match Phys_addr.kind dst with
  | Phys_addr.K_tcp -> (
    match Ipcs_tcp.connect ?allowed (Registry.tcp ipcs) ~machine ~dst with
    | Ok conn -> Ok (of_tcp conn)
    | Error _ as e -> e)
  | Phys_addr.K_mbx -> (
    match Ipcs_mbx.open_chan ?allowed (Registry.mbx ipcs) ~machine ~dst with
    | Ok chan -> Ok (of_mbx chan)
    | Error _ as e -> e)

let listen_tcp ?port (ipcs : Registry.t) ~(machine : Machine.t) =
  let port = match port with Some p -> p | None -> Registry.fresh_port ipcs in
  match Ipcs_tcp.listen (Registry.tcp ipcs) ~machine ~port with
  | Error _ as e -> e
  | Ok l ->
    Ok
      {
        acc_addr = Ipcs_tcp.listener_addr l;
        accept =
          (fun ?timeout_us () ->
            match Ipcs_tcp.accept ?timeout_us l with
            | Ok conn -> Ok (of_tcp conn)
            | Error _ as e -> e);
        shutdown = (fun () -> Ipcs_tcp.close_listener l);
      }

let listen_mbx ?path (ipcs : Registry.t) ~(machine : Machine.t) ~hint =
  let path =
    match path with Some p -> p | None -> Registry.fresh_mbx_path ipcs ~machine ~hint
  in
  match Ipcs_mbx.create_mailbox (Registry.mbx ipcs) ~machine ~path with
  | Error _ as e -> e
  | Ok mb ->
    Ok
      {
        acc_addr = Ipcs_mbx.mailbox_addr mb;
        accept =
          (fun ?timeout_us () ->
            match Ipcs_mbx.accept ?timeout_us mb with
            | Ok chan -> Ok (of_mbx chan)
            | Error _ as e -> e);
        shutdown = (fun () -> Ipcs_mbx.close_mailbox mb);
      }

(* --- the unified envelope ---

   The one message-envelope record shared by every layer above the STD-IF:
   the LCM constructs it from an IP-layer delivery, the ALI hands it to
   applications, and [reply] consumes it unchanged. Upper layers re-export
   it ([type envelope = Std_if.envelope = { ... }]) so [env.Lcm_layer.src]
   and [env.Ali_layer.src] project the same record — there is exactly one
   definition and no back-pointers. *)

type envelope = {
  src : Addr.t; (* who sent it (reply here) *)
  kind : [ `Data | `Dgram ];
  app_tag : int;
  mode : Ntcs_wire.Convert.mode;
  src_order : Ntcs_wire.Endian.order;
  data : Bytes.t;
  conv : int; (* nonzero: the sender is blocked awaiting a reply *)
  seq : int; (* sender's LCM sequence number *)
  span : Ntcs_obs.Span.ctx; (* causal identity of the send that produced it *)
}
