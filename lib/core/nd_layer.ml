(* The Network Dependent layer (§2.2).

   Sits directly on the native IPCS (through STD-IF) and gives the layers
   above uniform *local virtual circuits*: message frames to/from peers
   named by NTCS addresses, on directly-reachable machines only. What lives
   here:
   - the channel-open protocol: a HELLO / HELLO-ACK exchange announcing each
     end's address, native byte order and listening addresses (this is the
     "information exchanged between modules during the channel open
     protocol" that feeds the local address cache, §3.3);
   - retry on open — the only recovery the paper allows at this level;
   - TAdd handling (§3.4): an incoming connection from a temporary-address
     source gets a locally-assigned alias TAdd, purged the moment a real
     UAdd is seen from that circuit;
   - reader processes per circuit that carry each received frame, and the
     circuit's failure, up the ComMod's layers through one upcall in the
     reader's own event: the ComMod stays passive (§2.1).

   No relocation, no reconnection, no conversion decisions for chained
   circuits (those belong to the IVC layer, which knows the final
   destination's machine type). *)

open Ntcs_sim
open Ntcs_ipcs
open Ntcs_wire

(* The last span detail one direction of a circuit built, and the kind
   and address it was built from. A circuit carries the same kind to the
   same peer frame after frame, so the detail is built once and shared by
   every nd.tx (or nd.rx) event that repeats it. [sm_detail == unbuilt]:
   nothing built yet. A gateway leg keeps one too, building its typed
   gw.forward detail (DESIGN §11). *)
type span_memo = {
  sm_build : Proto.kind -> Addr.t -> Ntcs_obs.Span.detail;
  mutable sm_kind : Proto.kind;
  mutable sm_addr : Addr.t;
  mutable sm_detail : Ntcs_obs.Span.detail;
}

let unbuilt = Ntcs_obs.Span.Text ""

let memo build =
  { sm_build = build; sm_kind = Proto.Data; sm_addr = Addr.temporary ~assigner:0 ~value:0;
    sm_detail = unbuilt }

let memo_detail m kind addr =
  if m.sm_detail == unbuilt || m.sm_kind <> kind || not (Addr.equal m.sm_addr addr) then begin
    m.sm_kind <- kind;
    m.sm_addr <- addr;
    m.sm_detail <- m.sm_build kind addr
  end;
  m.sm_detail

(* "kind=<kind> dst=<addr>" (or src=): the text of an nd.tx (nd.rx) detail. *)
let kind_addr role kind addr =
  Ntcs_obs.Span.Text ("kind=" ^ Proto.kind_to_string kind ^ role ^ Addr.to_string addr)

let tx_text = kind_addr " dst=" and rx_text = kind_addr " src="

type circuit = {
  cid : int;
  lvc : Std_if.lvc;
  nd : t;
  mutable peer_addr : Addr.t; (* table key: real UAdd, or our local alias TAdd *)
  mutable peer_announced : Addr.t; (* what the peer calls itself; wire dst for frames *)
  mutable peer_order : Endian.order;
  mutable peer_listen : Phys_addr.t list;
  mutable c_open : bool;
  outbound : bool;
  tx_memo : span_memo; (* nd.tx details *)
  rx_memo : span_memo; (* nd.rx details *)
}

and event =
  | Frame of circuit * Proto.Frame.t (* zero-copy view; header pre-validated *)
  | Circuit_down of circuit * Errors.t

and t = {
  node : Node.t;
  owner : string; (* module name, for traces *)
  allowed_nets : Net.id list option;
  mutable my_addr : Addr.t; (* TAdd until registration completes *)
  mutable my_past : Addr.t list; (* previous self-addresses, still accepted *)
  tadds : Addr.Tadd_gen.gen;
  mutable upcall : event -> unit; (* installed by the LCM; must not suspend *)
  circuits : (Addr.t, circuit) Hashtbl.t;
  alias_fwd : (Addr.t, Addr.t) Hashtbl.t; (* purged alias -> real UAdd *)
  phys_cache : (Addr.t, Phys_addr.t list) Hashtbl.t;
  mutable acceptors : Std_if.acceptor list;
  mutable helpers : Sched.pid list;
  mutable next_cid : int;
  mutable closed : bool;
}

let sched t = Node.sched t.node
let metrics t = Node.metrics t.node
let trace t ~cat text = Node.record t.node ~cat ~actor:t.owner text
let note t ~cat detail = Node.note t.node ~cat ~actor:t.owner detail

let my_addr t = t.my_addr

(* Registration upgrades the module's self-assigned TAdd to its real UAdd.
   Frames addressed to a previous self-address are still ours: a peer may
   have replies in flight to the TAdd we announced. *)
let set_my_addr t addr =
  if not (Addr.equal addr t.my_addr) then begin
    t.my_past <- t.my_addr :: t.my_past;
    t.my_addr <- addr
  end

(* Not [List.exists (Addr.equal addr)]: a closure per frame a gateway forwards. *)
let rec mem_addr addr = function [] -> false | a :: rest -> Addr.equal addr a || mem_addr addr rest

let is_me t addr = Addr.equal addr t.my_addr || mem_addr addr t.my_past

(* Hand out a locally-unique temporary address; the IP-layer uses these to
   alias TAdd-sourced origins arriving over chained circuits, exactly as the
   ND-layer does for direct ones. *)
let fresh_alias t =
  Ntcs_obs.Registry.incr (Node.metrics t.node) "tadd.assigned";
  Addr.Tadd_gen.fresh t.tadds

let note_alias_purged t alias real =
  Hashtbl.replace t.alias_fwd alias real;
  Ntcs_obs.Registry.incr (Node.metrics t.node) "tadd.purged"

let my_listen_addrs t = List.map (fun a -> a.Std_if.acc_addr) t.acceptors

let lookup_phys t addr = Hashtbl.find_opt t.phys_cache addr

let cache_phys t addr phys =
  if phys <> [] && Addr.is_unique addr then Hashtbl.replace t.phys_cache addr phys

let find_circuit t addr =
  match Hashtbl.find_opt t.circuits addr with
  | Some c when c.c_open -> Some c
  | Some _ | None -> (
    (* A purged alias still resolves, so replies addressed before the purge
       find the upgraded circuit. *)
    match Hashtbl.find_opt t.alias_fwd addr with
    | None -> None
    | Some real -> (
      match Hashtbl.find_opt t.circuits real with
      | Some c when c.c_open -> Some c
      | Some _ | None -> None))

let set_upcall t f = t.upcall <- f

let resolve_alias t addr =
  match Hashtbl.find_opt t.alias_fwd addr with Some real -> real | None -> addr

let hello_payload t =
  Packed.run_pack Proto.hello_codec
    {
      Proto.h_addr = t.my_addr;
      h_order = Node.my_order t.node;
      h_listen = List.map Phys_addr.to_string (my_listen_addrs t);
    }

(* Encode a frame once, into the buffer the wire carries: the LVC's
   headroom is left in front for the STD-IF's framing. *)
let encode_for (lvc : Std_if.lvc) h payload =
  let headroom = lvc.Std_if.headroom in
  let buf = Bytes.create (headroom + Proto.header_bytes + Bytes.length payload) in
  Proto.Frame.encode_into h ~payload buf ~off:headroom

(* Hand a frame's buffer to the STD-IF, which owns it from here on. *)
let lvc_send (lvc : Std_if.lvc) v =
  lvc.Std_if.send (Proto.Frame.buf v) ~off:(Proto.Frame.off v) ~len:(Proto.Frame.len v)

(* Common tail of the two send paths: metrics, span, hand the frame to the
   STD-IF, surface failure as a broken circuit. [h] is the frame's header. *)
let send_view (c : circuit) (h : Proto.header) v =
  Ntcs_obs.Registry.incr (metrics c.nd) "nd.frames_sent";
  Ntcs_obs.Registry.observe (metrics c.nd) "nd.tx_bytes" (Proto.Frame.len v);
  (* A span-carrying frame leaving this machine is one hop of its logical
     send: an instant event, attributable via the header's ctx. *)
  if not (Ntcs_obs.Span.is_none h.Proto.span) then
    World.span (Node.world c.nd.node) ~ctx:h.Proto.span ~phase:Ntcs_obs.Span.I ~name:"nd.tx"
      ~actor:c.nd.owner
      (memo_detail c.tx_memo h.Proto.kind h.Proto.dst);
  match lvc_send c.lvc v with
  | Ok () -> Ok ()
  | Error e ->
    c.c_open <- false;
    trace c.nd ~cat:"nd.send_fail"
      (Printf.sprintf "to %s: %s" (Addr.to_string c.peer_addr) (Ipcs_error.to_string e));
    Error (Errors.of_ipcs e)

let send_frame (c : circuit) (h : Proto.header) payload =
  if not c.c_open then Error Errors.Circuit_failed
  else begin
    (* One header blit + one payload blit is the entire copy cost of a
       send. *)
    let v = encode_for c.lvc h payload in
    Ntcs_obs.Registry.observe (metrics c.nd) "frame.bytes_copied" (Bytes.length payload);
    send_view c h v
  end

(* Forward a received frame as-is (headers already patched in place): no
   encode — the received buffer itself goes to the STD-IF, which copies it
   only when the next leg's backend frames differently. [h] is the
   pre-patch header, whose kind, dst and span a relabel leaves as they are. *)
let forward_view (c : circuit) (h : Proto.header) (v : Proto.Frame.t) =
  if not c.c_open then Error Errors.Circuit_failed
  else begin
    Ntcs_obs.Registry.observe (metrics c.nd) "frame.bytes_copied" 0;
    send_view c h v
  end

(* Drop the circuit's table entry, unless another circuit took the key. *)
let unregister (c : circuit) =
  match Hashtbl.find_opt c.nd.circuits c.peer_addr with
  | Some c' when c' == c -> Hashtbl.remove c.nd.circuits c.peer_addr
  | Some _ | None -> ()

(* Close locally without notifying upper layers (they asked for it). *)
let close_circuit (c : circuit) =
  if c.c_open then begin
    c.c_open <- false;
    c.lvc.Std_if.close ()
  end;
  unregister c

let register_circuit t key c = Hashtbl.replace t.circuits key c

(* A real UAdd arrived on a circuit we were tracking under a TAdd alias:
   purge the alias (§3.4 — "TAdds ... are replaced in local tables when the
   real UAdd is available"). *)
let upgrade_peer (c : circuit) (real : Addr.t) =
  let t = c.nd in
  if Addr.is_temporary c.peer_addr && Addr.is_unique real then begin
    let alias = c.peer_addr in
    unregister c;
    Hashtbl.replace t.alias_fwd alias real;
    c.peer_addr <- real;
    c.peer_announced <- real;
    register_circuit t real c;
    Ntcs_obs.Registry.incr (metrics t) "tadd.purged";
    trace t ~cat:"nd.tadd_purge"
      (Printf.sprintf "%s -> %s" (Addr.to_string alias) (Addr.to_string real))
  end
  else if Addr.is_unique c.peer_addr && Addr.is_unique real && not (Addr.equal c.peer_addr real)
  then begin
    (* Peer re-registered under a fresh UAdd on a live circuit. Rare but
       possible; treat like an alias upgrade. *)
    unregister c;
    c.peer_addr <- real;
    c.peer_announced <- real;
    register_circuit t real c
  end

let handle_incoming (c : circuit) (s : Std_if.slice) =
  let t = c.nd in
  (* The received buffer becomes the view's backing store — no payload copy
     here; the header decodes once and is memoised in the view. *)
  match
    let v = Proto.Frame.of_bytes ~off:s.Std_if.off ~len:s.Std_if.len s.Std_if.buf in
    (v, Proto.Frame.header v)
  with
  | exception (Proto.Bad_header m | Shift.Shift_error m) ->
    Ntcs_obs.Registry.incr (metrics t) "nd.bad_frames";
    trace t ~cat:"nd.bad_frame" m
  | v, h ->
    Ntcs_obs.Registry.incr (metrics t) "nd.frames_recv";
    Ntcs_obs.Registry.observe (metrics t) "nd.rx_bytes" s.Std_if.len;
    if not (Ntcs_obs.Span.is_none h.Proto.span) then
      World.span (Node.world t.node) ~ctx:h.Proto.span ~phase:Ntcs_obs.Span.I ~name:"nd.rx"
        ~actor:t.owner
        (memo_detail c.rx_memo h.Proto.kind h.Proto.src);
    (* Only non-chained frames identify the circuit peer: a chained frame's
       source is the remote origin, not the gateway this circuit goes to —
       re-keying on it would steal the gateway's table entry. *)
    if h.Proto.ivc = 0 && Addr.is_unique h.Proto.src then upgrade_peer c h.Proto.src;
    (* Up through IP and LCM in this reader's own event. The view's
       backing store is this frame's own receive buffer — the STD-IF hands
       each message to exactly one owner — so the layers above hold the
       only reference. *)
    t.upcall (Frame (c, v))

let reader_loop (c : circuit) =
  let t = c.nd in
  let rec loop () =
    match c.lvc.Std_if.recv_msg () with
    | Ok s ->
      handle_incoming c s;
      loop ()
    | Error e ->
      if c.c_open then begin
        c.c_open <- false;
        trace t ~cat:"nd.circuit_down"
          (Printf.sprintf "%s: %s" (Addr.to_string c.peer_addr) (Ipcs_error.to_string e));
        unregister c;
        t.upcall (Circuit_down (c, Errors.of_ipcs e))
      end
  in
  loop ()

let spawn_helper t ~name f =
  let pid = World.spawn (Node.world t.node) ~machine:(Node.machine t.node) ~name f in
  t.helpers <- pid :: t.helpers;
  pid

let start_reader t c =
  ignore
    (spawn_helper t ~name:(Printf.sprintf "%s/nd-reader-%d" t.owner c.cid) (fun () ->
         reader_loop c))

(* Retry-on-open (§2.2): two retries at a fixed 50 ms, expressed as a
   capped policy so the one retry mechanism serves here too: ceiling = base
   disables the exponential growth, jitter 0 keeps the historical
   cadence. *)
let open_retry =
  Retry.policy ~max_attempts:3 ~base_delay_us:50_000 ~max_delay_us:50_000 ~jitter_us:0 ()

let fresh_cid t =
  let cid = t.next_cid in
  t.next_cid <- cid + 1;
  cid

(* A handshake frame's header and (materialised) payload. *)
let decode_slice (s : Std_if.slice) =
  let v = Proto.Frame.of_bytes ~off:s.Std_if.off ~len:s.Std_if.len s.Std_if.buf in
  (Proto.Frame.header v, Proto.Frame.payload_bytes v)

(* The half both handshakes share: read the peer's HELLO (HELLO-ACK when
   [outbound]), check its kind, unpack it and register the circuit, keyed
   by a fresh alias when the peer announced a TAdd — theirs is not unique
   to us (§3.4). On failure the LVC is aborted and the error comes back as
   the trace text and the error the caller surfaces. *)
let handshake_circuit t (lvc : Std_if.lvc) ~expect ~outbound =
  let fail m e =
    lvc.Std_if.abort ();
    Error (m, e)
  in
  match lvc.Std_if.recv_msg ~timeout_us:Node.default_timeout_us () with
  | Error e -> fail (Ipcs_error.to_string e) (Errors.of_ipcs e)
  | Ok s -> (
    match decode_slice s with
    | exception (Proto.Bad_header m | Shift.Shift_error m) -> fail m (Errors.Bad_message m)
    | h, _ when h.Proto.kind <> expect ->
      let m = if outbound then "expected HELLO-ACK" else "first frame was not HELLO" in
      fail m (Errors.Bad_message m)
    | _, payload -> (
      match Packed.run_unpack_result Proto.hello_codec payload with
      | Error m -> fail m (Errors.Bad_message m)
      | Ok hello ->
        let peer_real = hello.Proto.h_addr in
        let key = if Addr.is_temporary peer_real then fresh_alias t else peer_real in
        let c =
          {
            cid = fresh_cid t;
            lvc;
            nd = t;
            peer_addr = key;
            peer_announced = peer_real;
            peer_order = hello.Proto.h_order;
            peer_listen = List.filter_map Phys_addr.of_string hello.Proto.h_listen;
            c_open = true;
            outbound;
            tx_memo = memo tx_text;
            rx_memo = memo rx_text;
          }
        in
        register_circuit t key c;
        cache_phys t peer_real c.peer_listen;
        Ok c))

(* Inbound handshake: expect HELLO, answer HELLO-ACK, then become the
   circuit's reader. *)
let inbound_handshake t (lvc : Std_if.lvc) =
  match handshake_circuit t lvc ~expect:Proto.Hello ~outbound:false with
  | Error (m, _) -> trace t ~cat:"nd.handshake_fail" m
  | Ok c -> (
    let ack_header =
      Proto.make_header ~kind:Proto.Hello_ack ~src:t.my_addr ~dst:c.peer_announced
        ~src_order:(Node.my_order t.node) ~payload_len:0 ()
    in
    match send_frame c ack_header (hello_payload t) with
    | Ok () ->
      trace t ~cat:"nd.accept" (Addr.to_string c.peer_addr);
      reader_loop c
    | Error _ -> close_circuit c)

let accept_loop t (acceptor : Std_if.acceptor) =
  let rec loop () =
    match acceptor.Std_if.accept () with
    | Ok lvc ->
      ignore
        (spawn_helper t ~name:(Printf.sprintf "%s/nd-inbound" t.owner) (fun () ->
             inbound_handshake t lvc));
      loop ()
    | Error Ipcs_error.Timeout -> loop ()
    | Error _ -> () (* acceptor shut down *)
  in
  loop ()

(* Open an LVC to [phys], with retry on open (§2.2), and run the outbound
   handshake. Returns the circuit keyed by the peer's announced address. *)
let open_circuit t ~(phys : Phys_addr.t) =
  if t.closed then Error Errors.Circuit_failed
  else begin
    let connect ~attempt:_ =
      match
        Std_if.connect ?allowed:t.allowed_nets t.node.Node.ipcs
          ~machine:(Node.machine t.node) ~dst:phys
      with
      | Ok lvc -> Ok lvc
      | Error e -> Error (Errors.of_ipcs e)
    in
    match Retry.run (sched t) open_retry ~retryable:Errors.retryable connect with
    | Error _ as e -> e
    | Ok lvc -> (
      let hello_header =
        Proto.make_header ~kind:Proto.Hello ~src:t.my_addr
          ~dst:(Addr.temporary ~assigner:0 ~value:0) ~src_order:(Node.my_order t.node)
          ~payload_len:0 ()
      in
      match lvc_send lvc (encode_for lvc hello_header (hello_payload t)) with
      | Error e ->
        lvc.Std_if.abort ();
        Error (Errors.of_ipcs e)
      | Ok () -> (
        match handshake_circuit t lvc ~expect:Proto.Hello_ack ~outbound:true with
        | Error (_, e) -> Error e
        | Ok c ->
          start_reader t c;
          note t ~cat:"nd.open"
            (Ntcs_obs.Span.Nd_open
               { addr = Addr.to_string c.peer_addr; phys = Phys_addr.to_string phys });
          Ok c))
  end

(* The open circuit to a neighbour, or a new one to the first of its
   physical addresses that answers. Many IVCs share one neighbour's LVC. *)
let find_or_open t addr phys_candidates =
  match find_circuit t addr with
  | Some c -> Ok c
  | None ->
    let rec try_phys = function
      | [] -> Error Errors.Unreachable
      | phys :: rest -> (
        match open_circuit t ~phys with
        | Ok c -> Ok c
        | Error _ when rest <> [] -> try_phys rest
        | Error _ as e -> e)
    in
    try_phys phys_candidates

(* Create the ND-layer for a module: allocate one communication resource per
   address kind this machine (restricted to [allowed_nets]) can speak, and
   start the accept loops. Must be called from within the owning process. *)
let create node ~owner ?allowed_nets ?(fixed = []) () =
  let self = Sched.self (Node.sched node) in
  let t =
    {
      node;
      owner;
      allowed_nets;
      my_addr = Addr.temporary ~assigner:self ~value:0;
      my_past = [];
      tadds = Addr.Tadd_gen.create ~assigner:self;
      upcall = ignore;
      circuits = Hashtbl.create 16;
      alias_fwd = Hashtbl.create 8;
      phys_cache = Hashtbl.create 32;
      acceptors = [];
      helpers = [];
      next_cid = 1;
      closed = false;
    }
  in
  t.my_addr <- Addr.Tadd_gen.fresh t.tadds;
  Ntcs_obs.Registry.incr (metrics t) "tadd.assigned";
  let machine = Node.machine node in
  let nets =
    match allowed_nets with Some nets -> nets | None -> Node.my_nets node
  in
  let kinds =
    nets
    |> List.map (fun nid ->
           match (World.net (Node.world node) nid).Net.kind with
           | Net.Tcp_lan | Net.Tcp_longhaul -> Phys_addr.K_tcp
           | Net.Mbx_ring -> Phys_addr.K_mbx)
    |> List.sort_uniq compare
  in
  List.iter
    (fun kind ->
      (* Well-known modules (name server, prime gateways) listen at fixed,
         pre-agreed resources instead of freshly allocated ones. *)
      let fixed_for k =
        List.find_opt (fun p -> Phys_addr.kind p = k) fixed
      in
      let acceptor =
        match kind with
        | Phys_addr.K_tcp ->
          let port =
            match fixed_for Phys_addr.K_tcp with
            | Some (Phys_addr.Tcp { port; _ }) -> Some port
            | Some (Phys_addr.Mbx _) | None -> None
          in
          Std_if.listen_tcp ?port node.Node.ipcs ~machine
        | Phys_addr.K_mbx ->
          let path =
            match fixed_for Phys_addr.K_mbx with
            | Some (Phys_addr.Mbx { path }) -> Some path
            | Some (Phys_addr.Tcp _) | None -> None
          in
          Std_if.listen_mbx ?path node.Node.ipcs ~machine ~hint:owner
      in
      match acceptor with
      | Ok a ->
        t.acceptors <- a :: t.acceptors;
        ignore
          (spawn_helper t
             ~name:(Printf.sprintf "%s/nd-accept-%s" owner (Phys_addr.kind_to_string kind))
             (fun () -> accept_loop t a))
      | Error e ->
        trace t ~cat:"nd.listen_fail" (Ipcs_error.to_string e))
    kinds;
  t

let shutdown t =
  if not t.closed then begin
    t.closed <- true;
    List.iter (fun a -> a.Std_if.shutdown ()) t.acceptors;
    (* Tear circuits down in peer-address order: the peers observe our
       death in a reproducible sequence. *)
    List.iter
      (fun (_, c) -> if c.c_open then begin c.c_open <- false; c.lvc.Std_if.abort () end)
      (Ntcs_util.sorted_bindings ~compare:Addr.compare t.circuits);
    Hashtbl.reset t.circuits;
    List.iter (fun pid -> Sched.kill (sched t) pid) t.helpers;
    t.helpers <- []
  end
