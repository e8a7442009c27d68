(* The Logical Connection Maintenance layer (§2.2, §3.5).

   "Its primary function is to relocate modules which may have moved, and to
   recover from broken connections, though it also provides a connectionless
   protocol. No explicit open or close primitives are provided at the
   Nucleus interface; messages are simply sent/received directly to/from the
   desired destinations, with the underlying IVCs being established as
   needed."

   The address-fault path follows the paper exactly: a failed send closes
   the channel, the local forwarding-address table is consulted, then the
   fault handler asks the NSP-layer for a forwarding UAdd; a hit is entered
   in the forwarding table and the send proceeds "in exactly the same manner
   as during an initial connection". The §6.3 pathology — the fault handler
   recursing through the NSP when the broken circuit *is* the name server's —
   is reproduced verbatim, together with the paper's patch (the LCM
   special-cases the name server's address, "although it also should not
   know of the Name Server"); [Node.config.ns_fault_guard] switches between
   the two behaviours.

   The LCM spawns no process of its own: each ND reader carries the frame it
   received up through the IP-layer and into the inbox / reply ivars, in
   the same event, through the upcall [create] installs (Clark's upcall
   structure). Nothing on that path suspends. *)

open Ntcs_sim
open Ntcs_wire

(* Re-export of the one shared envelope record (see [Std_if.envelope]):
   the labels are usable both bare and as [Lcm_layer.src] etc. *)
type envelope = Std_if.envelope = {
  src : Addr.t;
  kind : [ `Data | `Dgram ];
  app_tag : int;
  mode : Convert.mode;
  src_order : Endian.order;
  data : Bytes.t;
  conv : int; (* nonzero: the sender is blocked in send_sync awaiting a reply *)
  seq : int; (* sender's LCM sequence number *)
  span : Ntcs_obs.Span.ctx; (* causal identity of the send that produced it *)
}

type t = {
  node : Node.t;
  nd : Nd_layer.t;
  ip : Ip_layer.t;
  rng : Ntcs_util.Rng.t; (* private stream for backoff jitter *)
  track : Recursion.t;
  app_inbox : envelope Sched.Mailbox.mb;
  stash : envelope Queue.t; (* set aside by tag-filtered receives *)
  waiting : (int, reply_slot) Hashtbl.t; (* conversation id -> waiter *)
  circuits : (Addr.t, circ) Hashtbl.t; (* logical-circuit span per destination *)
  forwarding : (Addr.t, Addr.t) Hashtbl.t; (* old UAdd -> replacement UAdd *)
  last_seq : (Addr.t, int) Hashtbl.t; (* per-source high-water mark (§3.5 audit) *)
  mutable fault_oracle : (Addr.t -> (Addr.t option, Errors.t) result) option;
  mutable ns_addr : Addr.t option; (* who the name server is, for the guard *)
  mutable next_conv : int;
  mutable next_seq : int;
  mutable monitor_suppress : bool;
  mutable on_relocate : (old:Addr.t -> fresh:Addr.t -> unit) option;
  (* §3.5 reconfiguration hook: fires when the address-fault handler learns
     a relocation and patches the forwarding table — the NSP-layer listens
     to invalidate/splice its lookup caches (DESIGN.md §15). *)
  mutable deepest : int; (* recursion high-water mark already traced *)
}

and reply_slot = { rs_dst : Addr.t; rs_ivar : (envelope, Errors.t) result Sched.Ivar.ivar }

(* One logical circuit for span purposes: this ComMod speaking to one
   destination UAdd, from first use until peer-down/shutdown. Relocation
   keeps the circuit (the logical connection survives, §3.5); a later
   reconnection after a close gets a fresh world-unique id. [circ_detail]
   ("dst=<addr>") is rendered once here and shared by every B event of the
   circuit's messages. *)
and circ = { circ_id : int; mutable circ_seq : int; circ_detail : Ntcs_obs.Span.detail }

let metrics t = Node.metrics t.node
let trace t ~cat detail = Node.record t.node ~cat ~actor:t.nd.Nd_layer.owner detail

(* --- the causal-span plane ---

   Spans are allocated here, at the entry to the Nucleus (the ALI delegates
   straight down): a world-unique circuit id per destination plus a
   per-message sequence id, combined into the [Span.ctx] that rides the
   protocol header through IP, ND, every gateway splice and every
   fault-plane retry. Ids come from the world's registry, whose allocation
   order is fixed by the deterministic scheduler. *)

let span_event t ~ctx ~phase ~name detail =
  World.span (Node.world t.node) ~ctx ~phase ~name ~actor:t.nd.Nd_layer.owner detail

let circuit_of t ~dst =
  match Hashtbl.find_opt t.circuits dst with
  | Some c -> c
  | None ->
    let id = Ntcs_obs.Registry.fresh_circuit (metrics t) in
    let c = { circ_id = id; circ_seq = 0; circ_detail = Text ("dst=" ^ Addr.to_string dst) } in
    Hashtbl.replace t.circuits dst c;
    span_event t
      ~ctx:(Ntcs_obs.Span.make ~circuit:id ~seq:0)
      ~phase:Ntcs_obs.Span.B ~name:"lcm.circuit" c.circ_detail;
    c

let close_circuit t ~reason dst =
  match Hashtbl.find_opt t.circuits dst with
  | Some c ->
    Hashtbl.remove t.circuits dst;
    span_event t
      ~ctx:(Ntcs_obs.Span.make ~circuit:c.circ_id ~seq:0)
      ~phase:Ntcs_obs.Span.E ~name:"lcm.circuit" (Text reason)
  | None -> ()

let close_all_circuits t ~reason =
  List.iter (fun (dst, _) -> close_circuit t ~reason dst)
    (Ntcs_util.sorted_bindings t.circuits)

(* An ALI-boundary primitive's span name and the latency histogram it feeds
   ("lcm.send" and "lcm.send_us"), both built once at start-up. *)
type primitive = { op_name : string; op_histo : string }

let primitive name = { op_name = name; op_histo = name ^ "_us" }
let send_op = primitive "lcm.send"
let send_dgram_op = primitive "lcm.send_dgram"
let send_sync_op = primitive "lcm.send_sync"
let reply_op = primitive "lcm.reply"
let ping_op = primitive "lcm.ping"

(* Bracket one primitive in a message span: B before the work, E (with the
   outcome) after, and the elapsed sim time into its latency histogram. *)
let spanned t ~dst { op_name = name; op_histo } f =
  let c = circuit_of t ~dst in
  c.circ_seq <- c.circ_seq + 1;
  let ctx = Ntcs_obs.Span.make ~circuit:c.circ_id ~seq:c.circ_seq in
  let t0 = Node.now t.node in
  span_event t ~ctx ~phase:Ntcs_obs.Span.B ~name c.circ_detail;
  let r =
    (* An exception here is the owner dying mid-operation (e.g. the §6.3
       divergence's simulated stack overflow): mark the span crashed so the
       B/E pairing survives, then let the crash propagate. *)
    try f ctx
    with exn ->
      span_event t ~ctx ~phase:Ntcs_obs.Span.E ~name (Text "crashed");
      raise exn
  in
  Ntcs_obs.Registry.observe (metrics t) op_histo (Node.now t.node - t0);
  span_event t ~ctx ~phase:Ntcs_obs.Span.E ~name
    (match r with Ok _ -> Text "ok" | Error e -> Text ("err=" ^ Errors.to_string e));
  r

let set_fault_oracle t f = t.fault_oracle <- Some f
let set_ns_addr t a = t.ns_addr <- Some a
let set_on_relocate t f = t.on_relocate <- Some f

let fresh_conv t =
  let c = t.next_conv in
  t.next_conv <- c + 1;
  c

let fresh_seq t =
  let s = t.next_seq in
  t.next_seq <- s + 1;
  s

(* §6 / lint R3: make the recursion ceiling observable from the trace. One
   event per new high-water mark, so the steady state stays quiet and
   the trace checker (Check_trace) can assert the §6.3 bound from logs. *)
let note_depth t =
  let d = Recursion.depth t.track in
  if d > t.deepest then begin
    t.deepest <- d;
    Node.note t.node ~cat:"lcm.depth" ~actor:t.nd.Nd_layer.owner (Depth d)
  end

let tracked t f =
  Recursion.with_entry t.track (fun () ->
      note_depth t;
      f ())

(* --- the monitor / time-service hooks (§6.1) --- *)

(* [addr] is rendered only here, inside the monitoring branch: with
   monitoring off (the default) a primitive formats nothing for it. *)
let monitor_event t kind addr =
  if t.node.Node.config.Node.monitoring && not t.monitor_suppress then begin
    match t.node.Node.hooks.Node.on_event with
    | None -> ()
    | Some hook ->
      (* "control passes to the LCM-layer, which generates a time stamp for
         monitor data. A distributed time primitive is called, which may
         recursively call on the ComMod ..." — the hook and the timestamp
         function are installed by the DRTS and may both re-enter us. *)
      let ts =
        if t.node.Node.config.Node.timestamps then t.node.Node.hooks.Node.timestamp ()
        else Node.now t.node
      in
      hook kind (Printf.sprintf "t=%d %s" ts (Addr.to_string addr))
  end

(* --- the address-fault handler (§3.5 / §6.3) --- *)

let rec follow_forwarding t addr n =
  if n <= 0 then addr
  else begin
    match Hashtbl.find_opt t.forwarding addr with
    | Some next -> follow_forwarding t next (n - 1)
    | None -> addr
  end

let is_ns t addr = match t.ns_addr with Some a -> Addr.equal a addr | None -> false

(* Handle an address fault for [dst]. Returns the address to retry with
   (possibly the same, after clearing state for a clean reconnect), or an
   error if the destination is gone for good. *)
let address_fault t ~dst =
  Ntcs_obs.Registry.incr (metrics t) "lcm.addr_faults";
  trace t ~cat:"lcm.fault" (Addr.to_string dst);
  (* The channel just failed, so the local tables were already consulted to
     no avail (§3.5). Next stop: the fault handler proper. *)
  match Hashtbl.find_opt t.forwarding dst with
  | Some fwd -> Ok fwd
  | None ->
    if is_ns t dst && t.node.Node.config.Node.ns_fault_guard then begin
      (* The paper's patch: the only layer that could stop the NS fault
         recursion is us, "although it also should not know of the Name
         Server". Reconnect through the well-known address instead of asking
         the NSP (which would have to reach the name server over the very
         circuit that just died). *)
      Ntcs_obs.Registry.incr (metrics t) "lcm.ns_guard_hits";
      Ip_layer.forget_peer t.ip dst;
      Ok dst
    end
    else begin
      match t.fault_oracle with
      | None -> Error Errors.Destination_dead
      | Some oracle -> (
        Ntcs_obs.Registry.incr (metrics t) "lcm.fault_queries";
        match oracle dst with
        | Error e -> Error e
        | Ok (Some replacement) ->
          Hashtbl.replace t.forwarding dst replacement;
          Ntcs_obs.Registry.incr (metrics t) "lcm.relocations";
          trace t ~cat:"lcm.relocate"
            (Printf.sprintf "%s -> %s" (Addr.to_string dst) (Addr.to_string replacement));
          (match t.on_relocate with
           | Some f -> f ~old:dst ~fresh:replacement
           | None -> ());
          Ok replacement
        | Ok None ->
          (* Original module still alive: "it will attempt to reestablish
             what appears to be a broken communication link." *)
          Ip_layer.forget_peer t.ip dst;
          Ok dst)
    end

(* --- sending --- *)

(* Datagrams are connectionless (no recovery, §2.2); PINGs are liveness
   probes and must report on the probed address itself — transparently
   relocating a probe would make every dead module look alive. *)
let recoverable_kind = function
  | Proto.Dgram | Proto.Ping -> false
  | Proto.Data | Proto.Reply | Proto.Pong | Proto.Hello | Proto.Hello_ack | Proto.Ivc_open
  | Proto.Ivc_accept | Proto.Ivc_reject | Proto.Ivc_close -> true

(* The default deadline for every primitive; an explicit [?timeout_us]
   overrides it. It bounds the whole operation — retry backoff included. *)
let deadline_of t timeout_us =
  let budget =
    match timeout_us with
    | Some v -> v
    | None -> Node.default_timeout_us
  in
  Node.now t.node + budget

(* LCM send recovery (§3.5): three attempts through the address-fault
   handler, backoff from 50 ms doubling to an 800 ms ceiling, 20 ms of
   seeded jitter. *)
let send_retry =
  Retry.policy ~max_attempts:3 ~base_delay_us:50_000 ~max_delay_us:800_000 ~jitter_us:20_000 ()

(* One send under [send_retry] (§3.5): the first attempt goes
   to [dst] (after following any forwarding chain); every later attempt runs
   the address-fault handler first — forwarding table, §6.3 guard, fault
   oracle — and reopens the circuit to whatever address it yields, with
   exponential seeded backoff between attempts. *)
let send_frame ?deadline_us ?(span = Ntcs_obs.Span.none) t ~dst ~kind ~conv ~app_tag payload =
  let recoverable = recoverable_kind kind in
  let policy = if recoverable then send_retry else Retry.no_retry in
  let cur = ref (if recoverable then follow_forwarding t dst 4 else dst) in
  let retries = ref 0 in
  let attempt_once ~attempt =
    let target =
      if attempt = 1 then Ok !cur
      else begin
        match address_fault t ~dst:!cur with
        | Error _ as e -> e
        | Ok dst' ->
          cur := dst';
          Ok dst'
        end
    in
    match target with
    | Error _ as e -> e
    | Ok dst -> (
      match Ip_layer.get_or_open t.ip ~dst with
      | Error _ as e -> e
      | Ok ivc -> Ip_layer.send t.ip ivc ~kind ~seq:(fresh_seq t) ~conv ~app_tag ~span payload)
  in
  let r =
    Retry.run (Node.sched t.node) ~rng:t.rng ?deadline_us policy ~retryable:Errors.retryable
      ~on_retry:(fun ~attempt ~delay_us e ->
        incr retries;
        Ntcs_obs.Registry.incr (metrics t) "lcm.retries";
        Ntcs_obs.Registry.observe (metrics t) "lcm.retry_backoff_us" delay_us;
        trace t ~cat:"lcm.retry"
          (Printf.sprintf "%s attempt=%d backoff=%dus err=%s" (Addr.to_string !cur) attempt
             delay_us (Errors.to_string e)))
      attempt_once
  in
  Ntcs_obs.Registry.observe (metrics t) "lcm.retries_per_send" !retries;
  r

let send t ~dst ?(app_tag = 0) ?timeout_us payload =
  tracked t (fun () ->
      spanned t ~dst send_op (fun span ->
          monitor_event t "send" dst;
          let deadline_us = deadline_of t timeout_us in
          let r =
            send_frame ~deadline_us ~span t ~dst ~kind:Proto.Data ~conv:0 ~app_tag payload
          in
          (match r with
           | Ok () -> Ntcs_obs.Registry.incr (metrics t) "lcm.sends"
           | Error _ -> Ntcs_obs.Registry.incr (metrics t) "lcm.send_errors");
          r))

(* Connectionless protocol: single attempt, no relocation, no recovery. *)
let send_dgram t ~dst ?(app_tag = 0) ?timeout_us payload =
  tracked t (fun () ->
      spanned t ~dst send_dgram_op (fun span ->
          let deadline_us = deadline_of t timeout_us in
          let r =
            send_frame ~deadline_us ~span t ~dst ~kind:Proto.Dgram ~conv:0 ~app_tag payload
          in
          (match r with
           | Ok () -> Ntcs_obs.Registry.incr (metrics t) "lcm.dgrams"
           | Error _ -> Ntcs_obs.Registry.incr (metrics t) "lcm.dgram_errors");
          r))

let await_reply t ~dst ~conv ~timeout_us =
  let ivar = Sched.Ivar.create (Node.sched t.node) in
  Hashtbl.replace t.waiting conv { rs_dst = dst; rs_ivar = ivar };
  let result =
    match Sched.Ivar.read ~timeout:timeout_us ivar with
    | Some r -> r
    | None -> Error Errors.Timeout
  in
  Hashtbl.remove t.waiting conv;
  result

(* Synchronous send/receive/reply conversation (§1.3). *)
let send_sync t ~dst ?(app_tag = 0) ?timeout_us payload =
  tracked t (fun () ->
      spanned t ~dst send_sync_op (fun span ->
          monitor_event t "send-sync" dst;
          (* One deadline for the whole conversation: send retries, their
             backoff, and the reply wait all draw on the same budget. The
             whole conversation shares one span ctx — the reply comes back
             carrying it, so the round trip is one slice in the export. *)
          let deadline_us = deadline_of t timeout_us in
          let conv = fresh_conv t in
          match
            send_frame ~deadline_us ~span t ~dst ~kind:Proto.Data ~conv ~app_tag payload
          with
          | Error _ as e -> e
          | Ok () ->
            Ntcs_obs.Registry.incr (metrics t) "lcm.sync_sends";
            await_reply t ~dst ~conv ~timeout_us:(max 0 (deadline_us - Node.now t.node))))

let reply t (env : envelope) ?(app_tag = 0) ?timeout_us payload =
  tracked t (fun () ->
      if env.conv = 0 then Error (Errors.Internal "reply to a message that expects none")
      else
        spanned t ~dst:env.src reply_op (fun span ->
            monitor_event t "reply" env.src;
            let deadline_us = deadline_of t timeout_us in
            send_frame ~deadline_us ~span t ~dst:env.src ~kind:Proto.Reply ~conv:env.conv
              ~app_tag payload))

(* Liveness probe: PING / PONG with a conversation id. Used by the naming
   service to decide whether an old UAdd is "really inactive" (§3.5). *)
let ping t ~dst ~timeout_us =
  tracked t (fun () ->
      spanned t ~dst ping_op (fun span ->
          let conv = fresh_conv t in
          match
            send_frame ~deadline_us:(Node.now t.node + timeout_us) ~span t ~dst
              ~kind:Proto.Ping ~conv ~app_tag:0
              (Convert.payload_raw Bytes.empty)
          with
          | Error _ as e -> e
          | Ok () -> (
            match await_reply t ~dst ~conv ~timeout_us with
            | Ok _ -> Ok ()
            | Error _ as e -> e)))

(* Take the first stashed envelope accepted by [want], if any. *)
let take_stashed t want =
  let n = Queue.length t.stash in
  let found = ref None in
  for _ = 1 to n do
    let env = Queue.pop t.stash in
    if !found = None && want env then found := Some env else Queue.push env t.stash
  done;
  !found

let recv ?timeout_us ?app_tag t =
  tracked t (fun () ->
      let want env =
        match app_tag with None -> true | Some tag -> env.app_tag = tag
      in
      let deadline = Option.map (fun d -> Node.now t.node + d) timeout_us in
      let rec pull () =
        let timeout =
          match deadline with
          | None -> None
          | Some dl -> Some (max 0 (dl - Node.now t.node))
        in
        match timeout with
        | Some 0 -> Error Errors.Timeout
        | _ -> (
          match Sched.Mailbox.recv ?timeout t.app_inbox with
          | None -> Error Errors.Timeout
          | Some env ->
            if want env then Ok env
            else begin
              (* Not for this receive: set it aside for a later one. *)
              Queue.push env t.stash;
              pull ()
            end)
      in
      let result =
        match take_stashed t want with Some env -> Ok env | None -> pull ()
      in
      (match result with Ok env -> monitor_event t "recv" env.src | Error _ -> ());
      result)

(* --- the upcall: a received frame, in its reader's event --- *)

let envelope_of t (d : Ip_layer.delivery) kind =
  ignore t;
  {
    src = d.Ip_layer.del_src;
    kind;
    app_tag = d.Ip_layer.del_hdr.Proto.app_tag;
    mode = d.Ip_layer.del_hdr.Proto.mode;
    src_order = d.Ip_layer.del_hdr.Proto.src_order;
    data = d.Ip_layer.del_payload;
    conv = d.Ip_layer.del_hdr.Proto.conv;
    seq = d.Ip_layer.del_hdr.Proto.seq;
    span = d.Ip_layer.del_hdr.Proto.span;
  }

(* Audit per-source sequencing: in a static environment the LCM must never
   see reordering or duplication; during reconfiguration gaps are expected
   (dropped messages) but regressions still are not. *)
let note_seq t src seq =
  match Hashtbl.find_opt t.last_seq src with
  | Some last when seq <= last ->
    Ntcs_obs.Registry.incr (metrics t) "lcm.seq_regressions"
  | Some last ->
    if seq > last + 1 then Ntcs_obs.Registry.incr (metrics t) "lcm.seq_gaps";
    Hashtbl.replace t.last_seq src seq
  | None -> Hashtbl.replace t.last_seq src seq

(* The frame's span ctx crossed the whole stack to get here: mark the
   hand-off to the application and sample the inbox depth it joins. *)
let deliver_span t (h : Proto.header) =
  if not (Ntcs_obs.Span.is_none h.Proto.span) then
    span_event t ~ctx:h.Proto.span ~phase:Ntcs_obs.Span.I ~name:"lcm.deliver"
      (Proto.kind_detail h.Proto.kind)

let to_inbox t env =
  Sched.Mailbox.send t.app_inbox env;
  Ntcs_obs.Registry.observe (metrics t) "lcm.inbox_depth" (Sched.Mailbox.length t.app_inbox)

let handle_delivery t (d : Ip_layer.delivery) =
  let h = d.Ip_layer.del_hdr in
  (match h.Proto.kind with
   | Proto.Data | Proto.Dgram | Proto.Reply -> note_seq t d.Ip_layer.del_src h.Proto.seq
   | Proto.Ping | Proto.Pong | Proto.Hello | Proto.Hello_ack | Proto.Ivc_open
   | Proto.Ivc_accept | Proto.Ivc_reject | Proto.Ivc_close -> ());
  match h.Proto.kind with
  | Proto.Data ->
    deliver_span t h;
    to_inbox t (envelope_of t d `Data)
  | Proto.Dgram ->
    deliver_span t h;
    to_inbox t (envelope_of t d `Dgram)
  | Proto.Reply -> (
    deliver_span t h;
    match Hashtbl.find_opt t.waiting h.Proto.conv with
    | Some slot -> ignore (Sched.Ivar.try_fill slot.rs_ivar (Ok (envelope_of t d `Data)))
    | None -> Ntcs_obs.Registry.incr (metrics t) "lcm.orphan_replies")
  | Proto.Ping ->
    (* Answer in the reader's event: liveness must not depend on the
       application draining its inbox. *)
    let pong =
      (* The pong echoes the ping's span ctx, so the probe's round trip is
         attributable to the prober's circuit. *)
      Proto.make_header ~kind:Proto.Pong ~src:(Nd_layer.my_addr t.nd) ~dst:d.Ip_layer.del_src
        ~conv:h.Proto.conv ~span:h.Proto.span ~payload_len:0 ()
    in
    (match Ip_layer.find_ivc t.ip d.Ip_layer.del_src with
     | Some ivc -> ignore (Nd_layer.send_frame ivc.Ip_layer.circuit { pong with Proto.ivc = ivc.Ip_layer.label } Bytes.empty)
     | None -> ())
  | Proto.Pong -> (
    match Hashtbl.find_opt t.waiting h.Proto.conv with
    | Some slot -> ignore (Sched.Ivar.try_fill slot.rs_ivar (Ok (envelope_of t d `Data)))
    | None -> ())
  | Proto.Hello | Proto.Hello_ack | Proto.Ivc_open | Proto.Ivc_accept | Proto.Ivc_reject
  | Proto.Ivc_close ->
    (* The IP-layer never delivers these. *)
    assert false

let peers_down t peers =
  List.iter
    (fun peer ->
      (* The connectivity epoch to this peer is over: close its circuit
         span. A later send reconnects under a fresh circuit id. *)
      close_circuit t ~reason:"peer-down" peer;
      (* Fail conversations that were waiting on this peer: their reply may
         never come. The caller's fault path takes it from there. Waiters
         wake in conversation-id order, never in table order. *)
      List.iter
        (fun (_, slot) ->
          if Addr.equal slot.rs_dst peer then
            ignore (Sched.Ivar.try_fill slot.rs_ivar (Error Errors.Circuit_failed)))
        (Ntcs_util.sorted_bindings t.waiting))
    peers

let upcall t ev =
  match Ip_layer.handle_event t.ip ev with
  | Ip_layer.Consumed -> ()
  | Ip_layer.Down peers -> peers_down t peers
  | Ip_layer.Deliver d -> handle_delivery t d

let shutdown t =
  close_all_circuits t ~reason:"shutdown";
  Nd_layer.shutdown t.nd

let create node nd ip =
  let t =
    {
      node;
      nd;
      ip;
      (* Split off the world stream at creation: creation order is
         deterministic, so each ComMod gets a reproducible jitter stream. *)
      rng = Ntcs_util.Rng.split (World.rng (Node.world node));
      track = Recursion.create ~limit:node.Node.config.Node.recursion_limit ();
      app_inbox = Sched.Mailbox.create (Node.sched node);
      stash = Queue.create ();
      waiting = Hashtbl.create 16;
      circuits = Hashtbl.create 8;
      forwarding = Hashtbl.create 8;
      last_seq = Hashtbl.create 16;
      fault_oracle = None;
      ns_addr = None;
      next_conv = 1;
      next_seq = 1;
      monitor_suppress = false;
      on_relocate = None;
      deepest = 0;
    }
  in
  Nd_layer.set_upcall nd (upcall t);
  (* The ComMod's one exit hook. However the owning process ends —
     returning, raising, or killed with its machine — module death closes
     the channels, so peers' ND-layers detect it, and gives every open
     circuit span its E event: the span invariant rests on this hook. *)
  let sched = Node.sched node in
  Sched.on_exit sched (Sched.self sched) (fun _ -> shutdown t);
  t

(* Run [f] with monitor reporting suppressed: how the DRTS services send
   their own traffic without recursing forever (§6.1: "time correction and
   monitoring are disabled here, to avoid the obvious infinite recursion"). *)
let without_monitoring t f =
  let saved = t.monitor_suppress in
  t.monitor_suppress <- true;
  Fun.protect ~finally:(fun () -> t.monitor_suppress <- saved) f

let recursion_tracker t = t.track
