(* Simulated Unix TCP: connection-oriented, byte-stream, host:port addressed.

   Faithful in the ways that matter to the NTCS ND-layer above it:
   - it transports *bytes*, not messages: single writes larger than the MSS
     are segmented, and bytes from consecutive writes coalesce at the
     receiver, so the ND-layer must do its own framing;
   - connection setup costs a round trip and can be refused;
   - failure of the peer machine or a partition surfaces only when the
     connection is next used (plus FIN when the peer closes cleanly). *)

open Ntcs_sim

let mss = 1460 (* maximum segment size, bytes *)
let syn_size = 64 (* handshake / control segment cost *)
let default_connect_timeout_us = 2_000_000

type t = {
  world : World.t;
  listeners : (string * int, listener) Hashtbl.t;
  mutable next_conn_id : int;
  mutable next_ephemeral : int;
}

and listener = {
  l_host : string;
  l_port : int;
  l_machine : Machine.t;
  l_stack : t;
  accept_q : conn Sched.Mailbox.mb;
  mutable l_open : bool;
}

and endpoint = {
  ep_machine : Machine.t;
  (* In-flight bytes that have arrived: (buffer, valid length, pooled).
     Pooled buffers are class-sized — larger than their payload — and go
     back to the world's pool when the receiver drains them. *)
  chunks : (Bytes.t * int * bool) Queue.t;
  signal : unit Sched.Mailbox.mb; (* pulsed on arrival / close *)
  arrival_fifo : int ref; (* enforces in-order delivery toward this end *)
  mutable ep_open : bool; (* our side still open *)
  mutable peer_closed : bool; (* FIN received *)
  mutable broken : bool; (* hard failure detected *)
}

and conn = {
  conn_id : int;
  net : Net.t;
  stack : t;
  near : endpoint;
  far : endpoint;
  remote : Phys_addr.t; (* peer's listening address, as seen from [near] *)
}

let create world =
  { world; listeners = Hashtbl.create 32; next_conn_id = 1; next_ephemeral = 30000 }

let find_machine_by_host t host =
  List.find_opt (fun (m : Machine.t) -> m.name = host) (World.all_machines t.world)

(* The cheapest TCP-capable network shared by both machines, optionally
   restricted to [allowed] (a gateway's per-network ComMod must not sneak
   packets across its other interface). *)
let tcp_net_between ?allowed t (a : Machine.t) (b : Machine.t) =
  World.common_nets t.world a.id b.id
  |> List.filter (fun nid ->
         match allowed with None -> true | Some nets -> List.mem nid nets)
  |> List.filter_map (fun nid ->
         let n = World.net t.world nid in
         match n.Net.kind with
         | Net.Tcp_lan | Net.Tcp_longhaul -> Some n
         | Net.Mbx_ring -> None)
  |> List.sort (fun (a : Net.t) b -> compare a.latency_base_us b.latency_base_us)
  |> function
  | [] -> None
  | n :: _ -> Some n

let listen t ~(machine : Machine.t) ~port =
  if Hashtbl.mem t.listeners (machine.name, port) then Error Ipcs_error.Already_bound
  else begin
    let l =
      {
        l_host = machine.name;
        l_port = port;
        l_machine = machine;
        l_stack = t;
        accept_q = Sched.Mailbox.create (World.sched t.world);
        l_open = true;
      }
    in
    Hashtbl.replace t.listeners (machine.name, port) l;
    World.record t.world ~cat:"tcp.listen" ~actor:machine.name (Printf.sprintf "port %d" port);
    Ok l
  end

let ephemeral_port t =
  let p = t.next_ephemeral in
  t.next_ephemeral <- p + 1;
  p

let listener_addr (l : listener) = Phys_addr.tcp ~host:l.l_host ~port:l.l_port

let close_listener (l : listener) =
  if l.l_open then begin
    l.l_open <- false;
    Hashtbl.remove l.l_stack.listeners (l.l_host, l.l_port)
  end

let make_endpoint world machine =
  {
    ep_machine = machine;
    chunks = Queue.create ();
    signal = Sched.Mailbox.create (World.sched world);
    arrival_fifo = ref 0;
    ep_open = true;
    peer_closed = false;
    broken = false;
  }

let connect ?(timeout_us = default_connect_timeout_us) ?allowed t ~(machine : Machine.t)
    ~(dst : Phys_addr.t) =
  match dst with
  | Phys_addr.Mbx _ -> Error Ipcs_error.Unreachable
  | Phys_addr.Tcp { host; port } -> (
    match find_machine_by_host t host with
    | None -> Error Ipcs_error.No_such_host
    | Some dst_machine -> (
      match tcp_net_between ?allowed t machine dst_machine with
      | None -> Error Ipcs_error.Unreachable
      | Some net ->
        let sched = World.sched t.world in
        let result = Sched.Ivar.create sched in
        (* SYN: carried to the server side, which either refuses or builds
           the connection and answers; the answer segment carries the
           decision back to us. *)
        let syn_sent =
          World.transmit t.world ~net ~src:machine ~dst:dst_machine ~size:syn_size (fun () ->
              match Hashtbl.find_opt t.listeners (host, port) with
              | Some l when l.l_open ->
                let near = make_endpoint t.world dst_machine in
                let far = make_endpoint t.world machine in
                let conn_id = t.next_conn_id in
                t.next_conn_id <- conn_id + 1;
                let server_conn =
                  { conn_id; net; stack = t; near; far;
                    remote = Phys_addr.tcp ~host:machine.name ~port:(ephemeral_port t) }
                in
                let client_conn =
                  { conn_id; net; stack = t; near = far; far = near; remote = dst }
                in
                let acked =
                  World.transmit t.world ~net ~src:dst_machine ~dst:machine ~size:syn_size
                    (fun () ->
                      Sched.Mailbox.send l.accept_q server_conn;
                      ignore (Sched.Ivar.try_fill result (Ok client_conn)))
                in
                if not acked then () (* client will time out *)
              | Some _ | None ->
                ignore
                  (World.transmit t.world ~net ~src:dst_machine ~dst:machine ~size:syn_size
                     (fun () -> ignore (Sched.Ivar.try_fill result (Error Ipcs_error.Refused)))))
        in
        if not syn_sent then Error Ipcs_error.Unreachable
        else begin
          match Sched.Ivar.read ~timeout:timeout_us result with
          | Some r ->
            (match r with
             | Ok _ ->
               World.record t.world ~cat:"tcp.connect" ~actor:machine.name
                 (Phys_addr.to_string dst)
             | Error _ -> ());
            r
          | None -> Error Ipcs_error.Timeout
        end))

let accept ?timeout_us (l : listener) =
  if not l.l_open then Error Ipcs_error.Closed
  else begin
    match Sched.Mailbox.recv ?timeout:timeout_us l.accept_q with
    | Some conn -> Ok conn
    | None -> Error Ipcs_error.Timeout
  end

let is_open (c : conn) = c.near.ep_open && not c.near.broken

(* Deliver one segment's payload into [ep]. *)
let deliver_segment ep payload len pooled =
  Queue.push (payload, len, pooled) ep.chunks;
  Sched.Mailbox.send ep.signal ()

let send ?(off = 0) ?len (c : conn) (data : Bytes.t) =
  if not c.near.ep_open then Error Ipcs_error.Closed
  else if c.near.broken then Error Ipcs_error.Closed
  else begin
    let total = match len with Some l -> l | None -> Bytes.length data - off in
    (* A write that fits one segment is one whole framed ND message on the
       wire (the STD-IF sends exactly one message per write): the fault
       plane may drop/duplicate/reorder it without desynchronising the
       receiver's framing. Segments of a larger write are not droppable —
       this simulated TCP has no retransmission, so losing one would corrupt
       the stream rather than model any real failure. *)
    let droppable = total <= mss in
    (* A delivered segment becomes the receiver's message buffer, which a
       gateway patches in place; an armed fault plane may run a droppable
       delivery again after that, so each run hands over its own copy. *)
    let replayable = droppable && World.faults c.stack.world <> None in
    let pool = World.pool c.stack.world in
    let rec push_segments pos ok =
      if (not ok) || pos >= total then ok
      else begin
        let len = min mss (total - pos) in
        (* The in-flight copy decouples the caller's buffer (released and
           reused as soon as [send] returns) from delivery. Non-droppable
           segments are delivered at most once, so they can borrow from the
           pool and go back when drained. Droppable segments cannot: the
           fault plane's duplicate rule schedules the same delivery twice,
           so the buffer's lifetime is unbounded — they stay plain
           exact-size allocations. *)
        let pooled = not droppable in
        let seg =
          if pooled then begin
            let b = Ntcs_util.Pool.alloc pool len in
            Bytes.blit data (off + pos) b 0 len;
            b
          end
          else
            (* lint: allow copies(Bytes.sub) — the in-flight segment outlives the caller's buffer *)
            Bytes.sub data (off + pos) len
        in
        let sent =
          World.transmit ~fifo:c.far.arrival_fifo ~droppable c.stack.world ~net:c.net
            ~src:c.near.ep_machine ~dst:c.far.ep_machine ~size:(len + 40) (fun () ->
              if c.far.ep_open then
                (* lint: allow copies(Bytes.copy) — a replayable delivery hands over its own buffer *)
                deliver_segment c.far (if replayable then Bytes.copy seg else seg) len pooled
              else if pooled then Ntcs_util.Pool.release pool seg)
        in
        push_segments (pos + len) sent
      end
    in
    if total = 0 then Ok ()
    else if push_segments 0 true then Ok ()
    else begin
      (* The wire refused (partition / peer machine down): a real TCP would
         discover this via timers; we surface it immediately as a broken
         circuit, which is all the ND-layer needs. *)
      c.near.broken <- true;
      Error Ipcs_error.Closed
    end
  end

(* Drain everything that has arrived, coalescing chunks — read(2) semantics.
   A lone unpooled exact-size chunk is handed over as it is; anything else
   is coalesced into one buffer of the pending size. Pooled in-flight
   buffers go back to the freelist here, once their bytes are out. *)
let take_available pool ep =
  match Queue.peek_opt ep.chunks with
  | None -> None
  | Some (b, len, false) when Queue.length ep.chunks = 1 && len = Bytes.length b ->
    ignore (Queue.pop ep.chunks);
    Some b
  | Some _ ->
    let out = Bytes.create (Queue.fold (fun n (_, len, _) -> n + len) 0 ep.chunks) in
    let pos = ref 0 in
    while not (Queue.is_empty ep.chunks) do
      let b, len, pooled = Queue.pop ep.chunks in
      Bytes.blit b 0 out !pos len;
      pos := !pos + len;
      if pooled then Ntcs_util.Pool.release pool b
    done;
    Some out

let recv ?timeout_us (c : conn) =
  let sched = World.sched c.stack.world in
  let deadline = Option.map (fun d -> Sched.now sched + d) timeout_us in
  let rec loop () =
    match take_available (World.pool c.stack.world) c.near with
    | Some data -> Ok data
    | None ->
      if c.near.broken then Error Ipcs_error.Closed
      else if c.near.peer_closed then Error Ipcs_error.Closed
      else if not c.near.ep_open then Error Ipcs_error.Closed
      else begin
        let timeout =
          match deadline with
          | None -> None
          | Some dl ->
            let left = dl - Sched.now sched in
            if left <= 0 then Some 0 else Some left
        in
        match timeout with
        | Some 0 -> Error Ipcs_error.Timeout
        | _ -> (
          match Sched.Mailbox.recv ?timeout c.near.signal with
          | Some () -> loop ()
          | None -> Error Ipcs_error.Timeout)
      end
  in
  loop ()

let close (c : conn) =
  if c.near.ep_open then begin
    c.near.ep_open <- false;
    (* FIN: tell the peer, if the wire still works — ordered after the data. *)
    ignore
      (World.transmit ~fifo:c.far.arrival_fifo c.stack.world ~net:c.net
         ~src:c.near.ep_machine ~dst:c.far.ep_machine ~size:syn_size (fun () ->
           c.far.peer_closed <- true;
           Sched.Mailbox.send c.far.signal ()))
  end

(* Abrupt teardown used when the owning process dies without closing. *)
let abort (c : conn) =
  c.near.ep_open <- false;
  c.near.broken <- true;
  ignore
    (World.transmit ~fifo:c.far.arrival_fifo c.stack.world ~net:c.net ~src:c.near.ep_machine
       ~dst:c.far.ep_machine ~size:syn_size (fun () ->
         c.far.broken <- true;
         Sched.Mailbox.send c.far.signal ()))

let conn_id (c : conn) = c.conn_id
let conn_world (c : conn) = c.stack.world
