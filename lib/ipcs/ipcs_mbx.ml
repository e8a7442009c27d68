(* Simulated Apollo MBX: message-oriented server mailboxes addressed by
   pathname, reachable only across an Apollo ring network.

   Contrasts with the TCP backend in every way the ND-layer can observe:
   messages (not bytes) with preserved boundaries, a hard per-message size
   limit (so the ND-layer must fragment large NTCS messages), and bounded
   mailbox queues that refuse when full (so the ND-layer must back off). *)

open Ntcs_sim

let max_message_size = 32_000 (* bytes; larger sends are refused *)
let default_queue_capacity = 64
let ctl_size = 48 (* channel-open / close control message cost *)
let default_open_timeout_us = 2_000_000

type t = {
  world : World.t;
  mailboxes : (string, mailbox) Hashtbl.t;
  mutable next_chan_id : int;
}

and mailbox = {
  mb_path : string;
  mb_machine : Machine.t;
  mb_stack : t;
  new_chans : chan Sched.Mailbox.mb;
  mutable mb_open : bool;
}

and chan_end = {
  ce_machine : Machine.t;
  inbox : Bytes.t Ntcs_util.Bqueue.t;
  ce_signal : unit Sched.Mailbox.mb;
  ce_fifo : int ref; (* the ring delivers a channel's messages in order *)
  mutable ce_open : bool;
  mutable ce_peer_gone : bool;
}

and chan = {
  chan_id : int;
  c_stack : t;
  c_net : Net.t;
  c_near : chan_end;
  c_far : chan_end;
  c_path : string; (* the mailbox this channel belongs to *)
}

let create world = { world; mailboxes = Hashtbl.create 32; next_chan_id = 1 }

(* The ring network shared by both machines, if any, optionally restricted
   to [allowed]. *)
let ring_between ?allowed t (a : Machine.t) (b : Machine.t) =
  World.common_nets t.world a.id b.id
  |> List.filter (fun nid ->
         match allowed with None -> true | Some nets -> List.mem nid nets)
  |> List.filter_map (fun nid ->
         let n = World.net t.world nid in
         match n.Net.kind with Net.Mbx_ring -> Some n | Net.Tcp_lan | Net.Tcp_longhaul -> None)
  |> function
  | [] -> None
  | n :: _ -> Some n

let create_mailbox t ~(machine : Machine.t) ~path =
  if Hashtbl.mem t.mailboxes path then Error Ipcs_error.Already_bound
  else begin
    let mb =
      {
        mb_path = path;
        mb_machine = machine;
        mb_stack = t;
        new_chans = Sched.Mailbox.create (World.sched t.world);
        mb_open = true;
      }
    in
    Hashtbl.replace t.mailboxes path mb;
    World.record t.world ~cat:"mbx.create" ~actor:machine.name path;
    Ok mb
  end

let mailbox_addr (mb : mailbox) = Phys_addr.mbx ~path:mb.mb_path

let close_mailbox (mb : mailbox) =
  if mb.mb_open then begin
    mb.mb_open <- false;
    Hashtbl.remove mb.mb_stack.mailboxes mb.mb_path
  end

let make_end world machine =
  {
    ce_machine = machine;
    inbox = Ntcs_util.Bqueue.create default_queue_capacity;
    ce_signal = Sched.Mailbox.create (World.sched world);
    ce_fifo = ref 0;
    ce_open = true;
    ce_peer_gone = false;
  }

let open_chan ?(timeout_us = default_open_timeout_us) ?allowed t ~(machine : Machine.t)
    ~(dst : Phys_addr.t) =
  match dst with
  | Phys_addr.Tcp _ -> Error Ipcs_error.Unreachable
  | Phys_addr.Mbx { path } -> (
    match Hashtbl.find_opt t.mailboxes path with
    | None -> (
      (* Even a missing mailbox costs a ring round trip to discover — if we
         can find the machine that would host it. When we cannot, the
         pathname itself tells us nothing (that is the point of pathnames),
         so refuse immediately. *)
      Error Ipcs_error.Refused)
    | Some mb -> (
      match ring_between ?allowed t machine mb.mb_machine with
      | None -> Error Ipcs_error.Unreachable
      | Some net ->
        let sched = World.sched t.world in
        let result = Sched.Ivar.create sched in
        let sent =
          World.transmit t.world ~net ~src:machine ~dst:mb.mb_machine ~size:ctl_size (fun () ->
              if mb.mb_open then begin
                let server_end = make_end t.world mb.mb_machine in
                let client_end = make_end t.world machine in
                let chan_id = t.next_chan_id in
                t.next_chan_id <- chan_id + 1;
                let server_chan =
                  { chan_id; c_stack = t; c_net = net; c_near = server_end;
                    c_far = client_end; c_path = path }
                in
                let client_chan =
                  { chan_id; c_stack = t; c_net = net; c_near = client_end;
                    c_far = server_end; c_path = path }
                in
                ignore
                  (World.transmit t.world ~net ~src:mb.mb_machine ~dst:machine ~size:ctl_size
                     (fun () ->
                       Sched.Mailbox.send mb.new_chans server_chan;
                       ignore (Sched.Ivar.try_fill result (Ok client_chan))))
              end
              else
                ignore
                  (World.transmit t.world ~net ~src:mb.mb_machine ~dst:machine ~size:ctl_size
                     (fun () -> ignore (Sched.Ivar.try_fill result (Error Ipcs_error.Refused)))))
        in
        if not sent then Error Ipcs_error.Unreachable
        else begin
          match Sched.Ivar.read ~timeout:timeout_us result with
          | Some r ->
            (match r with
             | Ok _ -> World.record t.world ~cat:"mbx.open" ~actor:machine.name path
             | Error _ -> ());
            r
          | None -> Error Ipcs_error.Timeout
        end))

let accept ?timeout_us (mb : mailbox) =
  if not mb.mb_open then Error Ipcs_error.Closed
  else begin
    match Sched.Mailbox.recv ?timeout:timeout_us mb.new_chans with
    | Some chan -> Ok chan
    | None -> Error Ipcs_error.Timeout
  end

let is_open (c : chan) = c.c_near.ce_open && not c.c_near.ce_peer_gone

let send ?(droppable = false) (c : chan) (data : Bytes.t) =
  (* [droppable]: the caller (the STD-IF, which owns fragmentation) marks
     ring messages that carry one whole ND frame; only those may be dropped,
     duplicated or reordered by an installed fault plane. Fragments of a
     larger frame are not droppable — losing one would wedge reassembly
     rather than model a lost message. *)
  if not c.c_near.ce_open then Error Ipcs_error.Closed
  else if c.c_near.ce_peer_gone then Error Ipcs_error.Closed
  else if Bytes.length data > max_message_size then Error Ipcs_error.Too_big
  else begin
    (* MBX refuses when the destination queue is full *right now*; we check
       at send time (the queue is also bounded at delivery, where overflow
       counts as a drop — both ends of the race are modelled). *)
    if Ntcs_util.Bqueue.is_full c.c_far.inbox then Error Ipcs_error.Queue_full
    else begin
      (* As in Ipcs_tcp.send: a replayable delivery hands over its own copy. *)
      let replayable = droppable && World.faults c.c_stack.world <> None in
      let sent =
        World.transmit ~fifo:c.c_far.ce_fifo ~droppable c.c_stack.world ~net:c.c_net
          ~src:c.c_near.ce_machine ~dst:c.c_far.ce_machine ~size:(Bytes.length data + 24)
          (fun () ->
            if c.c_far.ce_open then begin
              (* lint: allow copies(Bytes.copy) — a replayable delivery hands over its own buffer *)
              let data = if replayable then Bytes.copy data else data in
              if Ntcs_util.Bqueue.push c.c_far.inbox data then
                Sched.Mailbox.send c.c_far.ce_signal ()
            end)
      in
      if sent then Ok ()
      else begin
        c.c_near.ce_peer_gone <- true;
        Error Ipcs_error.Closed
      end
    end
  end

let recv ?timeout_us (c : chan) =
  let sched = World.sched c.c_stack.world in
  let deadline = Option.map (fun d -> Sched.now sched + d) timeout_us in
  let rec loop () =
    match Ntcs_util.Bqueue.pop c.c_near.inbox with
    | Some data -> Ok data
    | None ->
      if c.c_near.ce_peer_gone then Error Ipcs_error.Closed
      else if not c.c_near.ce_open then Error Ipcs_error.Closed
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
          match Sched.Mailbox.recv ?timeout c.c_near.ce_signal with
          | Some () -> loop ()
          | None -> Error Ipcs_error.Timeout)
      end
  in
  loop ()

let close (c : chan) =
  if c.c_near.ce_open then begin
    c.c_near.ce_open <- false;
    ignore
      (World.transmit ~fifo:c.c_far.ce_fifo c.c_stack.world ~net:c.c_net
         ~src:c.c_near.ce_machine ~dst:c.c_far.ce_machine ~size:ctl_size (fun () ->
           c.c_far.ce_peer_gone <- true;
           Sched.Mailbox.send c.c_far.ce_signal ()))
  end

let abort (c : chan) =
  c.c_near.ce_open <- false;
  c.c_near.ce_peer_gone <- true;
  ignore
    (World.transmit ~fifo:c.c_far.ce_fifo c.c_stack.world ~net:c.c_net
       ~src:c.c_near.ce_machine ~dst:c.c_far.ce_machine ~size:ctl_size (fun () ->
         c.c_far.ce_peer_gone <- true;
         Sched.Mailbox.send c.c_far.ce_signal ()))

let chan_id (c : chan) = c.chan_id
