(* Conservative virtual-time barrier coordinator over shard schedulers.

   The parallel-world model (ROADMAP 2): each shard is a complete,
   self-contained scheduler (no shared mutable state between shards — lint
   R8 flags any module-level mutable binding in lib/), and shards exchange
   messages only through typed channels owned by this coordinator. Time
   advances in epochs:

     epoch k:  flush every message posted during epoch k-1 into the
               destination heaps (deterministically sorted), compute
               tmin = min over shards of the earliest pending event,
               set horizon = tmin + quantum, run every shard with
               [Sched.run ~until:horizon] — in parallel when workers > 1.

   Determinism argument. During an epoch a shard only touches its own
   state; cross-shard sends append to the *sending* shard's outbox, which
   no other shard reads until the barrier. At the barrier the coordinator
   (alone) sorts all pending messages by (arrival, src shard, per-src send
   seq) — a total order derived only from virtual time and program order,
   never from wall-clock interleaving — and schedules them with their
   exact arrival timestamps. Because every channel's latency is >= the
   quantum (checked at channel creation), a message sent at virtual time
   tau >= tmin arrives at tau + latency >= tmin + quantum = horizon, i.e.
   never inside the epoch that produced it, so no shard ever needs an
   event it has not yet received. The epoch structure (tmin, horizon,
   flush batches) is therefore a pure function of the program + seeds, and
   a run is bit-identical for any worker count, including workers = 1.

   Worker scheme: shard s runs on worker (s mod workers); workers 1..n-1
   are fresh domains spawned per epoch, worker 0 is the coordinator
   itself. Per-epoch spawn keeps the design free of condition-variable
   pools; epochs are long (a quantum of virtual time) relative to domain
   spawn cost on any topology worth sharding. *)

type msg = {
  bm_arrival : int; (* absolute virtual arrival time at the destination *)
  bm_src : int;
  bm_dst : int;
  bm_seq : int; (* per-src send sequence — third sort key *)
  bm_deliver : unit -> unit;
}

type shard = {
  sh_index : int;
  sh_sched : Sched.t;
  mutable sh_outbox : msg list; (* newest first; only its own worker writes *)
  mutable sh_sent : int;
}

type t = {
  quantum : int;
  shards : shard array;
  mutable epochs : int;
  mutable exchanged : int;
}

let create ~quantum scheds =
  if quantum <= 0 then invalid_arg "Barrier.create: quantum must be positive";
  if Array.length scheds = 0 then invalid_arg "Barrier.create: no shards";
  {
    quantum;
    shards =
      Array.mapi
        (fun i s -> { sh_index = i; sh_sched = s; sh_outbox = []; sh_sent = 0 })
        scheds;
    epochs = 0;
    exchanged = 0;
  }

let epochs t = t.epochs
let messages_exchanged t = t.exchanged

let check_shard t i name =
  if i < 0 || i >= Array.length t.shards then
    invalid_arg (Printf.sprintf "Barrier.%s: no shard %d" name i)

(* Post a cross-shard message from [src]'s running epoch. Appends to the
   sending shard's outbox only, so concurrent epochs never contend; the
   coordinator moves it to [dst]'s heap at the next barrier. [arrival] is
   the absolute virtual delivery time and must be at least quantum past
   the sender's clock — the conservative-lookahead invariant. *)
let post t ~src ~dst ~arrival deliver =
  check_shard t src "post";
  check_shard t dst "post";
  let sh = t.shards.(src) in
  let now = Sched.now sh.sh_sched in
  if arrival < now + t.quantum then
    invalid_arg
      (Printf.sprintf
         "Barrier.post: arrival %d < now %d + quantum %d (lookahead violated)"
         arrival now t.quantum);
  let seq = sh.sh_sent in
  sh.sh_sent <- seq + 1;
  sh.sh_outbox <-
    { bm_arrival = arrival; bm_src = src; bm_dst = dst; bm_seq = seq;
      bm_deliver = deliver }
    :: sh.sh_outbox

(* Barrier flush (coordinator only, between epochs): drain every outbox,
   impose the total order, schedule into destination heaps with exact
   timestamps. Owner 0 (coordinator) is the right attribution for the
   race checker — delivery happens outside any shard process. *)
let flush t =
  let pending =
    Array.to_list t.shards
    |> List.concat_map (fun sh ->
           let msgs = List.rev sh.sh_outbox in
           sh.sh_outbox <- [];
           msgs)
  in
  let sorted =
    List.sort
      (fun a b ->
        match compare a.bm_arrival b.bm_arrival with
        | 0 -> (
          match compare a.bm_src b.bm_src with
          | 0 -> compare a.bm_seq b.bm_seq
          | c -> c)
        | c -> c)
      pending
  in
  List.iter
    (fun m ->
      t.exchanged <- t.exchanged + 1;
      Sched.at t.shards.(m.bm_dst).sh_sched m.bm_arrival m.bm_deliver)
    sorted;
  List.length sorted

let tmin t =
  Array.fold_left
    (fun acc sh ->
      match (Sched.next_event_time sh.sh_sched, acc) with
      | None, acc -> acc
      | Some tm, None -> Some tm
      | Some tm, Some m -> Some (min tm m))
    None t.shards

(* Run one epoch's shard share on this worker: plain sequential runs. *)
let run_share shards ~until = List.iter (fun sh -> Sched.run ~until sh.sh_sched) shards

let run_epoch t ~until ~workers =
  if workers <= 1 || Array.length t.shards <= 1 then
    run_share (Array.to_list t.shards) ~until
  else begin
    let w = min workers (Array.length t.shards) in
    let share k =
      Array.to_list t.shards |> List.filter (fun sh -> sh.sh_index mod w = k)
    in
    (* Workers 1..w-1 are fresh domains; worker 0 is us. Join order is
       fixed, and joins re-raise any shard exception. *)
    let domains =
      List.init (w - 1) (fun i ->
          let shards = share (i + 1) in
          Domain.spawn (fun () -> run_share shards ~until))
    in
    run_share (share 0) ~until;
    List.iter Domain.join domains
  end

let run ?until ?(workers = 1) t =
  let rec loop () =
    ignore (flush t);
    match tmin t with
    | None -> () (* every heap empty and nothing in flight: quiescent *)
    | Some tm -> (
      match until with
      | Some u when tm > u -> ()
      | _ ->
        let horizon = tm + t.quantum in
        let h = match until with Some u -> min horizon u | None -> horizon in
        run_epoch t ~until:h ~workers;
        t.epochs <- t.epochs + 1;
        loop ())
  in
  loop ();
  (* Warp every shard clock to [until] so quiescent-before-the-deadline
     worlds report a common time, exactly like [Sched.run ~until]. *)
  match until with
  | Some u -> Array.iter (fun sh -> Sched.run ~until:u sh.sh_sched) t.shards
  | None -> ()

(* --- typed channels ------------------------------------------------- *)

type barrier = t

module Chan = struct
  type 'a t = {
    ch_barrier : barrier;
    ch_src : int;
    ch_dst : int;
    ch_latency : int;
    mutable ch_handler : ('a -> unit) option;
  }

  let create barrier ~src ~dst ~latency =
    check_shard barrier src "Chan.create";
    check_shard barrier dst "Chan.create";
    if latency < barrier.quantum then
      invalid_arg
        (Printf.sprintf
           "Barrier.Chan.create: latency %d < quantum %d (a channel faster \
            than the barrier quantum would need events from an epoch still \
            running)"
           latency barrier.quantum);
    {
      ch_barrier = barrier;
      ch_src = src;
      ch_dst = dst;
      ch_latency = latency;
      ch_handler = None;
    }

  let set_handler c h = c.ch_handler <- Some h

  let send c v =
    let sched = c.ch_barrier.shards.(c.ch_src).sh_sched in
    let arrival = Sched.now sched + c.ch_latency in
    post c.ch_barrier ~src:c.ch_src ~dst:c.ch_dst ~arrival (fun () ->
        match c.ch_handler with Some h -> h v | None -> ())
end
