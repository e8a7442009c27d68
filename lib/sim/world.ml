(* A simulated world: scheduler + machines + networks + bookkeeping.
   This is the hypothetical multi-machine configuration the paper's figures
   sketch; experiments build one, spawn NTCS modules on its machines and run
   virtual time forward. *)

(* The one world-construction surface. A Config is declarative data
   naming every instrumentation feature (fault plane, race-checker
   request, chooser, naming plane), applied at creation in one fixed order
   instead of per-feature setters a caller would have to sequence by hand.
   It can be stamped out per shard (Config.shard) so the parallel world
   gives every domain an identical-but-decorrelated copy. *)
module Config = struct
  type chooser =
    | Default  (* deterministic (time, seq) order *)
    | Choose of (time:int -> owners:int array -> int)
        (* exploration hook, same contract as Sched.set_chooser; every
           consulted choice is recorded in the world's choice log *)
    | Replay of int list
        (* replay a recorded choice log; exhausted or out-of-range entries
           fall back to owner 0 (the deterministic default) *)

  (* Naming-plane arm (DESIGN.md §15): how many shard name servers the
     deployment builder should stand up, and how large the NSP-side lookup
     caches are. Plain data here — the sim sits below lib/naming and
     lib/core; Cluster.build reads it and does the wiring. *)
  type naming = {
    shards : int; (* 1 = the classic single/replicated name server *)
    cache_capacity : int; (* per-ComMod NSP lookup-cache entries *)
  }

  let default_naming = { shards = 1; cache_capacity = 512 }

  type t = {
    seed : int;
    domains : int; (* shard count for Par worlds; 1 = plain sequential *)
    faults : Faults.spec option; (* declarative plane, armed at creation *)
    chooser : chooser;
    naming : naming; (* naming-plane shape, consumed by Cluster.build *)
  }

  let default =
    {
      seed = 42;
      domains = 1;
      faults = None;
      chooser = Default;
      naming = default_naming;
    }

  (* Per-shard copy: decorrelated seed (prime stride), sequential inside
     the shard. Shard 0 keeps the base seed so a 1-domain Par world is
     the sequential world. *)
  let shard c ~shard = { c with seed = c.seed + (shard * 7919); domains = 1 }
end

type t = {
  sched : Sched.t;
  obs : Ntcs_obs.Registry.t; (* counters, histograms and the one event log *)
  rng : Ntcs_util.Rng.t;
  machines : (Machine.id, Machine.t) Hashtbl.t;
  nets : (Net.id, Net.t) Hashtbl.t;
  attachments : (Machine.id * Net.id, unit) Hashtbl.t;
  proc_machine : (Sched.pid, Machine.id) Hashtbl.t;
  mutable next_machine_id : int;
  mutable next_net_id : int;
  mutable seed : int;
  config : Config.t;
  mutable choices : (int * int) list; (* (choice, arity), newest first *)
  mutable faults : Faults.t option;
  (* Declared shared cells (domain-safety): the world-level mutable state
     every machine's stack can reach. The race checker (Check_race) arms a
     monitor on the scheduler; until then each access note is one option
     match. *)
  c_topology : Sched.cell; (* machines/nets/attachments + up flags *)
  c_procs : Sched.cell; (* pid -> machine table *)
  c_faults : Sched.cell; (* fault-plane partition set + seeded draw state *)
}

(* Record construction only; [create] (below the fault plane, which it
   arms) applies the config. *)
let make (config : Config.t) =
  let seed = config.Config.seed in
  let obs = Ntcs_obs.Registry.create () in
  let sched = Sched.create () in
  {
    sched;
    obs;
    rng = Ntcs_util.Rng.create seed;
    machines = Hashtbl.create 16;
    nets = Hashtbl.create 8;
    attachments = Hashtbl.create 32;
    proc_machine = Hashtbl.create 64;
    next_machine_id = 1;
    next_net_id = 1;
    seed;
    config;
    choices = [];
    faults = None;
    (* Topology is written only by the coordinator (setup, fault schedule,
       test driver), so conflicting accesses must be barrier-ordered. The
       proc table and the fault plane's seeded draw state are sanctioned
       shared state with an explicit migration story (ROADMAP 2). *)
    c_topology = Sched.register_cell sched ~name:"world.topology" ~policy:Sched.Exclusive;
    c_procs =
      Sched.register_cell sched ~name:"world.procs"
        ~policy:
          (Sched.Waived
             "pid-keyed inserts are disjoint; parallel worlds shard the table per \
              domain and merge at virtual-time barriers");
    c_faults =
      Sched.register_cell sched ~name:"world.faults"
        ~policy:
          (Sched.Waived
             "seeded per-frame fault draws serialize on the coordinator until \
              per-link rng streams land (ROADMAP 2)");
  }

let sched t = t.sched
let config t = t.config
let choice_log t = List.rev t.choices
let set_label t l = Sched.set_label t.sched l
let label t = Sched.label t.sched
let obs t = t.obs
let trace t = t.obs
let rng t = t.rng
let now t = Sched.now t.sched

let note t ~cat ~actor detail = Trace.note t.obs ~at_us:(now t) ~cat ~actor detail
let record t ~cat ~actor text = Trace.record t.obs ~at_us:(now t) ~cat ~actor text

let span t ~ctx ~phase ~name ~actor detail =
  Ntcs_obs.Registry.span t.obs
    (Ntcs_obs.Span.event ~at_us:(now t) ~ctx ~phase ~name ~actor detail)

let add_machine t ~name mtype ?(drift_ppm = 0.) ?(offset_us = 0) () =
  Sched.access t.sched t.c_topology ~write:true;
  let id = t.next_machine_id in
  t.next_machine_id <- id + 1;
  let m = Machine.make ~id ~name ~mtype ~drift_ppm ~offset_us () in
  Hashtbl.replace t.machines id m;
  m

let add_net t ~name kind ?latency () =
  Sched.access t.sched t.c_topology ~write:true;
  let id = t.next_net_id in
  t.next_net_id <- id + 1;
  let n = Net.make ~id ~name ~kind ?latency ~seed:(t.seed * 31) () in
  Hashtbl.replace t.nets id n;
  n

let net t id =
  Sched.access t.sched t.c_topology ~write:false;
  Hashtbl.find t.nets id

let attach t (m : Machine.t) (n : Net.t) =
  Sched.access t.sched t.c_topology ~write:true;
  Hashtbl.replace t.attachments (m.id, n.id) ()

let attached t mid nid =
  Sched.access t.sched t.c_topology ~write:false;
  Hashtbl.mem t.attachments (mid, nid)

let nets_of_machine t mid =
  Sched.access t.sched t.c_topology ~write:false;
  Ntcs_util.sorted_bindings t.attachments
  |> List.filter_map (fun ((m, n), ()) -> if m = mid then Some n else None)
  |> List.sort_uniq compare

let common_nets t m1 m2 =
  List.filter (fun n -> attached t m2 n) (nets_of_machine t m1)

let all_machines t =
  List.map snd (Ntcs_util.sorted_bindings t.machines)
  |> List.sort (fun (a : Machine.t) b -> compare a.id b.id)

let all_nets t =
  List.map snd (Ntcs_util.sorted_bindings t.nets)
  |> List.sort (fun (a : Net.t) b -> compare a.id b.id)

let spawn t ~machine:(m : Machine.t) ~name f =
  Sched.access t.sched t.c_procs ~write:true;
  let pid = Sched.spawn ~name t.sched f in
  Hashtbl.replace t.proc_machine pid m.id;
  (* A crashing process would otherwise die silently; make it visible in the
     trace so experiments can assert the absence of crashes. *)
  Sched.on_exit t.sched pid (fun status ->
      match status with
      | Sched.Crashed e -> record t ~cat:"sim.proc_crash" ~actor:name (Printexc.to_string e)
      | Sched.Exited | Sched.Was_killed -> ());
  pid

let procs_on_machine t mid =
  Sched.access t.sched t.c_procs ~write:false;
  Ntcs_util.sorted_bindings t.proc_machine
  |> List.filter_map (fun (pid, m) -> if m = mid then Some pid else None)

let crash_machine t (m : Machine.t) =
  Sched.access t.sched t.c_topology ~write:true;
  m.up <- false;
  record t ~cat:"sim.crash" ~actor:m.name "machine crashed";
  List.iter (fun pid -> Sched.kill t.sched pid) (procs_on_machine t m.id)

let restart_machine t (m : Machine.t) =
  Sched.access t.sched t.c_topology ~write:true;
  m.up <- true

(* --- the fault plane --- *)

let faults t = t.faults

let machine_by_name t name =
  List.find_opt (fun (m : Machine.t) -> m.name = name) (all_machines t)

let net_by_name t name = List.find_opt (fun (n : Net.t) -> n.name = name) (all_nets t)

(* One scheduled fault event fires: resolve the names against this world and
   apply it. Unknown names are traced rather than raised — a schedule is
   data, and exploration reruns must not die on a typo. *)
let apply_fault_event t (f : Faults.t) (ev : Faults.event) =
  (* Labelled [~cat] so every category literal sits at a `~cat:"..."` site
     the R4 manifest lint can see. *)
  let fault_trace ~cat detail = record t ~cat ~actor:"faults" detail in
  match ev with
  | Faults.Crash name -> (
    match machine_by_name t name with
    | Some m ->
      fault_trace ~cat:"fault.crash" name;
      crash_machine t m
    | None -> fault_trace ~cat:"fault.error" ("no such machine: " ^ name))
  | Faults.Restart name -> (
    match machine_by_name t name with
    | Some m ->
      fault_trace ~cat:"fault.restart" name;
      restart_machine t m
    | None -> fault_trace ~cat:"fault.error" ("no such machine: " ^ name))
  | Faults.Partition groups ->
    let ids =
      List.map (List.filter_map (fun name ->
          match machine_by_name t name with
          | Some m -> Some m.Machine.id
          | None ->
            fault_trace ~cat:"fault.error" ("no such machine: " ^ name);
            None))
        groups
    in
    fault_trace ~cat:"fault.partition"
      (String.concat " | " (List.map (String.concat ",") groups));
    Sched.access t.sched t.c_faults ~write:true;
    Faults.block_groups f ids
  | Faults.Heal ->
    fault_trace ~cat:"fault.heal" "";
    Sched.access t.sched t.c_faults ~write:true;
    Faults.clear_partition f
  | Faults.Net_down name -> (
    match net_by_name t name with
    | Some n ->
      fault_trace ~cat:"fault.net_down" name;
      Sched.access t.sched t.c_topology ~write:true;
      n.Net.up <- false
    | None -> fault_trace ~cat:"fault.error" ("no such net: " ^ name))
  | Faults.Net_up name -> (
    match net_by_name t name with
    | Some n ->
      fault_trace ~cat:"fault.net_up" name;
      Sched.access t.sched t.c_topology ~write:true;
      n.Net.up <- true
    | None -> fault_trace ~cat:"fault.error" ("no such net: " ^ name))

(* Arm a fault plane on this world: point its trace emitter at ours and
   register every scheduled event on the scheduler. *)
let install_faults t (f : Faults.t) =
  t.faults <- Some f;
  Faults.set_emit f (fun ~cat ~detail -> record t ~cat ~actor:"faults" detail);
  List.iter
    (fun (at_us, ev) -> Sched.at t.sched at_us (fun () -> apply_fault_event t f ev))
    (Faults.schedule f)

(* Wire the configured chooser into the scheduler, recording every
   consulted choice as (index, arity) in the world's choice log. Replay
   consumes a previously recorded log (choice indices only); exhausted or
   out-of-range entries fall back to 0, the deterministic default, so a
   log recorded on one schedule prefix replays safely on any world. *)
let apply_chooser t =
  match t.config.Config.chooser with
  | Config.Default -> ()
  | Config.Choose f ->
    Sched.set_chooser t.sched
      (Some
         (fun ~time ~owners ->
           let n = Array.length owners in
           let i = f ~time ~owners in
           let i = if i < 0 || i >= n then 0 else i in
           t.choices <- (i, n) :: t.choices;
           i))
  | Config.Replay log ->
    let rem = ref log in
    Sched.set_chooser t.sched
      (Some
         (fun ~time:_ ~owners ->
           let n = Array.length owners in
           let c =
             match !rem with
             | [] -> 0
             | c :: rest ->
               rem := rest;
               c
           in
           let i = if c < 0 || c >= n then 0 else c in
           t.choices <- (i, n) :: t.choices;
           i))

(* The single construction entrypoint: build the record, then apply every
   configured feature in one fixed order (chooser, faults). The race
   checker is not among them: it lives in Ntcs_check, above this library,
   and is armed on a built world by whoever wants it. *)
let create ?(config = Config.default) () =
  let t = make config in
  apply_chooser t;
  (match config.Config.faults with
   | Some (spec : Faults.spec) ->
     install_faults t
       (Faults.create ~rules:spec.Faults.rules ~schedule:spec.Faults.schedule
          ~seed:spec.Faults.seed ())
   | None -> ());
  t

(* Schedule delivery of [size] bytes from [src] to [dst] over [net]; returns
   false when the attempt cannot even leave (partition, crash, detachment).
   The callback re-checks destination liveness at delivery time so a machine
   crashing mid-flight swallows the bytes, like a real wire.

   [fifo], when given, is a per-flow high-water mark: arrival times are
   forced monotone so a flow (e.g. one direction of a TCP connection) never
   reorders even though each transmission draws independent jitter.

   [droppable] marks a transmission carrying one whole, self-contained ND
   frame: only those may be dropped, duplicated or reordered by an installed
   fault plane (losing part of a frame would desynchronise framing, which no
   real network failure produces). A reordered frame is delivered late
   {e without} advancing the flow's high-water mark, so later frames
   overtake it; a delayed frame advances the mark and stalls the flow. *)
let transmit ?fifo ?(droppable = false) t ~net:(n : Net.t) ~src:(src : Machine.t)
    ~dst:(dst : Machine.t) ~size deliver =
  let partitioned =
    Sched.access t.sched t.c_faults ~write:false;
    match t.faults with
    | Some f when Faults.blocked f src.id dst.id ->
      Ntcs_obs.Registry.incr t.obs "fault.blocked_frames";
      true
    | Some _ | None -> false
  in
  Sched.access t.sched t.c_topology ~write:false;
  if
    partitioned || (not src.up) || (not dst.up) || (not n.up)
    || (not (attached t src.id n.id))
    || not (attached t dst.id n.id)
  then false
  else begin
    match Net.latency n ~size with
    | None -> false
    | Some lat ->
      let action =
        match t.faults with
        | Some f when droppable ->
          (* A per-frame rule draw advances the fault plane's rng: a write. *)
          Sched.access t.sched t.c_faults ~write:true;
          Faults.frame_action f ~now:(Sched.now t.sched) ~net:n.id ~src:src.name
            ~dst:dst.name
        | Some _ | None -> Faults.Deliver
      in
      match action with
      | Faults.Drop ->
        (* The bytes left the source and died on the wire: the sender sees
           success, the receiver sees nothing — exactly a lost frame. *)
        Ntcs_obs.Registry.incr t.obs "fault.dropped_frames";
        true
      | Faults.Deliver | Faults.Duplicate | Faults.Delay _ | Faults.Reorder _ ->
        Ntcs_obs.Registry.incr t.obs "net.bytes" ~by:size;
        Ntcs_obs.Registry.incr t.obs "net.frames";
        Ntcs_obs.Registry.observe t.obs "net.frame_bytes" size;
        let natural = Sched.now t.sched + lat in
        let schedule_at arrival =
          Sched.at t.sched arrival (fun () -> if dst.up && n.up then deliver ())
        in
        let fifo_arrival arrival =
          match fifo with
          | Some r ->
            let a = max arrival !r in
            r := a;
            a
          | None -> arrival
        in
        (match action with
         | Faults.Drop -> assert false
         | Faults.Deliver -> schedule_at (fifo_arrival natural)
         | Faults.Duplicate ->
           (* Two copies, in flow order: the duplicate trails the original. *)
           let first = fifo_arrival natural in
           schedule_at first;
           schedule_at (fifo_arrival (first + 1));
           Ntcs_obs.Registry.incr t.obs "fault.duplicated_frames"
         | Faults.Delay extra ->
           schedule_at (fifo_arrival (natural + extra));
           Ntcs_obs.Registry.incr t.obs "fault.delayed_frames"
         | Faults.Reorder extra ->
           (* Late delivery that does not advance the high-water mark: this
              frame still arrives after everything already sent on the flow,
              but later frames overtake it. *)
           let base = match fifo with Some r -> max natural !r | None -> natural in
           schedule_at (base + extra);
           Ntcs_obs.Registry.incr t.obs "fault.reordered_frames");
        true
  end

let run ?until t = Sched.run ?until t.sched

(* --- domain-parallel worlds ----------------------------------------- *)

(* A parallel world is N completely isolated sequential worlds (one per
   shard, each its own scheduler/registry/rng — lint R8 flags any
   module-level mutable binding in lib/) coupled only
   through the Barrier coordinator's typed channels. Everything
   deterministic about one world stays deterministic here: the barrier's
   flush order is a pure function of virtual time and program order, so a
   run is bit-identical for any worker count (see barrier.ml). *)
module Par = struct
  type world = t

  type t = {
    p_config : Config.t;
    p_shards : world array;
    p_barrier : Barrier.t;
  }

  (* Shard i's circuit ids live in [i*stride + 1, ...): merged span logs
     stay world-unique without coordination. 10^6 circuits per shard
     outruns any current workload by ~3 orders of magnitude. *)
  let circuit_stride = 1_000_000

  let create ?(quantum = 1_000) ?shard_config
      (config : Config.t) =
    let n = max 1 config.Config.domains in
    (* [shard_config] overrides the derived per-shard config — the replay
       path needs it to feed shard i its own recorded choice log — but a
       shard world is always sequential, whatever the override says. *)
    let config_of i =
      match shard_config with
      | Some f -> { (f i) with Config.domains = 1 }
      | None -> Config.shard config ~shard:i
    in
    let shards =
      Array.init n (fun i ->
          let w = create ~config:(config_of i) () in
          Sched.set_label w.sched (Printf.sprintf "s%d" i);
          if n > 1 then
            Ntcs_obs.Registry.set_circuit_base w.obs (i * circuit_stride);
          w)
    in
    let barrier = Barrier.create ~quantum (Array.map (fun w -> w.sched) shards) in
    { p_config = config; p_shards = shards; p_barrier = barrier }

  let shards p = p.p_shards
  let shard p i = p.p_shards.(i)
  let shard_count p = Array.length p.p_shards
  let barrier p = p.p_barrier

  let chan p ~src ~dst ~latency = Barrier.Chan.create p.p_barrier ~src ~dst ~latency

  let run ?until ?workers p = Barrier.run ?until ?workers p.p_barrier
  let epochs p = Barrier.epochs p.p_barrier
  let messages_exchanged p = Barrier.messages_exchanged p.p_barrier

  (* A stable sort on virtual time alone keeps the barrier's total order:
     within one instant, shard order, then each shard's program order. *)
  let merged_events p =
    Array.to_list p.p_shards
    |> List.mapi (fun i w -> List.map (fun e -> (i, e)) (Ntcs_obs.Registry.spans w.obs))
    |> List.concat
    |> List.stable_sort (fun (_, (a : Ntcs_obs.Span.event)) (_, (b : Ntcs_obs.Span.event)) ->
           compare a.Ntcs_obs.Span.ev_at_us b.Ntcs_obs.Span.ev_at_us)

  let blocked_processes p =
    Array.to_list p.p_shards
    |> List.concat_map (fun w -> Sched.blocked_processes w.sched)
    |> List.sort String.compare

  let choice_logs p = Array.map choice_log p.p_shards

end
