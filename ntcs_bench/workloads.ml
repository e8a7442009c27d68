(* The five ntcs_bench workloads. Every one is a closed loop: each client
   issues its next op only when the previous one has completed, so a slower
   stack receives less load rather than a growing queue.

   A run is a sequence of repetitions. Each repetition builds a fresh world
   from the run's seed (so every repetition performs exactly the same
   simulated work), warms it up, times a fixed number of ops, and discards
   it. Repeating whole worlds rather than growing one keeps memory bounded
   (the trace and the span log are append-only) and gives set-up time one
   sample per repetition. *)

open Ntcs
module World = Ntcs_sim.World
module Sched = Ntcs_sim.Sched
module Registry = Ntcs_obs.Registry

(* --- deterministic counts read off a world --- *)

let count_names =
  [|
    "sched.events"; "nd.frames_sent"; "frame.bytes_copied"; "pool.hits"; "pool.misses";
    "gw.forwards"; "nsp.cache_hits"; "nsp.cache_stale"; "nsp.cache_misses"; "ns.lookups";
    "ns.shard.forwards"; "lcm.retries"; "ip.opens"; "trace.entries"; "obs.spans";
  |]

let count_index name =
  let rec go i = if count_names.(i) = name then i else go (i + 1) in
  go 0

let histo_of r name f = match Registry.find_histo r name with Some h -> f h | None -> 0

let read_counts w =
  let r = World.obs w in
  Array.map
    (function
      | "sched.events" -> Sched.events_executed (World.sched w)
      | "frame.bytes_copied" -> histo_of r "frame.bytes_copied" Ntcs_obs.Histo.sum
      | "ip.opens" -> histo_of r "ip.open_us" Ntcs_obs.Histo.count
      | "trace.entries" -> Ntcs_sim.Trace.count (World.trace w)
      | "obs.spans" -> Registry.span_count r
      | name -> Registry.get r name)
    count_names

let sub a b = Array.mapi (fun i x -> x - b.(i)) a
let add a b = Array.mapi (fun i x -> x + b.(i)) a
let high_water w = Registry.gauge (World.obs w) "pool.high_water"

(* Minor words allocated by every domain, exact: a forced minor collection
   first folds each domain's young allocation into the shared counter. *)
let minor_words_all () =
  Gc.minor ();
  (Gc.quick_stat ()).Gc.minor_words

(* --- one repetition's result --- *)

type rep = {
  setup_ns : float;  (** fresh world to the first timed op *)
  attempted : int;
  failed : int;
  wall_ns : float;  (** harness wall of the timed phase *)
  minor_words : float;
  counts : int array;  (** [count_names] deltas over the timed phase *)
  pool_high_water : float;
  epochs : int;  (** barrier epochs over the timed phase *)
  domains : int;
  explore : float array;  (** fault-soak: sc_make ns, body ns, choice points *)
  role_ns : float array;  (** per {!Meter.roles}, metered repetitions only *)
  role_words : float array;
}

(* What a repetition is for: one of a run's timed repetitions (--trace 0),
   or the untraced or the metered half of a breakdown pair (--trace 1). *)
type pass = Timed | Twin | Metered

exception Setup_failed of string

let setup_fail fmt = Printf.ksprintf (fun s -> raise (Setup_failed s)) fmt
let no_roles = Array.make (List.length Meter.roles) 0.

(* --- the client protocol shared by the single-world workloads --- *)

type client = {
  mutable warm : bool;
  mutable finished : bool;
  mutable bad : int;
  mutable error : string option;
  go : unit Sched.Ivar.ivar;
}

let new_client sched = { warm = false; finished = false; bad = 0; error = None; go = Sched.Ivar.create sched }

(* Run a client body, turning any exception into the client's error so
   the harness stops stepping instead of waiting for a dead process. *)
let guard st body =
  try body () with
  | Setup_failed e -> st.error <- Some e
  | e -> st.error <- Some (Printexc.to_string e)

(* Warm up untimed, report ready, wait for the harness, then time [ops]
   ops. [op i] performs op [i] of the repetition's fixed sequence and says
   whether its result was correct. *)
let client_loop st ~sched ~sampler ~warmup ~ops op =
  for i = 0 to warmup - 1 do
    if not (op i) then st.bad <- st.bad + 1
  done;
  if st.bad > 0 then st.error <- Some (Printf.sprintf "%d warm-up op(s) failed" st.bad);
  st.bad <- 0;
  st.warm <- true;
  ignore (Sched.Ivar.read st.go);
  for i = warmup to warmup + ops - 1 do
    let v0 = Sched.now sched in
    let t0 = Sampler.now_ns () in
    let ok = op i in
    let t1 = Sampler.now_ns () in
    Sampler.record sampler ~t0 ~t1 ~virt_us:(Sched.now sched - v0);
    if not ok then st.bad <- st.bad + 1
  done;
  st.finished <- true

(* Locate [service], retrying while the server is still booting, and hand
   the address to [k]. *)
let with_located commod ~sched service k =
  let rec attempt n =
    match Ali_layer.locate commod service with
    | Ok addr -> k addr
    | Error e ->
      if n = 0 then setup_fail "locate %s: %s" service (Errors.to_string e)
      else begin
        Sched.sleep sched 200_000;
        attempt (n - 1)
      end
  in
  attempt 100

(* Kill every live process of a world that is about to be dropped, and run
   the kills. A process blocked forever (a server loop, an ND reader) holds
   a suspended fiber whose stack is freed only when the fiber is resumed,
   so without this every discarded world would leak its servers' stacks. *)
let teardown sched =
  Sched.set_chooser sched None;
  let rec round k =
    let pid = ref 1 in
    while Sched.proc_name sched !pid <> None do
      if Sched.alive sched !pid then Sched.kill sched !pid;
      incr pid
    done;
    Sched.run ~until:(Sched.now sched) sched;
    if k > 0 && Sched.live_processes sched > 0 then round (k - 1)
  in
  round 3

let step_until sched ~limit_us cond what =
  while not (cond ()) do
    if Sched.now sched > limit_us then setup_fail "%s: no progress by %d us" what limit_us;
    if not (Sched.step sched) then setup_fail "%s: world went quiescent" what
  done

(* The single-world harness: build, warm up, then meter (if [Metered]) and
   time exactly the client's [ops] ops. *)
let single_world ~pass ~sampler ~ops ~(build : unit -> World.t * client) =
  Gc.compact ();
  Sampler.reserve sampler ops;
  let t0 = Sampler.now_ns () in
  let w, st = build () in
  let sched = World.sched w in
  step_until sched ~limit_us:600_000_000 (fun () -> st.warm || st.error <> None) "warm-up";
  Option.iter (fun e -> setup_fail "%s" e) st.error;
  let t_ready = Sampler.now_ns () in
  let meter = if pass = Metered then Some (Meter.create ()) else None in
  Option.iter (fun m -> Meter.install m sched) meter;
  let q0 = minor_words_all () in
  let c0 = read_counts w in
  Option.iter Meter.start meter;
  let t_go = Sampler.now_ns () in
  Sampler.begin_phase sampler ~at:t_go;
  Sched.Ivar.fill st.go ();
  step_until sched ~limit_us:max_int (fun () -> st.finished || st.error <> None) "timed phase";
  Option.iter (fun e -> setup_fail "%s" e) st.error;
  let t_end = Sampler.now_ns () in
  Sampler.end_phase sampler ~at:t_end;
  Option.iter Meter.stop meter;
  let q1 = minor_words_all () in
  let counts = sub (read_counts w) c0 in
  Option.iter (fun m -> Meter.fold m sched; Sched.set_monitor sched None) meter;
  teardown sched;
  {
    setup_ns = float_of_int (t_ready - t0);
    attempted = ops;
    failed = st.bad;
    wall_ns = float_of_int (t_end - t_go);
    minor_words = q1 -. q0;
    counts;
    pool_high_water = high_water w;
    epochs = 0;
    domains = 1;
    explore = [| 0.; 0.; 0. |];
    role_ns = (match meter with Some m -> Array.copy m.Meter.role_ns | None -> no_roles);
    role_words = (match meter with Some m -> Array.copy m.Meter.role_words | None -> no_roles);
  }

let config seed = { World.Config.default with World.Config.seed }
let raw s = Ntcs_wire.Convert.payload_raw (Bytes.of_string s)
let ok_reply = Bytes.of_string "ok"
let timeout_us = 30_000_000

(* Echo server: answer every synchronous call with "ok". *)
let spawn_echo ?(boot_us = 0) c ~machine ~name =
  ignore
    (Cluster.spawn c ~machine ~name (fun node ->
         if boot_us > 0 then Sched.sleep (Node.sched node) boot_us;
         match Commod.bind node ~name with
         | Error e -> setup_fail "echo bind: %s" (Errors.to_string e)
         | Ok commod ->
           let ok = raw "ok" in
           let rec loop () =
             (match Ali_layer.receive commod with
              | Ok env when Ali_layer.expects_reply env -> ignore (Ali_layer.reply commod env ok)
              | Ok _ | Error _ -> ());
             loop ()
           in
           loop ()))

let echo_op commod ~dst payload _ =
  match Ali_layer.send_sync commod ~dst ~timeout_us payload with
  | Ok env -> Bytes.equal env.Ali_layer.data ok_reply
  | Error _ -> false

(* A client process running [client_loop] against the echo service. *)
let spawn_echo_client c ~machine ~st ~sampler ~warmup ~ops payload =
  ignore
    (Cluster.spawn c ~machine ~name:"client" (fun node ->
         let sched = Node.sched node in
         guard st (fun () ->
             match Commod.bind node ~name:"client" with
             | Error e -> setup_fail "client bind: %s" (Errors.to_string e)
             | Ok commod ->
               with_located commod ~sched "echo" (fun dst ->
                   client_loop st ~sched ~sampler ~warmup ~ops (echo_op commod ~dst payload)))))

(* --- echo-lan: Sun3 -> Sun3 on one LAN, 64 B raw payload --- *)

(* NS on vax1, the echo server on sun1; the client goes on sun2. *)
let lan_echo_cluster seed =
  let c =
    Cluster.build ~config:(config seed)
      ~nets:[ ("ether", Ntcs_sim.Net.Tcp_lan) ]
      ~machines:
        [
          ("vax1", Ntcs_sim.Machine.Vax, [ "ether" ]);
          ("sun1", Ntcs_sim.Machine.Sun3, [ "ether" ]);
          ("sun2", Ntcs_sim.Machine.Sun3, [ "ether" ]);
        ]
      ~ns:"vax1" ()
  in
  Cluster.settle c;
  spawn_echo c ~machine:"sun1" ~name:"echo";
  c

let echo_lan ~seed ~pass ~sampler ~warmup ~ops =
  single_world ~pass ~sampler ~ops ~build:(fun () ->
      let c = lan_echo_cluster seed in
      let st = new_client (Cluster.sched c) in
      spawn_echo_client c ~machine:"sun2" ~st ~sampler ~warmup ~ops (raw (String.make 64 'x'));
      (Cluster.world c, st))

(* --- echo-3gw: Sun3 client, Vax server three gateways away, 256 B
   structured payload (the byte orders differ, so it travels packed) --- *)

let payload_256 =
  let len = 256 in
  let layout =
    List.init (len / 8) (fun _ -> Ntcs_wire.Layout.F_i32) @ [ Ntcs_wire.Layout.F_char_array (len / 2) ]
  in
  let values =
    List.map
      (function
        | Ntcs_wire.Layout.F_i32 -> Ntcs_wire.Layout.V_int 305419896
        | Ntcs_wire.Layout.F_char_array n -> Ntcs_wire.Layout.V_str (String.make (n - 1) 'x')
        | Ntcs_wire.Layout.F_i8 | Ntcs_wire.Layout.F_i16 | Ntcs_wire.Layout.F_i64 ->
          Ntcs_wire.Layout.V_int 0)
      layout
  in
  (layout, values)

let structured_payload () =
  let layout, values = payload_256 in
  Ntcs_wire.Convert.payload
    ~image:(fun () -> Ntcs_wire.Layout.encode ~order:Ntcs_wire.Endian.Be layout values)
    ~packed:(fun () -> Ntcs_wire.Packed.run_pack (Ntcs_wire.Packed.of_layout layout) values)

let echo_3gw ~seed ~pass ~sampler ~warmup ~ops =
  let hops = 3 in
  let lan i = Printf.sprintf "lan%d" i in
  single_world ~pass ~sampler ~ops ~build:(fun () ->
      let c =
        Cluster.build ~config:(config seed)
          ~nets:(List.init (hops + 1) (fun i -> (lan i, Ntcs_sim.Net.Tcp_lan)))
          ~machines:
            (("client-m", Ntcs_sim.Machine.Sun3, [ lan 0 ])
            :: ("ns-m", Ntcs_sim.Machine.Vax, [ lan 0 ])
            :: ("srv-m", Ntcs_sim.Machine.Vax, [ lan hops ])
            :: List.init hops (fun i ->
                   (Printf.sprintf "gwm%d" i, Ntcs_sim.Machine.Sun3, [ lan i; lan (i + 1) ])))
          ~gateways:
            (List.init hops (fun i ->
                 (Printf.sprintf "gw%d" i, Printf.sprintf "gwm%d" i, [ lan i; lan (i + 1) ])))
          ~ns:"ns-m" ()
      in
      Cluster.settle c;
      spawn_echo c ~machine:"srv-m" ~name:"echo";
      let st = new_client (Cluster.sched c) in
      spawn_echo_client c ~machine:"client-m" ~st ~sampler ~warmup ~ops (structured_payload ());
      (Cluster.world c, st))

(* --- naming-mix: 4-shard plane, Zipf(1) locates mixed with writes --- *)

let svc_names = 4096
let live_tmp = 64

(* Op [i] of the mix: [k >= 0] locates svc-[k]; [-1] is a write. Every
   20th op writes, so each repetition's write share is exactly 5% and the
   seed only draws which names are located (Zipf ranks over a seeded
   permutation), before the world exists. *)
let naming_ops ~seed n =
  let names = svc_names in
  let rng = Random.State.make [| seed; 0x4E4D |] in
  let perm = Array.init names Fun.id in
  for i = names - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = perm.(i) in
    perm.(i) <- perm.(j);
    perm.(j) <- t
  done;
  let cdf = Array.make names 0. in
  let acc = ref 0. in
  for k = 0 to names - 1 do
    acc := !acc +. (1. /. float_of_int (k + 1));
    cdf.(k) <- !acc
  done;
  let zipf () =
    let u = Random.State.float rng !acc in
    let lo = ref 0 and hi = ref (names - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cdf.(mid) < u then lo := mid + 1 else hi := mid
    done;
    perm.(!lo)
  in
  Array.init n (fun i -> if i mod 20 = 19 then -1 else zipf ())

let naming_mix ~seed ~pass ~sampler ~warmup ~ops =
  let mix = naming_ops ~seed (warmup + ops) in
  let svc = Array.init svc_names (Printf.sprintf "svc-%d") in
  single_world ~pass ~sampler ~ops ~build:(fun () ->
      let c =
        Cluster.build
          ~config:
            {
              (config seed) with
              World.Config.naming = { World.Config.shards = 4; cache_capacity = 512 };
            }
          ~nets:[ ("ether", Ntcs_sim.Net.Tcp_lan) ]
          ~machines:
            [
              ("vax1", Ntcs_sim.Machine.Vax, [ "ether" ]);
              ("sun1", Ntcs_sim.Machine.Sun3, [ "ether" ]);
              ("sun2", Ntcs_sim.Machine.Sun3, [ "ether" ]);
              ("ap1", Ntcs_sim.Machine.Apollo, [ "ether" ]);
            ]
          ~ns:"vax1" ~ns_replicas:[ "sun1"; "sun2" ] ()
      in
      Cluster.settle c;
      (* The svc names go straight into their owning shard's database:
         registering 4096 names over the protocol took 0.2 s per
         repetition, leaving too few repetitions to rank by host speed.
         The mix's writes still register and deregister over the
         protocol. *)
      let owned = Hashtbl.create svc_names in
      List.iter
        (fun ns ->
          Name_server.preload ns
            (List.filter_map
               (fun name -> if Name_server.owns ns name then Some (name, []) else None)
               (Array.to_list svc));
          List.iter
            (fun (e : Ns_proto.entry) -> Hashtbl.replace owned e.e_name e.e_addr)
            (Name_server.dump ns))
        (Cluster.name_servers c);
      let addrs =
        Array.map
          (fun name ->
            match Hashtbl.find_opt owned name with
            | Some a -> a
            | None -> setup_fail "no shard owns %s" name)
          svc
      in
      let st = new_client (Cluster.sched c) in
      ignore
        (Cluster.spawn c ~machine:"ap1" ~name:"client" (fun node ->
             let sched = Node.sched node in
             guard st (fun () ->
                 match Commod.bind node ~name:"client" with
                 | Error e -> setup_fail "client bind: %s" (Errors.to_string e)
                 | Ok commod ->
                   let nsp = Commod.nsp_exn commod in
                   let phys = Nd_layer.my_listen_addrs (Commod.nd commod) in
                   let nets = Node.my_nets node and order = Node.my_order node in
                   let register name = Nsp_layer.register nsp ~name ~phys ~nets ~order ~attrs:[] in
                   let tmp = Queue.create () in
                   let writes = ref 0 in
                   let write () =
                     let name = Printf.sprintf "tmp-%d" !writes in
                     incr writes;
                     match register name with
                     | Error _ -> false
                     | Ok a ->
                       Queue.push a tmp;
                       Queue.length tmp <= live_tmp
                       || Result.is_ok (Nsp_layer.deregister nsp (Queue.pop tmp))
                   in
                   for _ = 1 to live_tmp do
                     if not (write ()) then setup_fail "initial tmp registration"
                   done;
                   client_loop st ~sched ~sampler ~warmup ~ops (fun i ->
                       let k = mix.(i) in
                       if k < 0 then write ()
                       else
                         match Ali_layer.locate commod svc.(k) with
                         | Ok a -> Addr.equal a addrs.(k)
                         | Error _ -> false))));
      (Cluster.world c, st))

(* --- fault-soak: the checker's fault scenarios under Explore --- *)

let soak_scenarios =
  Check_scenarios.[ fault_crash_restart; naming_stale_splice; naming_shard_loss ]

(* Totals over the timed schedules. An all-float record is stored flat, so
   updating it allocates nothing. *)
type soak_acc = {
  mutable make_ns : float;  (** in [sc_make]: building the world *)
  mutable body_ns : float;  (** running the schedule and its checks *)
  mutable high_water : float;
  mutable harness_ns : float;  (** world teardown, excluded from the ops *)
  mutable harness_words : float;  (** teardown and meter classification *)
}

(* One op is one explored schedule; each rebuilds its world, so set-up of
   the workload itself is only a short untimed exploration per scenario
   (code and allocator warm-up). [ops] is split evenly over the three
   scenarios. *)
let fault_soak ~pass ~sampler ~warmup ~ops =
  Gc.compact ();
  let per = max 1 (ops / List.length soak_scenarios) in
  Sampler.reserve sampler (per * List.length soak_scenarios);
  let explore ?acc ?meter sc ~budget =
    let make () =
      let t0 = Sampler.now_ns () in
      (match meter with Some m -> Meter.start m | None -> ());
      let w, body = sc.Check_scenarios.sc_make Check_scenarios.Mode.default in
      let sched = World.sched w in
      (match meter with Some m -> Meter.install m sched | None -> ());
      let t1 = Sampler.now_ns () in
      ( sched,
        fun () ->
          let violations = body () in
          let t2 = Sampler.now_ns () in
          (* The meter's classification and the teardown are the
             harness's work: keep them out of the ops' time and words. *)
          let w0 = Gc.minor_words () in
          (match meter with
           | Some m ->
             Meter.stop ~to_coord:true m;
             Meter.fold m sched
           | None -> ());
          Sched.set_monitor sched None;
          (match acc with
           | None -> ()
           | Some (a, totals) ->
             Sampler.record sampler ~t0 ~t1:t2 ~virt_us:(World.now w);
             a.make_ns <- a.make_ns +. float_of_int (t1 - t0);
             a.body_ns <- a.body_ns +. float_of_int (t2 - t1);
             a.high_water <- Float.max a.high_water (high_water w);
             Array.iteri (fun i x -> totals.(i) <- totals.(i) + x) (read_counts w));
          teardown sched;
          (match acc with
           | None -> ()
           | Some (a, _) ->
             a.harness_ns <- a.harness_ns +. float_of_int (Sampler.now_ns () - t2);
             a.harness_words <- a.harness_words +. (Gc.minor_words () -. w0));
          violations )
    in
    Ntcs_sim.Explore.run ~max_schedules:budget
      ~branch:(fun ~time ~owners:_ ->
        time >= sc.Check_scenarios.sc_from && time < sc.Check_scenarios.sc_until)
      ~make ()
  in
  let t0 = Sampler.now_ns () in
  List.iter
    (fun sc ->
      if (explore sc ~budget:warmup).Ntcs_sim.Explore.failures <> [] then
        setup_fail "%s: warm-up schedules failed" sc.Check_scenarios.sc_name)
    soak_scenarios;
  let t_ready = Sampler.now_ns () in
  let meter = if pass = Metered then Some (Meter.create ()) else None in
  let a = { make_ns = 0.; body_ns = 0.; high_water = 0.; harness_ns = 0.; harness_words = 0. } in
  let totals = Array.make (Array.length count_names) 0 in
  let q0 = minor_words_all () in
  let t_go = Sampler.now_ns () in
  Sampler.begin_phase sampler ~at:t_go;
  let outcomes =
    List.map (fun sc -> explore ~acc:(a, totals) ?meter sc ~budget:per) soak_scenarios
  in
  let t_end = Sampler.now_ns () - int_of_float a.harness_ns in
  Sampler.end_phase sampler ~at:t_end;
  let q1 = minor_words_all () in
  let attempted = List.fold_left (fun n o -> n + o.Ntcs_sim.Explore.schedules) 0 outcomes in
  let failed =
    List.fold_left
      (fun n o ->
        n + List.length (List.sort_uniq compare (List.map fst o.Ntcs_sim.Explore.failures)))
      0 outcomes
  in
  let choice_points =
    List.fold_left (fun n o -> n + o.Ntcs_sim.Explore.choice_points) 0 outcomes
  in
  {
    setup_ns = float_of_int (t_ready - t0);
    attempted;
    failed;
    wall_ns = float_of_int (t_end - t_go);
    minor_words = q1 -. q0 -. a.harness_words;
    counts = totals;
    pool_high_water = a.high_water;
    epochs = 0;
    domains = 1;
    explore = [| a.make_ns; a.body_ns; float_of_int choice_points |];
    role_ns = (match meter with Some m -> Array.copy m.Meter.role_ns | None -> no_roles);
    role_words = (match meter with Some m -> Array.copy m.Meter.role_words | None -> no_roles);
  }

(* --- ring-par: two coupled shards of the ether+ring topology, a barrier
   token after every call --- *)

let par_quantum = 5_000

(* Timed repetitions run both shards on one domain; breakdown pairs run
   them on two. On the 2-vCPU host the bounds were measured on, a
   two-domain run needs both vCPUs fast at once, and its wall time moved by
   30% between ten-minute periods, more than any regression bound can
   absorb. The simulated work is bit-identical for every worker count, so
   the counts of both kinds of run agree; the traced run shows what two
   domains cost ([barrier.overhead_pct]). *)
let ring_par ~seed ~pass ~sampler ~warmup ~ops =
  let module Par = World.Par in
  let workers = if pass = Timed then 1 else 2 in
  Gc.compact ();
  let t0 = Sampler.now_ns () in
  let p = Par.create ~quantum:par_quantum { (config seed) with World.Config.domains = 2 } in
  let n = Par.shard_count p in
  let samplers = Array.init n (fun _ -> Sampler.create ()) in
  Array.iter (fun s -> Sampler.reserve s ops) samplers;
  let clients =
    Array.init n (fun i ->
        let c =
          Cluster.build ~world:(Par.shard p i)
            ~nets:[ ("ether", Ntcs_sim.Net.Tcp_lan); ("ring", Ntcs_sim.Net.Mbx_ring) ]
            ~machines:
              [
                ("vax1", Ntcs_sim.Machine.Vax, [ "ether" ]);
                ("bridge", Ntcs_sim.Machine.Sun3, [ "ether"; "ring" ]);
                ("ap1", Ntcs_sim.Machine.Apollo, [ "ring" ]);
                ("sun1", Ntcs_sim.Machine.Sun3, [ "ether" ]);
              ]
            ~gateways:[ ("bridge-gw", "bridge", [ "ether"; "ring" ]) ]
            ~ns:"vax1" ()
        in
        let out = Par.chan p ~src:i ~dst:((i + 1) mod n) ~latency:par_quantum in
        let dst = Par.shard p ((i + 1) mod n) in
        Ntcs_sim.Barrier.Chan.set_handler out (fun k ->
            World.record dst ~cat:"par.token" ~actor:"bench" (string_of_int k));
        let st = new_client (Cluster.sched c) in
        (* Shards boot inside the barrier, so servers wait out the name
           server's boot in virtual time instead of a [Cluster.settle]. *)
        spawn_echo ~boot_us:2_000_000 c ~machine:"ap1" ~name:"echo";
        ignore
          (Cluster.spawn c ~machine:"sun1" ~name:"client" (fun node ->
               let sched = Node.sched node in
               Sched.sleep sched 2_500_000;
               guard st (fun () ->
                   match Commod.bind node ~name:"client" with
                   | Error e -> setup_fail "client bind: %s" (Errors.to_string e)
                   | Ok commod ->
                     with_located commod ~sched "echo" (fun dst ->
                         let payload = raw "x" in
                         client_loop st ~sched ~sampler:samplers.(i) ~warmup ~ops (fun k ->
                             let ok = echo_op commod ~dst payload k in
                             Ntcs_sim.Barrier.Chan.send out k;
                             ok)))));
        st)
  in
  let vt = ref 0 in
  let check_errors () = Array.iter (fun st -> Option.iter (fun e -> setup_fail "%s" e) st.error) clients in
  let run_until cond what =
    while not (cond ()) do
      check_errors ();
      if !vt > 600_000_000 && not (Array.for_all (fun st -> st.warm) clients) then
        setup_fail "%s: no progress" what;
      vt := !vt + 10_000;
      Par.run ~until:!vt ~workers p
    done;
    check_errors ()
  in
  run_until (fun () -> Array.for_all (fun st -> st.warm) clients) "warm-up";
  let t_ready = Sampler.now_ns () in
  let shards = Par.shards p in
  let meters =
    if pass = Metered then
      Some (Array.map (fun _ -> Meter.create ~epoch:(fun () -> Par.epochs p) ()) shards)
    else None
  in
  Option.iter (Array.iteri (fun i m -> Meter.install m (World.sched shards.(i)))) meters;
  let q0 = minor_words_all () in
  let c0 = Array.map read_counts shards in
  let e0 = Par.epochs p in
  Option.iter (Array.iter Meter.start) meters;
  let t_go = Sampler.now_ns () in
  Array.iter (fun st -> Sched.Ivar.fill st.go ()) clients;
  run_until (fun () -> Array.for_all (fun st -> st.finished) clients) "timed phase";
  let t_end = Sampler.now_ns () in
  Option.iter (Array.iter Meter.stop) meters;
  let q1 = minor_words_all () in
  let counts =
    Array.fold_left add
      (Array.make (Array.length count_names) 0)
      (Array.mapi (fun i w -> sub (read_counts w) c0.(i)) shards)
  in
  Sampler.absorb sampler (Array.to_list samplers) ~wall_ns:(t_end - t_go);
  Option.iter (Array.iteri (fun i m -> Meter.fold m (World.sched shards.(i)))) meters;
  let roles f =
    match meters with
    | None -> no_roles
    | Some ms -> Array.fold_left (fun acc m -> Array.map2 ( +. ) acc (f m)) no_roles ms
  in
  let role_ns = roles (fun m -> m.Meter.role_ns) in
  let role_words = roles (fun m -> m.Meter.role_words) in
  Array.iter (fun w -> teardown (World.sched w)) shards;
  {
    setup_ns = float_of_int (t_ready - t0);
    attempted = n * ops;
    failed = Array.fold_left (fun acc st -> acc + st.bad) 0 clients;
    wall_ns = float_of_int (t_end - t_go);
    minor_words = q1 -. q0;
    counts;
    pool_high_water = Array.fold_left (fun acc w -> Float.max acc (high_water w)) 0. shards;
    epochs = Par.epochs p - e0;
    domains = workers;
    explore = [| 0.; 0.; 0. |];
    role_ns;
    role_words;
  }
