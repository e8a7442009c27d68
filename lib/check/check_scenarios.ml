(* Bounded scenarios for exhaustive schedule exploration.

   Each scenario builds a small cluster from scratch (Explore reruns it once
   per schedule), drives one protocol exchange to completion, and reports
   every invariant violation observable from that schedule:

   - the R3 trace invariants (no gateway peering, bounded recursion, no
     identity conversion) from the PR 1 linter;
   - the circuit-lifecycle automaton over the same trace (Check_lifecycle);
   - simulated process crashes;
   - the scenario's own outcome (the exchange must end the way the protocol
     promises, on *every* schedule, not just the default one).

   first_send crosses a prime gateway so chained opens, splices and
   forwards — the interesting lifecycle traffic — actually occur. break_ns
   is the §6.3 pathology under the LCM guard: partition the name server
   mid-run and insist the fault stays bounded on every interleaving. *)

open Ntcs

(* The instrumentation mode is the scheduler's own canonical record now
   (PR 8) — this harness used to carry its own {m_sanitize; m_races}
   copy. Still threaded explicitly through every scenario build: a
   module-level flag here would itself be ambient shared state, exactly
   what R8 forbids. *)
module Mode = Ntcs_sim.Sched.Mode

type scenario = {
  sc_name : string;
  sc_from : int;
  sc_until : int;
      (* [sc_from, sc_until): the virtual-time window whose ties are
         branched on. The world boots deterministically before it, and
         steady-state maintenance timers (whose ties recur every period,
         forever) run in default order after it — the window is chosen to
         contain the whole exchange under test, so every interleaving of
         the interesting events is still covered while the tree stays
         finite. *)
  sc_make : Mode.t -> Ntcs_sim.World.t * (unit -> string list);
}

(* The world configuration a mode asks for: sanitizer armed declaratively
   at creation (before any hand-out), fault plane likewise. [races] rides
   in the config too, but arming the checker is this library's job (the
   sim layer sits below Check_race) — see [built]. *)
let config_of_mode ?faults ?(naming = Ntcs_sim.World.Config.default_naming)
    (mode : Mode.t) =
  {
    Ntcs_sim.World.Config.default with
    Ntcs_sim.World.Config.sanitize = mode.Mode.sanitize;
    races = mode.Mode.races;
    faults;
    naming;
  }

let payload s = Ntcs_wire.Convert.payload_raw (Bytes.of_string s)

(* Echo responder; bind failures surface as violations, not exceptions. *)
let spawn_echo c ~machine ~name errs =
  ignore
    (Cluster.spawn c ~machine ~name (fun node ->
         match Commod.bind node ~name with
         | Error e -> errs := Printf.sprintf "echo bind: %s" (Errors.to_string e) :: !errs
         | Ok commod ->
           let rec loop () =
             (match Ali_layer.receive commod with
              | Ok env ->
                if Ali_layer.expects_reply env then
                  ignore
                    (Ali_layer.reply commod env
                       (Ntcs_wire.Convert.payload_raw
                          (Bytes.cat (Bytes.of_string "echo:") env.Ali_layer.data)))
              | Error _ -> ());
             loop ()
           in
           loop ()))

(* Arm the race checker right after the world is built — before any event
   executes, so it sees every push from the first one on. (The sanitizer
   needs no step here: [config_of_mode] arms it inside [World.create].) *)
let built (mode : Mode.t) c =
  if mode.Mode.races then ignore (Check_race.arm (Cluster.world c));
  c

(* Pool sanitizer armed (as `ntcs_check` arms it on every world): fail
   the schedule on any aliasing violation (poison, double release, foreign
   release, rejected release). Leaks are *reported* (as
   pool.sanitizer.leak trace events) but are not failures: when virtual
   time stops, crashed machines and undrained in-flight segments
   legitimately still hold buffers. *)
let sanitizer_violations (mode : Mode.t) c =
  if not mode.Mode.sanitize then []
  else begin
    ignore (Ntcs_sim.World.pool_leak_check (Cluster.world c));
    List.concat_map
      (fun (name, what) ->
        let n = Ntcs_obs.Registry.get (Cluster.metrics c) name in
        if n > 0 then [ Printf.sprintf "pool sanitizer: %d %s" n what ] else [])
      [
        ("pool.sanitizer.poison", "buffer(s) written through a stale view");
        ("pool.sanitizer.double_release", "double release(s)");
        ("pool.sanitizer.foreign_release", "foreign release(s)");
        ("pool.bad_release", "rejected release(s)");
      ]
  end

(* Race checker armed (as `ntcs_check` arms it on every world): any
   conflicting access pair the happens-before checker could not order
   fails the schedule. The checker already deduplicates (one finding per
   cell/owner/kind pattern) and emits each as a race.conflict trace event,
   so the trace is the report. *)
let race_violations (mode : Mode.t) c =
  if not mode.Mode.races then []
  else
    List.map
      (fun (e : Ntcs_sim.Trace.entry) -> Printf.sprintf "race: %s" e.detail)
      (Ntcs_sim.Trace.matching (Ntcs_sim.World.trace (Cluster.world c)) ~cat:"race.conflict")

(* Everything checkable after a schedule ran. *)
let trace_violations ?recursion_limit mode c =
  let entries = Ntcs_sim.Trace.entries (Ntcs_sim.World.trace (Cluster.world c)) in
  let r3 =
    List.map
      (fun v -> Format.asprintf "%a" Lint_trace.pp_violation v)
      (Lint_trace.check_all ?recursion_limit entries)
  in
  let lifecycle =
    List.map
      (fun v -> Format.asprintf "%a" Lint_trace.pp_violation v)
      (Check_lifecycle.check entries)
  in
  let crashes =
    List.map
      (fun (e : Ntcs_sim.Trace.entry) -> Printf.sprintf "process crashed: %s" e.detail)
      (Ntcs_sim.Trace.matching (Ntcs_sim.World.trace (Cluster.world c)) ~cat:"sim.proc_crash")
  in
  let spans =
    List.map
      (fun v -> Format.asprintf "%a" Lint_trace.pp_violation v)
      (Check_spans.check (Ntcs_obs.Registry.spans (Cluster.metrics c)))
  in
  let naming = Check_naming.check entries in
  r3 @ lifecycle @ crashes @ spans @ naming @ sanitizer_violations mode c
  @ race_violations mode c

(* §6.1 first send, across a gateway: NS on the LAN, service on the ring.
   Every schedule must deliver the echo and keep every circuit lifecycle
   legal. *)
let first_send =
  let make mode =
    let c =
      Cluster.build ~config:(config_of_mode mode)
        ~nets:[ ("ether", Ntcs_sim.Net.Tcp_lan); ("ring", Ntcs_sim.Net.Mbx_ring) ]
        ~machines:
          [
            ("vax1", Ntcs_sim.Machine.Vax, [ "ether" ]);
            ("bridge", Ntcs_sim.Machine.Sun3, [ "ether"; "ring" ]);
            ("ap1", Ntcs_sim.Machine.Apollo, [ "ring" ]);
          ]
        ~gateways:[ ("bridge-gw", "bridge", [ "ether"; "ring" ]) ]
        ~ns:"vax1" ()
      |> built mode
    in
    let errs = ref [] in
    let body () =
      Cluster.settle c;
      spawn_echo c ~machine:"ap1" ~name:"svc" errs;
      Cluster.settle c;
      let outcome = ref `Not_run in
      ignore
        (Cluster.spawn c ~machine:"vax1" ~name:"app" (fun node ->
             match Commod.bind node ~name:"app" with
             | Error e -> outcome := `Err ("bind: " ^ Errors.to_string e)
             | Ok commod -> (
               match Ali_layer.locate commod "svc" with
               | Error e -> outcome := `Err ("locate: " ^ Errors.to_string e)
               | Ok addr -> (
                 match Ali_layer.send_sync commod ~dst:addr (payload "first") with
                 | Error e -> outcome := `Err ("send_sync: " ^ Errors.to_string e)
                 | Ok env -> outcome := `Reply (Bytes.to_string env.Ali_layer.data)))));
      Cluster.settle ~dt:30_000_000 c;
      let outcome_errs =
        match !outcome with
        | `Reply "echo:first" -> []
        | `Reply other -> [ Printf.sprintf "wrong reply %S" other ]
        | `Err e -> [ Printf.sprintf "first send failed: %s" e ]
        | `Not_run -> [ "app never completed" ]
      in
      !errs @ outcome_errs @ trace_violations mode c
    in
    (Cluster.world c, body)
  in
  (* The exchange (locate, chained open, splice, echo, teardown) completes
     well before t=4.05s; later ties are 3s-periodic maintenance. *)
  { sc_name = "first-send"; sc_from = 4_000_000; sc_until = 4_050_000; sc_make = make }

(* §6.3 circuit break under the LCM guard: the name server is partitioned
   away mid-run; a fresh lookup must fail cleanly — bounded recursion, no
   crash — on every interleaving of the teardown. *)
let break_ns =
  let make mode =
    let tweak cfg = { cfg with Node.ns_fault_guard = true; recursion_limit = 40 } in
    let c =
      Cluster.build ~config:(config_of_mode mode) ~tweak
        ~nets:[ ("ether", Ntcs_sim.Net.Tcp_lan) ]
        ~machines:
          [
            ("vax1", Ntcs_sim.Machine.Vax, [ "ether" ]);
            ("sun1", Ntcs_sim.Machine.Sun3, [ "ether" ]);
            ("sun2", Ntcs_sim.Machine.Sun3, [ "ether" ]);
          ]
        ~ns:"vax1" ()
      |> built mode
    in
    let errs = ref [] in
    let body () =
      Cluster.settle c;
      spawn_echo c ~machine:"sun1" ~name:"svc" errs;
      Cluster.settle c;
      let outcome = ref `Not_run in
      ignore
        (Cluster.spawn c ~machine:"sun2" ~name:"app" (fun node ->
             match Commod.bind node ~name:"app" with
             | Error e -> outcome := `Err ("bind: " ^ Errors.to_string e)
             | Ok commod -> (
               match Ali_layer.locate commod "svc" with
               | Error e -> outcome := `Err ("locate svc: " ^ Errors.to_string e)
               | Ok _ -> (
                 Ntcs_sim.Sched.sleep (Node.sched node) 4_000_000;
                 match Ali_layer.locate commod "never-seen" with
                 | Ok _ -> outcome := `Resolved
                 | Error e -> outcome := `Failed e))));
      Ntcs_sim.Sched.after (Cluster.sched c) 2_000_000 (fun () -> Cluster.partition c "ether");
      Cluster.settle ~dt:60_000_000 c;
      let outcome_errs =
        match !outcome with
        | `Failed
            ( Errors.Name_service_unavailable | Errors.Timeout | Errors.Circuit_failed
            | Errors.Unreachable ) ->
          []
        | `Failed e -> [ Printf.sprintf "unexpected error: %s" (Errors.to_string e) ]
        | `Resolved -> [ "lookup cannot succeed while partitioned" ]
        | `Err e -> [ e ]
        | `Not_run -> [ "app never finished (recursion hang?)" ]
      in
      let guard_errs =
        if Ntcs_obs.Registry.get (Cluster.metrics c) "lcm.ns_guard_hits" > 0 then []
        else [ "guard never engaged" ]
      in
      !errs @ outcome_errs @ guard_errs @ trace_violations ~recursion_limit:40 mode c
    in
    (Cluster.world c, body)
  in
  (* Window covers the partition (t=6s), the app's wake (t=8s) and the
     whole fault exchange; the tree is small enough to leave it wide. *)
  { sc_name = "break-ns"; sc_from = 4_000_000; sc_until = 64_000_000; sc_make = make }

(* ----- fault-plane soak scenarios (PR 3) -----

   Same contract as the scenarios above — every explored schedule must be
   violation-free — but the world now runs under an armed {!Ntcs_sim.Faults}
   plane, so the exchanges being checked are the *recovery* paths: LCM
   retry/backoff, the §3.5 oracle, and the §6.3 guard. Their trees are
   effectively unbounded (retry timers breed ties forever), so unlike
   [exhaustive] these are run with truncation allowed: the soak contract is
   "at least N schedules, zero failures", not exhaustiveness. *)

(* Trace checks for runs where divergence — and with it a simulated process
   crash — is the *expected* outcome: R3 minus the recursion bound, plus
   the lifecycle automaton. *)
let trace_violations_crashes_expected mode c =
  let entries = Ntcs_sim.Trace.entries (Ntcs_sim.World.trace (Cluster.world c)) in
  List.map
    (fun v -> Format.asprintf "%a" Lint_trace.pp_violation v)
    (Lint_trace.check_all entries @ Check_lifecycle.check entries
    @ Check_spans.check (Ntcs_obs.Registry.spans (Cluster.metrics c)))
  @ Check_naming.check entries
  @ sanitizer_violations mode c @ race_violations mode c

let lan3 ?tweak ?faults mode =
  Cluster.build ~config:(config_of_mode ?faults mode) ?tweak
    ~nets:[ ("ether", Ntcs_sim.Net.Tcp_lan) ]
    ~machines:
      [
        ("vax1", Ntcs_sim.Machine.Vax, [ "ether" ]);
        ("sun1", Ntcs_sim.Machine.Sun3, [ "ether" ]);
        ("sun2", Ntcs_sim.Machine.Sun3, [ "ether" ]);
      ]
    ~ns:"vax1" ()
  |> built mode

(* App body shared by the recovery soaks: locate [svc], prove the path works
   once, then — after the faults have begun — keep sending until an echo
   comes back or virtual time [give_up_us] passes. Every error along the way
   (timeouts from dropped frames, broken circuits from partitions,
   destination-dead from the oracle while the replacement is not yet
   registered) is survivable by design: the loop just tries again. *)
let spawn_chaser c ~machine ~text ~give_up_us outcome =
  ignore
    (Cluster.spawn c ~machine ~name:"app" (fun node ->
         match Commod.bind node ~name:"app" with
         | Error e -> outcome := `Err ("bind: " ^ Errors.to_string e)
         | Ok commod -> (
           match Ali_layer.locate commod "svc" with
           | Error e -> outcome := `Err ("locate: " ^ Errors.to_string e)
           | Ok addr -> (
             match Ali_layer.send_sync commod ~dst:addr (payload "warm") with
             | Error e -> outcome := `Err ("warm-up: " ^ Errors.to_string e)
             | Ok _ ->
               let sched = Node.sched node in
               (* Into the fault window. *)
               Ntcs_sim.Sched.sleep sched 3_000_000;
               let rec chase () =
                 if Ntcs_sim.Sched.now sched > give_up_us then outcome := `Gave_up
                 else
                   match
                     Ali_layer.send_sync commod ~dst:addr ~timeout_us:1_000_000
                       (payload text)
                   with
                   | Ok env -> outcome := `Reply (Bytes.to_string env.Ali_layer.data)
                   | Error _ ->
                     Ntcs_sim.Sched.sleep sched 1_000_000;
                     chase ()
               in
               chase ()))))

let chaser_errs ~text outcome =
  match !outcome with
  | `Reply r when r = "echo:" ^ text -> []
  | `Reply other -> [ Printf.sprintf "wrong reply %S" other ]
  | `Gave_up -> [ "app never recovered" ]
  | `Err e -> [ e ]
  | `Not_run -> [ "app never completed" ]

let metric_at_least c name n msg =
  if Ntcs_obs.Registry.get (Cluster.metrics c) name >= n then [] else [ msg ]

(* Partition-heal: sever the service's machine from the rest of the LAN for
   4s (with lossy/duplicating/delaying links around the window for good
   measure), then heal. The app must ride out the outage on the LCM retry
   policy and converge after the heal — on every interleaving. *)
let fault_partition_heal =
  let make mode =
    let c =
      lan3
        ~faults:
          {
            Ntcs_sim.Faults.seed = 0xFA11;
            rules =
              [
                Ntcs_sim.Faults.rule ~from_us:5_000_000 ~until_us:11_000_000 ~drop:0.03
                  ~dup:0.05 ~delay:0.2 ~delay_us:20_000 ();
              ];
            schedule =
              [
                (6_000_000, Ntcs_sim.Faults.Partition [ [ "sun1" ]; [ "vax1"; "sun2" ] ]);
                (10_000_000, Ntcs_sim.Faults.Heal);
              ];
          }
        mode
    in
    let errs = ref [] in
    let body () =
      Cluster.settle c;
      spawn_echo c ~machine:"sun1" ~name:"svc" errs;
      Cluster.settle c;
      let outcome = ref `Not_run in
      spawn_chaser c ~machine:"sun2" ~text:"heal" ~give_up_us:35_000_000 outcome;
      Cluster.settle ~dt:40_000_000 c;
      !errs @ chaser_errs ~text:"heal" outcome
      @ metric_at_least c "fault.blocked_frames" 1 "partition never blocked a frame"
      @ metric_at_least c "lcm.retries" 1 "recovery never engaged the retry policy"
      @ trace_violations mode c
    in
    (Cluster.world c, body)
  in
  (* Branch across the outage and the convergence that follows it. *)
  { sc_name = "fault-partition-heal"; sc_from = 5_000_000; sc_until = 36_000_000; sc_make = make }

(* Crash-restart of a located module (§3.5): the service's machine crashes,
   restarts, and a fresh generation re-registers under the same name. The
   app holds the stale address; recovery must go through the address-fault
   oracle ("map the old UAdd to its name, and then look for a similar name
   in a newer module") on every interleaving. *)
let fault_crash_restart =
  let make mode =
    let c =
      lan3
        ~faults:
          {
            Ntcs_sim.Faults.seed = 0xFA12;
            rules = [];
            schedule =
              [
                (6_000_000, Ntcs_sim.Faults.Crash "sun1");
                (8_000_000, Ntcs_sim.Faults.Restart "sun1");
              ];
          }
        mode
    in
    let errs = ref [] in
    let body () =
      Cluster.settle c;
      spawn_echo c ~machine:"sun1" ~name:"svc" errs;
      Cluster.settle c;
      (* The replacement generation, spawned once the machine is back. *)
      Ntcs_sim.Sched.at (Cluster.sched c) 9_000_000 (fun () ->
          spawn_echo c ~machine:"sun1" ~name:"svc" errs);
      let outcome = ref `Not_run in
      spawn_chaser c ~machine:"sun2" ~text:"gen2" ~give_up_us:38_000_000 outcome;
      Cluster.settle ~dt:45_000_000 c;
      !errs @ chaser_errs ~text:"gen2" outcome
      @ metric_at_least c "lcm.relocations" 1 "stale address never healed through the oracle"
      @ trace_violations mode c
    in
    (Cluster.world c, body)
  in
  { sc_name = "fault-crash-restart"; sc_from = 5_000_000; sc_until = 39_000_000; sc_make = make }

(* NS partition via the fault plane, under both guard settings. Guard on:
   the §6.3 fault recursion must stay bounded on every schedule (this is
   [break_ns] with the partition injected by the fault plane instead of by
   the test driver). Guard off: the paper's divergence — recursion through
   the NSP layer "until either the stack overflows, or the connection can
   be reestablished" — must reproduce deterministically on every schedule. *)
let ns_partition_make ~guard ~seed mode =
  let tweak cfg = { cfg with Node.ns_fault_guard = guard; recursion_limit = 40 } in
  let c =
    lan3 ~tweak
      ~faults:
        {
          Ntcs_sim.Faults.seed;
          rules = [];
          schedule =
            [ (6_000_000, Ntcs_sim.Faults.Partition [ [ "vax1" ]; [ "sun1"; "sun2" ] ]) ];
        }
      mode
  in
  let errs = ref [] in
  let outcome = ref `Not_run in
  let body_common () =
    Cluster.settle c;
    spawn_echo c ~machine:"sun1" ~name:"svc" errs;
    Cluster.settle c;
    ignore
      (Cluster.spawn c ~machine:"sun2" ~name:"app" (fun node ->
           match Commod.bind node ~name:"app" with
           | Error e -> outcome := `Err ("bind: " ^ Errors.to_string e)
           | Ok commod -> (
             match Ali_layer.locate commod "svc" with
             | Error e -> outcome := `Err ("locate svc: " ^ Errors.to_string e)
             | Ok _ -> (
               (* Wake with the name server already partitioned away. *)
               Ntcs_sim.Sched.sleep (Node.sched node) 4_000_000;
               match Ali_layer.locate commod "never-seen" with
               | Ok _ -> outcome := `Resolved
               | Error e -> outcome := `Failed e))));
    Cluster.settle ~dt:60_000_000 c
  in
  (c, errs, outcome, body_common)

let fault_ns_partition_guard =
  let make mode =
    let c, errs, outcome, body_common = ns_partition_make ~guard:true ~seed:0xFA13 mode in
    let body () =
      body_common ();
      let outcome_errs =
        match !outcome with
        | `Failed
            ( Errors.Name_service_unavailable | Errors.Timeout | Errors.Circuit_failed
            | Errors.Unreachable ) ->
          []
        | `Failed e -> [ Printf.sprintf "unexpected error: %s" (Errors.to_string e) ]
        | `Resolved -> [ "lookup cannot succeed while partitioned" ]
        | `Err e -> [ e ]
        | `Not_run -> [ "app never finished (recursion hang?)" ]
      in
      !errs @ outcome_errs
      @ metric_at_least c "lcm.ns_guard_hits" 1 "guard never engaged"
      @ trace_violations ~recursion_limit:40 mode c
    in
    (Cluster.world c, body)
  in
  { sc_name = "fault-ns-partition-guard"; sc_from = 4_000_000; sc_until = 64_000_000; sc_make = make }

let fault_ns_partition_noguard =
  let make mode =
    let c, errs, outcome, body_common = ns_partition_make ~guard:false ~seed:0xFA14 mode in
    let body () =
      body_common ();
      let crashes =
        List.length
          (Ntcs_sim.Trace.matching (Ntcs_sim.World.trace (Cluster.world c))
             ~cat:"sim.proc_crash")
      in
      let deep = Ntcs_obs.Registry.get (Cluster.metrics c) "lcm.fault_queries" in
      (* The divergence must be observed: either the app died of the
         simulated stack overflow, or the depth bound cut a recursion that
         had already gone deep. A clean bounded failure here would mean the
         §6.3 bug no longer reproduces. *)
      let divergence_errs =
        match !outcome with
        | `Not_run when crashes > 0 -> []
        | `Not_run -> [ "app hung without crashing or diverging" ]
        | `Err e -> [ e ]
        | `Resolved | `Failed _ ->
          if deep >= 5 then []
          else [ Printf.sprintf "fault recursion never went deep (fault_queries=%d)" deep ]
      in
      let guard_errs =
        if Ntcs_obs.Registry.get (Cluster.metrics c) "lcm.ns_guard_hits" = 0 then []
        else [ "guard engaged with ns_fault_guard=false" ]
      in
      !errs @ divergence_errs @ guard_errs @ trace_violations_crashes_expected mode c
    in
    (Cluster.world c, body)
  in
  {
    sc_name = "fault-ns-partition-noguard";
    sc_from = 4_000_000;
    sc_until = 64_000_000;
    sc_make = make;
  }

(* ----- sharded naming plane (DESIGN.md §15, PR 9) -----

   Four shards round-robin over the three LAN machines (vax1 owns 0 and 3,
   sun1 owns 1, sun2 owns 2) plus [ap1], a shard-less machine that hosts
   the service under test so it can crash without taking a name server
   with it. [trace_violations] already folds in [Check_naming], so every
   schedule of every scenario below is also checked for cache coherence:
   no stale hit ever resolves as fresh, store generations never go
   backwards, shard forwarding stays within one hop. *)

let sharded_naming = { Ntcs_sim.World.Config.shards = 4; cache_capacity = 64 }

let lan4_sharded ?tweak ?faults mode =
  Cluster.build ~config:(config_of_mode ?faults ~naming:sharded_naming mode) ?tweak
    ~nets:[ ("ether", Ntcs_sim.Net.Tcp_lan) ]
    ~machines:
      [
        ("vax1", Ntcs_sim.Machine.Vax, [ "ether" ]);
        ("sun1", Ntcs_sim.Machine.Sun3, [ "ether" ]);
        ("sun2", Ntcs_sim.Machine.Sun3, [ "ether" ]);
        ("ap1", Ntcs_sim.Machine.Apollo, [ "ether" ]);
      ]
    ~ns:"vax1" ~ns_replicas:[ "sun1"; "sun2" ] ()
  |> built mode

(* First name (from a deterministic candidate stream) owned by [shard]
   under the 4-way FNV map — lets a scenario pin where a binding lives. *)
let name_on_shard shard =
  let rec pick i =
    let n = Printf.sprintf "svc%d" i in
    if Ntcs_naming.Shard_map.hash_name n mod 4 = shard then n else pick (i + 1)
  in
  pick 0

(* Shard routing with every owner alive: an app resolves a service through
   its versioned cache (second locate must hit), and a Lookup_v planted on
   a *non-owner* server must come back relayed from the owner — one
   name-to-name hop, owner generation attached. *)
let naming_shard_route =
  let make mode =
    let c = lan4_sharded mode in
    let errs = ref [] in
    let svc_shard = Ntcs_naming.Shard_map.hash_name "svc" mod 4 in
    let non_owner = Addr.unique ~server_id:((svc_shard + 1) mod 4) ~value:0 in
    let body () =
      Cluster.settle c;
      spawn_echo c ~machine:"ap1" ~name:"svc" errs;
      Cluster.settle c;
      let outcome = ref `Not_run in
      ignore
        (Cluster.spawn c ~machine:"sun2" ~name:"app" (fun node ->
             match Commod.bind node ~name:"app" with
             | Error e -> outcome := `Err ("bind: " ^ Errors.to_string e)
             | Ok commod -> (
               match (Ali_layer.locate commod "svc", Ali_layer.locate commod "svc") with
               | Error e, _ | _, Error e ->
                 outcome := `Err ("locate: " ^ Errors.to_string e)
               | Ok addr, Ok addr2 when not (Addr.equal addr addr2) ->
                 outcome := `Err "cached locate disagrees with the first"
               | Ok addr, Ok _ -> (
                 match Ali_layer.send_sync commod ~dst:addr (payload "route") with
                 | Error e -> outcome := `Err ("send_sync: " ^ Errors.to_string e)
                 | Ok env -> (
                   (* Plant the versioned lookup on a non-owner: the shard
                      router must relay the owner's answer. *)
                   match
                     Lcm_layer.send_sync (Commod.lcm commod) ~dst:non_owner
                       ~app_tag:Ns_proto.app_tag
                       (Ntcs_wire.Convert.payload_raw
                          (Ns_proto.pack_request (Ns_proto.Lookup_v ("svc", 0))))
                   with
                   | Error e -> outcome := `Err ("routed lookup: " ^ Errors.to_string e)
                   | Ok renv -> (
                     match Ns_proto.unpack_response renv.Lcm_layer.data with
                     | Ok (Ns_proto.R_addr_v (raddr, rshard, rgen)) ->
                       outcome :=
                         `Routed (Bytes.to_string env.Ali_layer.data, raddr, addr, rshard, rgen)
                     | Ok (Ns_proto.R_error m) ->
                       outcome := `Err ("routed lookup refused: " ^ m)
                     | Ok _ -> outcome := `Err "routed lookup: unexpected response"
                     | Error m -> outcome := `Err ("routed lookup: " ^ m)))))));
      Cluster.settle ~dt:30_000_000 c;
      let outcome_errs =
        match !outcome with
        | `Routed ("echo:route", raddr, addr, rshard, rgen) ->
          (if Addr.equal raddr addr then []
           else [ "routed lookup answered a different address" ])
          @ (if rshard = svc_shard then []
             else [ Printf.sprintf "routed lookup named shard %d, not %d" rshard svc_shard ])
          @ (if rgen >= 1 then []
             else [ "routed answer came back unversioned (owner should have stamped it)" ])
        | `Routed (other, _, _, _, _) -> [ Printf.sprintf "wrong reply %S" other ]
        | `Err e -> [ e ]
        | `Not_run -> [ "app never completed" ]
      in
      !errs @ outcome_errs
      @ metric_at_least c "ns.shard.forwards" 1 "shard router never forwarded"
      @ metric_at_least c "nsp.cache_hits" 1 "second locate never hit the cache"
      @ trace_violations mode c
    in
    (Cluster.world c, body)
  in
  { sc_name = "naming-shard-route"; sc_from = 4_000_000; sc_until = 4_100_000; sc_make = make }

(* §3.5 relocation racing a cached lookup: the service's machine crashes and
   a new generation re-registers under the same name; the owner's bumped
   generation must retire every cached copy of the old answer. A chaser
   holds the stale address (heals through the fault oracle: splice repair);
   a looker keeps resolving the name through its versioned cache. On every
   interleaving the splice repair must win — stale hits resolve as misses,
   never as deliveries on the old circuit (Check_naming). *)
let naming_stale_splice =
  let make mode =
    let c =
      lan4_sharded
        ~faults:
          {
            Ntcs_sim.Faults.seed = 0xFA15;
            rules = [];
            schedule =
              [
                (6_000_000, Ntcs_sim.Faults.Crash "ap1");
                (8_000_000, Ntcs_sim.Faults.Restart "ap1");
              ];
          }
        mode
    in
    let errs = ref [] in
    let body () =
      Cluster.settle c;
      spawn_echo c ~machine:"ap1" ~name:"svc" errs;
      Cluster.settle c;
      (* The relocated generation, once the machine is back. *)
      Ntcs_sim.Sched.at (Cluster.sched c) 9_000_000 (fun () ->
          spawn_echo c ~machine:"ap1" ~name:"svc" errs);
      let outcome = ref `Not_run in
      spawn_chaser c ~machine:"sun2" ~text:"gen2" ~give_up_us:38_000_000 outcome;
      (* The looker: resolve through the versioned cache across the whole
         relocation, then keep the final answer. *)
      let looked = ref `Not_run in
      ignore
        (Cluster.spawn c ~machine:"sun1" ~name:"looker" (fun node ->
             match Commod.bind node ~name:"looker" with
             | Error e -> looked := `Err ("looker bind: " ^ Errors.to_string e)
             | Ok commod ->
               let sched = Node.sched node in
               let rec look () =
                 if Ntcs_sim.Sched.now sched > 38_000_000 then ()
                 else begin
                   (match Ali_layer.locate commod "svc" with
                    | Ok addr -> looked := `Located addr
                    | Error _ -> ());
                   Ntcs_sim.Sched.sleep sched 1_500_000;
                   look ()
                 end
               in
               look ()));
      Cluster.settle ~dt:45_000_000 c;
      let looker_errs =
        match !looked with
        | `Located _ -> []
        | `Err e -> [ e ]
        | `Not_run -> [ "looker never resolved svc" ]
      in
      !errs @ chaser_errs ~text:"gen2" outcome @ looker_errs
      @ metric_at_least c "lcm.relocations" 1 "stale address never healed through the oracle"
      @ metric_at_least c "ns.invalidations" 1 "relocation never bumped a shard generation"
      @ metric_at_least c "nsp.cache_hits" 1 "the versioned cache was never consulted"
      @ trace_violations mode c
    in
    (Cluster.world c, body)
  in
  { sc_name = "naming-stale-splice"; sc_from = 5_000_000; sc_until = 39_000_000; sc_make = make }

(* Shard loss: the machine owning the probe name's shard crashes (taking
   that name server with it — no restart). A fresh app must still bind,
   resolve the name and reach the service: owner-first lookup fails over
   down the replica list, the surviving shard router's forward to the dead
   owner degrades into a backup answer (unversioned), and delivery
   succeeds through replication. *)
let naming_shard_loss =
  let probe = name_on_shard 1 (* owned by the name server hosted on sun1 *) in
  let make mode =
    let c =
      lan4_sharded
        ~faults:
          {
            Ntcs_sim.Faults.seed = 0xFA16;
            rules = [];
            schedule = [ (6_000_000, Ntcs_sim.Faults.Crash "sun1") ];
          }
        mode
    in
    let errs = ref [] in
    let body () =
      Cluster.settle c;
      spawn_echo c ~machine:"ap1" ~name:probe errs;
      Cluster.settle c;
      let outcome = ref `Not_run in
      Ntcs_sim.Sched.at (Cluster.sched c) 8_000_000 (fun () ->
          ignore
            (Cluster.spawn c ~machine:"sun2" ~name:"app" (fun node ->
                 match Commod.bind node ~name:"app" with
                 | Error e -> outcome := `Err ("bind: " ^ Errors.to_string e)
                 | Ok commod -> (
                   match Ali_layer.locate commod probe with
                   | Error e -> outcome := `Err ("locate: " ^ Errors.to_string e)
                   | Ok addr -> (
                     match
                       Ali_layer.send_sync commod ~dst:addr (payload "survive")
                     with
                     | Error e -> outcome := `Err ("send_sync: " ^ Errors.to_string e)
                     | Ok env -> outcome := `Reply (Bytes.to_string env.Ali_layer.data))))));
      Cluster.settle ~dt:60_000_000 c;
      let outcome_errs =
        match !outcome with
        | `Reply "echo:survive" -> []
        | `Reply other -> [ Printf.sprintf "wrong reply %S" other ]
        | `Err e -> [ Printf.sprintf "lookup after shard loss failed: %s" e ]
        | `Not_run -> [ "app never completed" ]
      in
      !errs @ outcome_errs
      @ metric_at_least c "ns.shard.fallbacks" 1
          "surviving replicas never answered for the lost shard"
      @ metric_at_least c "nsp.failovers" 1 "the client never failed over"
      @ trace_violations mode c
    in
    (Cluster.world c, body)
  in
  { sc_name = "naming-shard-loss"; sc_from = 5_000_000; sc_until = 30_000_000; sc_make = make }

let exhaustive = [ first_send; break_ns ]

let soaks =
  [
    fault_partition_heal;
    fault_crash_restart;
    fault_ns_partition_guard;
    fault_ns_partition_noguard;
    naming_stale_splice;
    naming_shard_loss;
    naming_shard_route;
  ]

let explore ?max_schedules ?(mode = Mode.default) sc =
  Ntcs_sim.Explore.run ?max_schedules
    ~branch:(fun ~time ~owners:_ -> time >= sc.sc_from && time < sc.sc_until)
    ~make:(fun () ->
      let w, body = sc.sc_make mode in
      (Ntcs_sim.World.sched w, body))
    ()
