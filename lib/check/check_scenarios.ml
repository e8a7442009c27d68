(* Bounded scenarios for exhaustive schedule exploration.

   Each scenario builds a small cluster from scratch (Explore reruns it once
   per schedule), drives one protocol exchange to completion, and reports
   every invariant violation observable from that schedule:

   - the runtime invariants over the world's event log (Check_trace): R3
     (no gateway peering, bounded recursion, no identity conversion), the
     circuit-lifecycle automaton, span bracketing, naming coherence, and
     simulated process crashes and armed-race conflicts;
   - the scenario's own outcome (the exchange must end the way the protocol
     promises, on *every* schedule, not just the default one).

   Every scenario has the same shape — boot, start an echo service, let a
   driver start the exchange, run to a fixed horizon, collect violations —
   so each is declared once through [scenario]; what differs is the world,
   the driver and the scenario's own checks. *)

open Ntcs
open Ntcs_sim

(* The instrumentation mode is the scheduler's own canonical record,
   threaded explicitly through every scenario build: a module-level flag
   here would itself be ambient shared state, exactly what R8 forbids. *)
module Mode = Sched.Mode

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
  sc_make : Mode.t -> World.t * (unit -> string list);
}

(* ----- worlds ----- *)

let lan3 =
  [
    ("vax1", Machine.Vax, [ "ether" ]);
    ("sun1", Machine.Sun3, [ "ether" ]);
    ("sun2", Machine.Sun3, [ "ether" ]);
  ]

(* Build the cluster (name server on vax1, fault plane armed
   declaratively at creation) and, if the mode asks for it, arm the race
   checker right after — before any event executes, so it sees every push
   from the first one on. Arming is this library's job: the sim layer sits
   below Check_race. *)
let cluster ?tweak ?faults ?(naming = World.Config.default_naming)
    ?(nets = [ ("ether", Net.Tcp_lan) ]) ?gateways ?ns_replicas machines mode =
  let c =
    Cluster.build ~config:{ World.Config.default with faults; naming } ?tweak ~nets ~machines
      ?gateways ~ns:"vax1" ?ns_replicas ()
  in
  if mode.Mode.races then ignore (Check_race.arm (Cluster.world c));
  c

(* Four shards round-robin over the three LAN machines (vax1 owns 0 and 3,
   sun1 owns 1, sun2 owns 2) plus [ap1], a shard-less machine that hosts
   the service under test so it can crash without taking a name server
   with it. *)
let lan4_sharded ?faults mode =
  cluster ?faults ~naming:{ World.Config.shards = 4; cache_capacity = 64 }
    ~ns_replicas:[ "sun1"; "sun2" ]
    (lan3 @ [ ("ap1", Machine.Apollo, [ "ether" ]) ])
    mode

let plane ?(rules = []) seed schedule = { Faults.seed; rules; schedule }

(* ----- violations ----- *)

let metric c name = Ntcs_obs.Registry.get (Cluster.metrics c) name
let metric_at_least c name n msg = if metric c name >= n then [] else [ msg ]

(* Everything checkable after a schedule ran, from the world's event log.
   A simulated process crash fails the schedule unless [crashes_expected]
   (divergence is then the outcome under test). The race checker, when
   armed, already deduplicates (one finding per cell/owner/kind pattern)
   and emits each as a race.conflict event, so the log is its report. *)
let violations ?recursion_limit ?crashes_expected (mode : Mode.t) entries =
  List.map (Format.asprintf "%a" Check_trace.pp_violation)
    (Check_trace.check ?recursion_limit ?crashes_expected ~races:mode.Mode.races entries)

(* ----- one scenario shape ----- *)

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

(* Boot the world [build] makes, start the [svc] echo on [echo_on], let
   [drive] start the exchange, run [settle_us] further and report the
   echo's bind failures, the checks [drive] returned (given the trace
   entries) and [violations]. [drive] also gets the echo's error list,
   for a scenario that respawns the service. *)
let scenario name ~window:(sc_from, sc_until) ?(svc = "svc") ~echo_on ~settle_us ?recursion_limit
    ?crashes_expected build drive =
  let make mode =
    let c = build mode in
    let errs = ref [] in
    let body () =
      Cluster.settle c;
      spawn_echo c ~machine:echo_on ~name:svc errs;
      Cluster.settle c;
      let checks = drive c errs in
      Cluster.settle ~dt:settle_us c;
      let entries = Trace.entries (World.trace (Cluster.world c)) in
      let own = checks entries in
      !errs @ own @ violations ?recursion_limit ?crashes_expected mode entries
    in
    (Cluster.world c, body)
  in
  { sc_name = name; sc_from; sc_until; sc_make = make }

(* The app on [machine]: bind, locate [svc], hand the address to [k]. *)
let spawn_app c ~machine ?(svc = "svc") outcome k =
  ignore
    (Cluster.spawn c ~machine ~name:"app" (fun node ->
         match Commod.bind node ~name:"app" with
         | Error e -> outcome := `Err ("bind: " ^ Errors.to_string e)
         | Ok commod -> (
           match Ali_layer.locate commod svc with
           | Error e -> outcome := `Err ("locate: " ^ Errors.to_string e)
           | Ok addr -> k node commod addr)))

let send_echo ?timeout_us commod addr text =
  Ali_layer.send_sync commod ~dst:addr ?timeout_us (payload text)

(* The app sends [text] once and keeps the reply. *)
let echo_app c ~machine ?svc ~text outcome =
  spawn_app c ~machine ?svc outcome (fun _ commod addr ->
      match send_echo commod addr text with
      | Error e -> outcome := `Err ("send_sync: " ^ Errors.to_string e)
      | Ok env -> outcome := `Reply (Bytes.to_string env.Ali_layer.data))

let echo_errs ~text outcome =
  match !outcome with
  | `Reply r when r = "echo:" ^ text -> []
  | `Reply other -> [ Printf.sprintf "wrong reply %S" other ]
  | `Gave_up -> [ "app never recovered" ]
  | `Err e -> [ e ]
  | `Not_run -> [ "app never completed" ]

(* ----- §6.1 and §6.3: explored exhaustively ----- *)

(* §6.1 first send, across a gateway: NS on the LAN, service on the ring.
   Every schedule must deliver the echo and keep every circuit lifecycle
   legal. The exchange (locate, chained open, splice, echo, teardown)
   completes well before t=4.05s; later ties are 3s-periodic maintenance. *)
let first_send =
  scenario "first-send" ~window:(4_000_000, 4_050_000) ~echo_on:"ap1" ~settle_us:30_000_000
    (cluster
       ~nets:[ ("ether", Net.Tcp_lan); ("ring", Net.Mbx_ring) ]
       ~gateways:[ ("bridge-gw", "bridge", [ "ether"; "ring" ]) ]
       [
         ("vax1", Machine.Vax, [ "ether" ]);
         ("bridge", Machine.Sun3, [ "ether"; "ring" ]);
         ("ap1", Machine.Apollo, [ "ring" ]);
       ])
    (fun c _ ->
      let outcome = ref `Not_run in
      echo_app c ~machine:"vax1" ~text:"first" outcome;
      fun _ -> echo_errs ~text:"first" outcome)

(* §6.3 circuit break: the name server is partitioned away at t=6s — by
   the test driver, or by the fault plane seeded with [seed] — and the app
   wakes at t=8s to a fresh lookup. Guard on: it must fail cleanly, with
   bounded recursion and no crash, on every interleaving of the teardown.
   Guard off: the paper's divergence — recursion through the NSP layer
   "until either the stack overflows, or the connection can be
   reestablished" — must reproduce on every schedule. The window covers
   the partition, the wake and the whole fault exchange; the tree is small
   enough to leave it wide. *)
let ns_break name ?seed ~guard () =
  let tweak cfg = { cfg with Node.ns_fault_guard = guard; recursion_limit = 40 } in
  let partition = Faults.Partition [ [ "vax1" ]; [ "sun1"; "sun2" ] ] in
  let faults = Option.map (fun seed -> plane seed [ (6_000_000, partition) ]) seed in
  scenario name ~window:(4_000_000, 64_000_000) ~echo_on:"sun1" ~settle_us:60_000_000
    ?recursion_limit:(if guard then Some 40 else None)
    ~crashes_expected:(not guard) (cluster ~tweak ?faults lan3)
    (fun c _ ->
      let outcome = ref `Not_run in
      spawn_app c ~machine:"sun2" outcome (fun node commod _ ->
          Sched.sleep (Node.sched node) 4_000_000;
          match Ali_layer.locate commod "never-seen" with
          | Ok _ -> outcome := `Resolved
          | Error e -> outcome := `Failed e);
      if seed = None then
        Sched.after (Cluster.sched c) 2_000_000 (fun () -> Cluster.partition c "ether");
      fun entries ->
        if guard then
          (match !outcome with
           | `Failed
               ( Errors.Name_service_unavailable | Errors.Timeout | Errors.Circuit_failed
               | Errors.Unreachable ) ->
             []
           | `Failed e -> [ Printf.sprintf "unexpected error: %s" (Errors.to_string e) ]
           | `Resolved -> [ "lookup cannot succeed while partitioned" ]
           | `Err e -> [ e ]
           | `Not_run -> [ "app never finished (recursion hang?)" ])
          @ metric_at_least c "lcm.ns_guard_hits" 1 "guard never engaged"
        else
          (* The divergence must be observed: either the app died of the
             simulated stack overflow, or the depth bound cut a recursion
             that had already gone deep. A clean bounded failure here
             would mean the §6.3 bug no longer reproduces. *)
          let deep = metric c "lcm.fault_queries" in
          (match !outcome with
           | `Not_run
             when List.exists (fun (e : Trace.entry) -> e.ev_name = "sim.proc_crash") entries ->
             []
           | `Not_run -> [ "app hung without crashing or diverging" ]
           | `Err e -> [ e ]
           | `Resolved | `Failed _ ->
             if deep >= 5 then []
             else [ Printf.sprintf "fault recursion never went deep (fault_queries=%d)" deep ])
          @ if metric c "lcm.ns_guard_hits" = 0 then []
            else [ "guard engaged with ns_fault_guard=false" ])

let break_ns = ns_break "break-ns" ~guard:true ()

(* ----- fault-plane soak scenarios (PR 3) -----

   Same contract as the scenarios above — every explored schedule must be
   violation-free — but the world now runs under an armed {!Faults} plane,
   so the exchanges being checked are the *recovery* paths: LCM
   retry/backoff, the §3.5 oracle, and the §6.3 guard. Three trees are
   small: with answered timeouts withdrawn (Sched) and no dispatcher
   process per ComMod, the two ns_break soaks have 6 schedules and
   partition-heal 18, so [finite_soaks] are explored
   to the end. The others are far beyond any budget and run with
   truncation allowed: "at least N schedules, zero failures". *)

let fault_ns_partition_guard = ns_break "fault-ns-partition-guard" ~seed:0xFA13 ~guard:true ()
let fault_ns_partition_noguard = ns_break "fault-ns-partition-noguard" ~seed:0xFA14 ~guard:false ()

(* App body shared by the recovery soaks: locate [svc], prove the path works
   once, then — after the faults have begun — keep sending until an echo
   comes back or virtual time [give_up_us] passes. Every error along the way
   (timeouts from dropped frames, broken circuits from partitions,
   destination-dead from the oracle while the replacement is not yet
   registered) is survivable by design: the loop just tries again. *)
let chaser c ~text ~give_up_us =
  let outcome = ref `Not_run in
  spawn_app c ~machine:"sun2" outcome (fun node commod addr ->
      match send_echo commod addr "warm" with
      | Error e -> outcome := `Err ("warm-up: " ^ Errors.to_string e)
      | Ok _ ->
        let sched = Node.sched node in
        (* Into the fault window. *)
        Sched.sleep sched 3_000_000;
        let rec chase () =
          if Sched.now sched > give_up_us then outcome := `Gave_up
          else
            match send_echo ~timeout_us:1_000_000 commod addr text with
            | Ok env -> outcome := `Reply (Bytes.to_string env.Ali_layer.data)
            | Error _ ->
              Sched.sleep sched 1_000_000;
              chase ()
        in
        chase ());
  fun () -> echo_errs ~text outcome

(* Partition-heal: sever the service's machine from the rest of the LAN for
   4s (with lossy/duplicating/delaying links around the window for good
   measure), then heal. The app must ride out the outage on the LCM retry
   policy and converge after the heal — on every interleaving. The window
   spans the outage and the convergence that follows it. *)
let fault_partition_heal =
  let faults =
    plane 0xFA11
      ~rules:
        [
          Faults.rule ~from_us:5_000_000 ~until_us:11_000_000 ~drop:0.03 ~dup:0.05 ~delay:0.2
            ~delay_us:20_000 ();
        ]
      [ (6_000_000, Faults.Partition [ [ "sun1" ]; [ "vax1"; "sun2" ] ]); (10_000_000, Faults.Heal) ]
  in
  scenario "fault-partition-heal" ~window:(5_000_000, 36_000_000) ~echo_on:"sun1"
    ~settle_us:40_000_000 (cluster ~faults lan3)
    (fun c _ ->
      let chased = chaser c ~text:"heal" ~give_up_us:35_000_000 in
      fun _ ->
        chased ()
        @ metric_at_least c "fault.blocked_frames" 1 "partition never blocked a frame"
        @ metric_at_least c "lcm.retries" 1 "recovery never engaged the retry policy")

(* Crash-restart of a located module (§3.5): [victim], the service's
   machine, crashes at 6s and restarts at 8s, and a fresh generation
   re-registers under the same name at 9s. The chaser holds the stale
   address; recovery must go through the address-fault oracle ("map the
   old UAdd to its name, and then look for a similar name in a newer
   module") on every interleaving. [extra] starts more load after the
   chaser and returns its own checks. *)
let relocation name ~seed ~victim ?(extra = fun _ () -> []) build =
  let faults = plane seed [ (6_000_000, Faults.Crash victim); (8_000_000, Faults.Restart victim) ] in
  scenario name ~window:(5_000_000, 39_000_000) ~echo_on:victim ~settle_us:45_000_000 (build faults)
    (fun c errs ->
      Sched.at (Cluster.sched c) 9_000_000 (fun () -> spawn_echo c ~machine:victim ~name:"svc" errs);
      let chased = chaser c ~text:"gen2" ~give_up_us:38_000_000 in
      let more = extra c in
      fun _ ->
        chased ()
        @ metric_at_least c "lcm.relocations" 1 "stale address never healed through the oracle"
        @ more ())

let fault_crash_restart =
  relocation "fault-crash-restart" ~seed:0xFA12 ~victim:"sun1" (fun faults -> cluster ~faults lan3)

(* ----- sharded naming plane (DESIGN.md §15, PR 9) -----

   [lan4_sharded] worlds. [violations] includes naming coherence, so every
   schedule of every scenario below is also checked for cache coherence:
   no stale hit ever resolves as fresh, store generations never go
   backwards, shard forwarding stays within one hop. *)

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
  let svc_shard = Ntcs_naming.Shard_map.hash_name "svc" mod 4 in
  let non_owner = Addr.unique ~server_id:((svc_shard + 1) mod 4) ~value:0 in
  scenario "naming-shard-route" ~window:(4_000_000, 4_100_000) ~echo_on:"ap1"
    ~settle_us:30_000_000 lan4_sharded
    (fun c _ ->
      let outcome = ref `Not_run in
      spawn_app c ~machine:"sun2" outcome (fun _ commod addr ->
          match Ali_layer.locate commod "svc" with
          | Error e -> outcome := `Err ("locate: " ^ Errors.to_string e)
          | Ok addr2 when not (Addr.equal addr addr2) ->
            outcome := `Err "cached locate disagrees with the first"
          | Ok _ -> (
            match send_echo commod addr "route" with
            | Error e -> outcome := `Err ("send_sync: " ^ Errors.to_string e)
            | Ok env -> (
              (* Plant the versioned lookup on a non-owner: the shard
                 router must relay the owner's answer. *)
              match
                Lcm_layer.send_sync (Commod.lcm commod) ~dst:non_owner ~app_tag:Ns_proto.app_tag
                  (Ntcs_wire.Convert.payload_raw
                     (Ns_proto.pack_request (Ns_proto.Lookup_v ("svc", 0))))
              with
              | Error e -> outcome := `Err ("routed lookup: " ^ Errors.to_string e)
              | Ok renv -> (
                match Ns_proto.unpack_response renv.Lcm_layer.data with
                | Ok (Ns_proto.R_addr_v (raddr, rshard, rgen, _)) ->
                  outcome := `Routed (Bytes.to_string env.Ali_layer.data, raddr, addr, rshard, rgen)
                | Ok (Ns_proto.R_error m) -> outcome := `Err ("routed lookup refused: " ^ m)
                | Ok _ -> outcome := `Err "routed lookup: unexpected response"
                | Error m -> outcome := `Err ("routed lookup: " ^ m)))));
      fun _ ->
        (match !outcome with
         | `Routed ("echo:route", raddr, addr, rshard, rgen) ->
           (if Addr.equal raddr addr then [] else [ "routed lookup answered a different address" ])
           @ (if rshard = svc_shard then []
              else [ Printf.sprintf "routed lookup named shard %d, not %d" rshard svc_shard ])
           @
           if rgen >= 1 then []
           else [ "routed answer came back unversioned (owner should have stamped it)" ]
         | `Routed (other, _, _, _, _) -> [ Printf.sprintf "wrong reply %S" other ]
         | `Err e -> [ e ]
         | `Not_run -> [ "app never completed" ])
        @ metric_at_least c "ns.shard.forwards" 1 "shard router never forwarded"
        @ metric_at_least c "nsp.cache_hits" 1 "second locate never hit the cache")

(* §3.5 relocation racing a cached lookup: the owner's bumped generation
   must retire every cached copy of the old answer. Besides the chaser
   (which heals through the fault oracle: splice repair), a looker keeps
   resolving the name through its versioned cache across the whole
   relocation. On every interleaving the splice repair must win — stale
   hits resolve as misses, never as deliveries on the old circuit
   (Check_trace's naming invariants). *)
let naming_stale_splice =
  relocation "naming-stale-splice" ~seed:0xFA15 ~victim:"ap1"
    (fun faults -> lan4_sharded ~faults)
    ~extra:(fun c ->
      let looked = ref `Not_run in
      ignore
        (Cluster.spawn c ~machine:"sun1" ~name:"looker" (fun node ->
             match Commod.bind node ~name:"looker" with
             | Error e -> looked := `Err ("looker bind: " ^ Errors.to_string e)
             | Ok commod ->
               let sched = Node.sched node in
               let rec look () =
                 if Sched.now sched <= 38_000_000 then begin
                   (match Ali_layer.locate commod "svc" with
                    | Ok _ -> looked := `Located
                    | Error _ -> ());
                   Sched.sleep sched 1_500_000;
                   look ()
                 end
               in
               look ()));
      fun () ->
        (match !looked with
         | `Located -> []
         | `Err e -> [ e ]
         | `Not_run -> [ "looker never resolved svc" ])
        @ metric_at_least c "ns.invalidations" 1 "relocation never bumped a shard generation"
        @ metric_at_least c "nsp.cache_hits" 1 "the versioned cache was never consulted")

(* Shard loss: the machine owning the probe name's shard crashes (taking
   that name server with it — no restart). A fresh app must still bind,
   resolve the name and reach the service: owner-first lookup fails over
   down the replica list, the surviving shard router's forward to the dead
   owner degrades into a backup answer (unversioned), and delivery
   succeeds through replication. *)
let naming_shard_loss =
  let probe = name_on_shard 1 (* owned by the name server hosted on sun1 *) in
  scenario "naming-shard-loss" ~window:(5_000_000, 30_000_000) ~svc:probe ~echo_on:"ap1"
    ~settle_us:60_000_000
    (lan4_sharded ~faults:(plane 0xFA16 [ (6_000_000, Faults.Crash "sun1") ]))
    (fun c _ ->
      let outcome = ref `Not_run in
      Sched.at (Cluster.sched c) 8_000_000 (fun () ->
          echo_app c ~machine:"sun2" ~svc:probe ~text:"survive" outcome);
      fun _ ->
        echo_errs ~text:"survive" outcome
        @ metric_at_least c "ns.shard.fallbacks" 1
            "surviving replicas never answered for the lost shard"
        @ metric_at_least c "nsp.failovers" 1 "the client never failed over")

(* Per-name retirement after the same relocation. The looker, registered
   as [cold] (a name [svc]'s shard owns, never in its own cache), caches
   [svc], waits out the re-registration, then locates [cold]: the answer
   names [svc] among the shard's changes, so the next locate of [svc] must
   reach the new address, never hit at the retired generation
   (naming-retirement). The other lookers only re-read their cache. *)
let naming_cold_lookup =
  let cold = name_on_shard (Ntcs_naming.Shard_map.hash_name "svc" mod 4) in
  relocation "naming-cold-lookup" ~seed:0xFA17 ~victim:"ap1"
    (fun faults -> lan4_sharded ~faults)
    ~extra:(fun c ->
      let looked = ref (Error "never finished") in
      ignore
        (Cluster.spawn c ~machine:"sun1" ~name:"looker" (fun node ->
             let ( let* ) = Result.bind in
             looked :=
               Result.map_error Errors.to_string
                 (let* commod = Commod.bind node ~name:cold in
                  let* old = Ali_layer.locate commod "svc" in
                  Sched.sleep (Node.sched node) 8_000_000;
                  let* _ = Ali_layer.locate commod cold in
                  let* fresh = Ali_layer.locate commod "svc" in
                  Ok (Addr.equal old fresh))));
      fun () ->
        match !looked with
        | Ok false -> []
        | Ok true -> [ "the looker was served svc's old address after the relocation" ]
        | Error e -> [ "looker: " ^ e ])

let exhaustive = [ first_send; break_ns ]

let finite_soaks = [ fault_partition_heal; fault_ns_partition_guard; fault_ns_partition_noguard ]

let soaks =
  [
    fault_partition_heal;
    fault_crash_restart;
    fault_ns_partition_guard;
    fault_ns_partition_noguard;
    naming_stale_splice;
    naming_shard_loss;
    naming_shard_route;
    naming_cold_lookup;
  ]

let explore ?max_schedules ?(mode = Mode.default) sc =
  Explore.run ?max_schedules
    ~branch:(fun ~time ~owners:_ -> time >= sc.sc_from && time < sc.sc_until)
    ~make:(fun () ->
      let w, body = sc.sc_make mode in
      (World.sched w, body))
    ()
