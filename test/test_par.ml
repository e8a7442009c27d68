(* Domain-parallel world execution (DESIGN.md §14): scenario replication
   on real domains, worker-count determinism of the coupled barrier soak,
   choice-log record/replay, circuit namespacing, the shard-stable
   blocked-process report and the barrier's lookahead invariants. *)

open Ntcs_sim
module Config = World.Config

let scenarios = Check_scenarios.exhaustive @ Check_scenarios.soaks

(* --- replication (every scenario on 1/2/4 domains is ntcs_check's) --- *)

(* qcheck: whatever (scenario, replica count) is drawn, replicas stay
   byte-identical to the solo run. *)
let prop_replication =
  QCheck.Test.make ~count:6 ~name:"replicas on domains are byte-identical"
    QCheck.(pair (int_bound (List.length scenarios - 1)) (int_range 1 3))
    (fun (i, replicas) ->
      let r = Check_par.replicate ~replicas (List.nth scenarios i) in
      not (Check_par.replication_failed r))

(* --- the coupled soak: workers matrix, spans, races, replay ---------- *)

let soak2 = lazy (Check_par.par_soak ~domains:2 ())
let soak4 = lazy (Check_par.par_soak ~domains:4 ())

let check_soak name (r : Check_par.par_report) ~domains =
  Alcotest.(check (list string)) (name ^ " divergences") [] r.Check_par.pr_divergences;
  Alcotest.(check int) (name ^ " race conflicts") 0 r.Check_par.pr_race_conflicts;
  Alcotest.(check int)
    (name ^ " span violations") 0
    (List.length r.Check_par.pr_span_violations);
  Alcotest.(check bool) (name ^ " epochs ran") true (r.Check_par.pr_epochs > 0);
  Alcotest.(check bool) (name ^ " choices recorded") true (r.Check_par.pr_choices > 0);
  (* The shard-stable teardown report: one blocked resident per shard,
     label-prefixed and sorted; the fault plane's victims died and the
     pumps ran to completion, so neither appears. *)
  Alcotest.(check (list string))
    (name ^ " blocked report")
    (List.init domains (fun i -> Printf.sprintf "s%d/resident" i))
    r.Check_par.pr_blocked

let test_soak_2 () = check_soak "2-shard" (Lazy.force soak2) ~domains:2
let test_soak_4 () = check_soak "4-shard" (Lazy.force soak4) ~domains:4

(* --- choice log record/replay on a plain sequential world ------------ *)

let replay_workload chooser =
  let w = World.create ~config:{ Config.default with Config.chooser } () in
  let s = World.sched w in
  for p = 1 to 3 do
    let actor = Printf.sprintf "p%d" p in
    ignore
      (Sched.spawn ~name:actor s (fun () ->
           for k = 1 to 5 do
             Sched.sleep s 1_000;
             World.record w ~cat:"par.tick" ~actor (string_of_int k)
           done))
  done;
  World.run ~until:10_000 w;
  (Format.asprintf "%a" Trace.dump (World.trace w), World.choice_log w)

let test_choice_replay () =
  (* Three processes wake at every same instant: a 3-owner tie the rotating
     chooser must break, and the recorded log must replay byte-for-byte. *)
  let rotate ~time ~owners = time / 1_000 mod Array.length owners in
  let chosen, log = replay_workload (Config.Choose rotate) in
  Alcotest.(check bool) "chooser consulted" true (log <> []);
  List.iter
    (fun (i, arity) ->
      Alcotest.(check bool) "choice within arity" true (i >= 0 && i < arity))
    log;
  let replayed, _ = replay_workload (Config.Replay (List.map fst log)) in
  Alcotest.(check string) "replay reproduces the bytes" chosen replayed;
  (* And the default world records no choices at all. *)
  let _, dlog = replay_workload Config.Default in
  Alcotest.(check int) "default records nothing" 0 (List.length dlog)

(* --- circuit namespacing --------------------------------------------- *)

let test_circuit_namespacing () =
  let p = World.Par.create { Config.default with Config.domains = 3 } in
  let ids =
    List.init 3 (fun i ->
        Ntcs_obs.Registry.fresh_circuit (World.obs (World.Par.shard p i)))
  in
  Alcotest.(check (list int)) "shard-strided circuit ids"
    [ 1; 1_000_001; 2_000_001 ] ids;
  (* Rebasing after allocation is a caller bug. *)
  (try
     Ntcs_obs.Registry.set_circuit_base (World.obs (World.Par.shard p 0)) 5;
     Alcotest.fail "set_circuit_base after allocation should raise"
   with Invalid_argument _ -> ());
  (* A 1-domain parallel world is the sequential world: no offset. *)
  let solo = World.Par.create { Config.default with Config.domains = 1 } in
  Alcotest.(check int) "solo shard unoffset" 1
    (Ntcs_obs.Registry.fresh_circuit (World.obs (World.Par.shard solo 0)))

(* --- barrier lookahead invariants ------------------------------------ *)

let test_barrier_invariants () =
  let p = World.Par.create ~quantum:1_000 { Config.default with Config.domains = 2 } in
  let b = World.Par.barrier p in
  (* A channel faster than the quantum would need events from an epoch
     still running on another domain. *)
  (try
     ignore (World.Par.chan p ~src:0 ~dst:1 ~latency:500 : unit Barrier.Chan.t);
     Alcotest.fail "latency < quantum should raise"
   with Invalid_argument _ -> ());
  (try
     Barrier.post b ~src:0 ~dst:1 ~arrival:500 (fun () -> ());
     Alcotest.fail "post inside the lookahead window should raise"
   with Invalid_argument _ -> ());
  (try
     ignore (World.Par.chan p ~src:0 ~dst:2 ~latency:2_000 : unit Barrier.Chan.t);
     Alcotest.fail "out-of-range shard should raise"
   with Invalid_argument _ -> ());
  (* At exactly the quantum the channel is legal. *)
  ignore (World.Par.chan p ~src:0 ~dst:1 ~latency:1_000 : unit Barrier.Chan.t)

(* --- shard labels in the blocked report ------------------------------ *)

let test_blocked_labels () =
  let w = World.create () in
  let s = World.sched w in
  ignore (Sched.spawn ~name:"zeta" s (fun () -> Sched.sleep s 1_000_000));
  ignore (Sched.spawn ~name:"alpha" s (fun () -> Sched.sleep s 1_000_000));
  World.run ~until:10 w;
  Alcotest.(check (list string)) "unlabelled, sorted" [ "alpha"; "zeta" ]
    (Sched.blocked_processes s);
  World.set_label w "s7";
  Alcotest.(check (list string)) "label-prefixed, sorted" [ "s7/alpha"; "s7/zeta" ]
    (Sched.blocked_processes s);
  Alcotest.(check string) "label readable" "s7" (World.label w)

let () =
  Alcotest.run "par"
    [
      ( "replication",
        [
          QCheck_alcotest.to_alcotest prop_replication;
        ] );
      ( "soak",
        [
          Alcotest.test_case "2 shards, workers 1/2/4" `Quick test_soak_2;
          Alcotest.test_case "4 shards, workers 1/2/4" `Quick test_soak_4;
        ] );
      ( "config",
        [
          Alcotest.test_case "choice log record/replay" `Quick test_choice_replay;
        ] );
      ( "shards",
        [
          Alcotest.test_case "circuit namespacing" `Quick test_circuit_namespacing;
          Alcotest.test_case "barrier invariants" `Quick test_barrier_invariants;
          Alcotest.test_case "blocked-process labels" `Quick test_blocked_labels;
        ] );
    ]
