(* Recursion in the NTCS (§6): the §6.1 first-send scenario with monitoring
   and time correction enabled (E8), and the §6.3 name-server circuit-break
   pathology with and without the LCM guard (E9). *)

open Ntcs
open Helpers

let monitored_config c =
  { (Cluster.config c) with Node.monitoring = true; timestamps = true }

let test_first_send_recursion_scenario () =
  (* §6.1: with monitoring + time correction on, the application's first
     send recursively re-enters the ComMod (time sync, resource location,
     monitor reporting). We count recursive entries via the tracker. *)
  let c = lan_cluster () in
  Cluster.settle c;
  ignore (Cluster.spawn c ~machine:"sun2" ~name:"time-server" (fun node ->
            Ntcs_drts.Time_service.serve node ()));
  ignore (Cluster.spawn c ~machine:"sun2" ~name:"monitor" (fun node ->
            Ntcs_drts.Monitor.serve node ()));
  spawn_echo c ~machine:"sun1" ~name:"svc";
  Cluster.settle c;
  let stats = ref (0, 0, 0) in
  ignore
    (Cluster.spawn c ~config:(monitored_config c) ~machine:"vax1" ~name:"app" (fun node ->
         let commod = bind_exn node ~name:"app" in
         (* Install the DRTS hooks: corrected timestamps + monitor reports. *)
         let corrector = Ntcs_drts.Time_service.create commod in
         Ntcs_drts.Time_service.install corrector;
         Ntcs_drts.Monitor.install (Ntcs_drts.Monitor.create_client commod);
         let addr = check_ok "locate" (Ali_layer.locate commod "svc") in
         (* The measured send: first app-level communication. *)
         ignore (check_ok "sync" (Ali_layer.send_sync commod ~dst:addr (raw "first")));
         stats := Ali_layer.recursion_stats commod));
  Cluster.settle ~dt:30_000_000 c;
  let entries, recursive, max_depth = !stats in
  Alcotest.(check bool) "comMod entered many times" true (entries > 3);
  Alcotest.(check bool) "recursive entries observed" true (recursive > 0);
  Alcotest.(check bool) "nested depth beyond 1" true (max_depth >= 2)

let test_naming_recursion_is_inherent () =
  (* Even with monitoring and time correction off, the first send re-enters
     the ComMod through the NSP-layer ("This contacts the naming service for
     network resolution, invoking the NSP-layer recursively again", Â§6.1).
     The DRTS services then add further levels -- the comparison is the
     claim. *)
  let c = lan_cluster () in
  Cluster.settle c;
  spawn_echo c ~machine:"sun1" ~name:"svc";
  Cluster.settle c;
  let plain = ref (0, 0, 0) in
  ignore
    (Cluster.spawn c ~machine:"vax1" ~name:"plain-app" (fun node ->
         let commod = bind_exn node ~name:"plain-app" in
         let addr = check_ok "locate" (Ali_layer.locate commod "svc") in
         ignore (check_ok "sync" (Ali_layer.send_sync commod ~dst:addr (raw "first")));
         plain := Ali_layer.recursion_stats commod));
  Cluster.settle ~dt:10_000_000 c;
  let _, recursive, max_depth = !plain in
  Alcotest.(check bool) "naming recursion present" true (recursive >= 1);
  Alcotest.(check bool) "depth 2 from NSP re-entry" true (max_depth >= 2);
  (* Now the same exchange with the DRTS services wired in. *)
  ignore (Cluster.spawn c ~machine:"sun2" ~name:"time-server" (fun node ->
            Ntcs_drts.Time_service.serve node ()));
  ignore (Cluster.spawn c ~machine:"sun2" ~name:"monitor" (fun node ->
            Ntcs_drts.Monitor.serve node ()));
  Cluster.settle c;
  let monitored = ref (0, 0, 0) in
  ignore
    (Cluster.spawn c ~config:(monitored_config c) ~machine:"vax1" ~name:"rich-app"
       (fun node ->
         let commod = bind_exn node ~name:"rich-app" in
         let corrector = Ntcs_drts.Time_service.create commod in
         Ntcs_drts.Time_service.install corrector;
         Ntcs_drts.Monitor.install (Ntcs_drts.Monitor.create_client commod);
         let addr = check_ok "locate" (Ali_layer.locate commod "svc") in
         ignore (check_ok "sync" (Ali_layer.send_sync commod ~dst:addr (raw "first")));
         monitored := Ali_layer.recursion_stats commod));
  Cluster.settle ~dt:30_000_000 c;
  let entries_plain, recursive_plain, _ = !plain in
  let entries_rich, recursive_rich, _ = !monitored in
  Alcotest.(check bool) "services add ComMod entries" true (entries_rich > entries_plain);
  Alcotest.(check bool) "services add recursion" true (recursive_rich > recursive_plain)

let test_monitor_traffic_reaches_monitor () =
  let c = lan_cluster () in
  Cluster.settle c;
  ignore (Cluster.spawn c ~machine:"sun2" ~name:"monitor" (fun node ->
            Ntcs_drts.Monitor.serve node ()));
  spawn_echo c ~machine:"sun1" ~name:"svc";
  Cluster.settle c;
  let total = ref 0 in
  ignore
    (Cluster.spawn c ~config:(monitored_config c) ~machine:"vax1" ~name:"app" (fun node ->
         let node = { node with Node.config = { node.Node.config with Node.timestamps = false } } in
         let commod = bind_exn node ~name:"app" in
         Ntcs_drts.Monitor.install (Ntcs_drts.Monitor.create_client commod);
         let addr = check_ok "locate" (Ali_layer.locate commod "svc") in
         for _ = 1 to 5 do
           ignore (check_ok "sync" (Ali_layer.send_sync commod ~dst:addr (raw "x")))
         done;
         Ntcs_sim.Sched.sleep (Node.sched node) 3_000_000;
         let monitor = check_ok "locate monitor" (Ali_layer.locate commod "network-monitor") in
         let stats =
           check_ok "query" (Ntcs_drts.Monitor.query_stats commod ~monitor)
         in
         total := stats.Ntcs_drts.Drts_proto.ms_total));
  Cluster.settle ~dt:30_000_000 c;
  (* 5 monitored send-syncs, each reporting at least one event. *)
  Alcotest.(check bool) "events collected" true (!total >= 5)

(* --- the §6.3 pathology (E9) --- *)

let break_ns_and_send ~guard () =
  let tweak cfg = { cfg with Node.ns_fault_guard = guard; recursion_limit = 40 } in
  let c = lan_cluster ~tweak () in
  Cluster.settle c;
  spawn_echo c ~machine:"sun1" ~name:"svc";
  Cluster.settle c;
  let outcome = ref `Not_run in
  ignore
    (Cluster.spawn c ~machine:"sun2" ~name:"app" (fun node ->
         let commod = bind_exn node ~name:"app" in
         let _addr = check_ok "locate" (Ali_layer.locate commod "svc") in
         (* Wait for the name server's machine to be partitioned away. *)
         Ntcs_sim.Sched.sleep (Node.sched node) 4_000_000;
         (* A fresh lookup now needs the NS: its circuit is dead, the fault
            handler engages. Without the guard, the handler recurses through
            the NSP-layer "until either the stack overflows, or the
            connection can be reestablished". *)
         match Ali_layer.locate commod "never-seen" with
         | Ok _ -> outcome := `Ok
         | Error e -> outcome := `Error e));
  Ntcs_sim.Sched.after (Cluster.sched c) 2_000_000 (fun () -> Cluster.partition c "ether");
  Cluster.settle ~dt:60_000_000 c;
  (c, !outcome)

let test_ns_break_with_guard () =
  let c, outcome = break_ns_and_send ~guard:true () in
  (match outcome with
   | `Error (Errors.Name_service_unavailable | Errors.Timeout | Errors.Circuit_failed
            | Errors.Unreachable) -> ()
   | `Error e -> Alcotest.failf "unexpected error: %s" (Errors.to_string e)
   | `Ok -> Alcotest.fail "lookup cannot succeed while partitioned"
   | `Not_run -> Alcotest.fail "app never finished (recursion hang?)");
  Alcotest.(check bool) "guard engaged" true
    (Ntcs_obs.Registry.get (Cluster.metrics c) "lcm.ns_guard_hits" > 0);
  (* No process died of simulated stack overflow. *)
  let crashes =
    Ntcs_sim.Trace.matching (Ntcs_sim.World.trace (Cluster.world c)) ~cat:"sim.proc_crash"
  in
  Alcotest.(check int) "no crashes" 0 (List.length crashes)

let test_ns_break_without_guard_overflows () =
  let c, outcome = break_ns_and_send ~guard:false () in
  let crashes =
    Ntcs_sim.Trace.matching (Ntcs_sim.World.trace (Cluster.world c)) ~cat:"sim.proc_crash"
  in
  (* Either the app crashed with the simulated stack overflow, or the
     recursion was cut by the depth bound and surfaced as an error — both
     demonstrate the §6.3 bug; what must NOT happen is a clean bounded
     name-service-unavailable with zero guard hits and no deep recursion. *)
  let deep = Ntcs_obs.Registry.get (Cluster.metrics c) "lcm.fault_queries" in
  (match outcome with
   | `Not_run ->
     Alcotest.(check bool) "app died in the recursion" true (List.length crashes > 0)
   | `Error _ | `Ok ->
     Alcotest.(check bool) "unbounded fault recursion observed" true (deep >= 5));
  Alcotest.(check int) "guard never engaged" 0
    (Ntcs_obs.Registry.get (Cluster.metrics c) "lcm.ns_guard_hits")

let test_without_monitoring_suppression () =
  (* Suppression is what prevents the "obvious infinite recursion" (§6.1):
     monitor reports made during monitor reports. We verify the suppression
     flag restores correctly even on failure paths. *)
  let c = lan_cluster () in
  Cluster.settle c;
  let ok = ref false in
  ignore
    (Cluster.spawn c ~machine:"sun1" ~name:"app" (fun node ->
         let commod = bind_exn node ~name:"app" in
         let lcm = Commod.lcm commod in
         (try
            Lcm_layer.without_monitoring lcm (fun () -> failwith "inner")
          with Failure _ -> ());
         (* A second use must still work and restore. *)
         Lcm_layer.without_monitoring lcm (fun () -> ());
         ok := true));
  Cluster.settle c;
  Alcotest.(check bool) "suppression restores on exceptions" true !ok

let () =
  Alcotest.run "recursion"
    [
      ( "scenario (E8)",
        [
          Alcotest.test_case "first send recursion" `Quick test_first_send_recursion_scenario;
          Alcotest.test_case "naming recursion inherent" `Quick
            test_naming_recursion_is_inherent;
          Alcotest.test_case "monitor collects events" `Quick test_monitor_traffic_reaches_monitor;
        ] );
      ( "ns fault (E9)",
        [
          Alcotest.test_case "guard bounds the fault" `Quick test_ns_break_with_guard;
          Alcotest.test_case "without guard it recurses" `Quick
            test_ns_break_without_guard_overflows;
          Alcotest.test_case "suppression restores" `Quick test_without_monitoring_suppression;
        ] );
    ]
