(* The distributed run-time support services: time correction over drifting
   clocks, the network monitor, and the error log — each running recursively
   through the NTCS it serves. *)

open Ntcs
open Helpers

let drifting_cluster () =
  Cluster.build
    ~nets:[ ("ether", Ntcs_sim.Net.Tcp_lan) ]
    ~machines:
      [
        ("vax1", Ntcs_sim.Machine.Vax, [ "ether" ]);
        ("sun1", Ntcs_sim.Machine.Sun3, [ "ether" ]);
        ("sun2", Ntcs_sim.Machine.Sun3, [ "ether" ]);
      ]
    ~clocks:[ ("sun1", 400., 250_000); ("sun2", -300., -120_000) ]
    ~ns:"vax1" ()

let test_clock_drift_modelled () =
  let c = drifting_cluster () in
  Cluster.settle ~dt:10_000_000 c;
  let now = Ntcs_sim.World.now (Cluster.world c) in
  let local m = Ntcs_sim.Machine.local_time (Cluster.machine c m) ~now_us:now in
  (* sun1 runs fast with a positive offset; sun2 slow with negative. *)
  Alcotest.(check bool) "sun1 ahead" true (local "sun1" > now + 200_000);
  Alcotest.(check bool) "sun2 behind" true (local "sun2" < now - 100_000)

let test_time_correction () =
  let c = drifting_cluster () in
  Cluster.settle c;
  (* Reference clock on vax1 (zero drift). *)
  ignore (Cluster.spawn c ~machine:"vax1" ~name:"time-server" (fun node ->
            Ntcs_drts.Time_service.serve node ()));
  Cluster.settle c;
  let err_before = ref 0 and err_after = ref 0 in
  ignore
    (Cluster.spawn c ~machine:"sun1" ~name:"corrected" (fun node ->
         let commod = bind_exn node ~name:"corrected-app" in
         let corrector = Ntcs_drts.Time_service.create commod in
         err_before := abs (Ntcs_drts.Time_service.true_error_us corrector);
         (match Ntcs_drts.Time_service.sync corrector with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "sync failed: %s" (Errors.to_string e));
         err_after := abs (Ntcs_drts.Time_service.true_error_us corrector);
         let m = Node.metrics node in
         Alcotest.(check int) "one sync recorded" 1 (Ntcs_obs.Registry.get m "time.syncs");
         Alcotest.(check int) "no failure recorded" 0
           (Ntcs_obs.Registry.get m "time.sync_failures")));
  Cluster.settle ~dt:20_000_000 c;
  Alcotest.(check bool) "clock was off beforehand" true (!err_before > 100_000);
  (* Cristian-style correction should get within a few RTTs of truth. *)
  Alcotest.(check bool) "corrected within 5ms" true (!err_after < 5_000);
  Alcotest.(check bool) "correction improved the clock" true (!err_after < !err_before)

let test_corrected_timestamps_flow_into_hooks () =
  let c = drifting_cluster () in
  Cluster.settle c;
  ignore (Cluster.spawn c ~machine:"vax1" ~name:"time-server" (fun node ->
            Ntcs_drts.Time_service.serve node ()));
  Cluster.settle c;
  let hook_time = ref 0 and global_time = ref 0 in
  ignore
    (Cluster.spawn c ~machine:"sun1" ~name:"app" (fun node ->
         let commod = bind_exn node ~name:"hook-app" in
         let corrector = Ntcs_drts.Time_service.create commod in
         Ntcs_drts.Time_service.install corrector;
         ignore (Ntcs_drts.Time_service.sync corrector);
         hook_time := node.Node.hooks.Node.timestamp ();
         global_time := Node.now node));
  Cluster.settle ~dt:20_000_000 c;
  (* Raw local clock would be ~250ms ahead; the corrected hook is close. *)
  Alcotest.(check bool) "hook reports corrected time" true
    (abs (!hook_time - !global_time) < 10_000)

let test_time_autosync_on_stale_timestamp () =
  (* The §6.1 recursive path: a stale corrector re-syncs from inside the
     timestamp call itself. *)
  let c = drifting_cluster () in
  Cluster.settle c;
  ignore (Cluster.spawn c ~machine:"vax1" ~name:"time-server" (fun node ->
            Ntcs_drts.Time_service.serve node ()));
  Cluster.settle c;
  let syncs = ref (-1) in
  ignore
    (Cluster.spawn c ~machine:"sun1" ~name:"app" (fun node ->
         let commod = bind_exn node ~name:"autosync-app" in
         let corrector = Ntcs_drts.Time_service.create ~sync_interval_us:1_000_000 commod in
         (* First [now] triggers a sync (never synced), as does a later one
            past the interval. *)
         ignore (Ntcs_drts.Time_service.now corrector);
         Ntcs_sim.Sched.sleep (Node.sched node) 2_000_000;
         ignore (Ntcs_drts.Time_service.now corrector);
         syncs := Ntcs_obs.Registry.get (Node.metrics node) "time.syncs"));
  Cluster.settle ~dt:20_000_000 c;
  Alcotest.(check int) "two automatic syncs" 2 !syncs

let test_time_sync_failure_counted () =
  let c = drifting_cluster () in
  Cluster.settle c;
  (* No time server at all. *)
  let failures = ref 0 in
  ignore
    (Cluster.spawn c ~machine:"sun1" ~name:"app" (fun node ->
         let commod = bind_exn node ~name:"lonely-app" in
         let corrector = Ntcs_drts.Time_service.create commod in
         (match Ntcs_drts.Time_service.sync corrector with
          | Ok _ -> Alcotest.fail "sync cannot succeed without a server"
          | Error _ -> ());
         failures := Ntcs_obs.Registry.get (Node.metrics node) "time.sync_failures"));
  Cluster.settle ~dt:20_000_000 c;
  Alcotest.(check int) "failure counted" 1 !failures;
  Alcotest.(check int) "no sync counted" 0
    (Ntcs_obs.Registry.get (Cluster.metrics c) "time.syncs")

let test_error_log_roundtrip () =
  let c = lan_cluster () in
  Cluster.settle c;
  ignore (Cluster.spawn c ~machine:"sun2" ~name:"error-log" (fun node ->
            Ntcs_drts.Error_log.serve node ()));
  Cluster.settle c;
  let count = ref (-1) in
  let recent = ref [] in
  ignore
    (Cluster.spawn c ~machine:"sun1" ~name:"reporter" (fun node ->
         let commod = bind_exn node ~name:"reporter" in
         let client = Ntcs_drts.Error_log.create_client commod in
         Ntcs_drts.Error_log.log client Ntcs_drts.Drts_proto.Info "all quiet";
         Ntcs_drts.Error_log.log client Ntcs_drts.Drts_proto.Error "circuit wobbled";
         Ntcs_drts.Error_log.log client Ntcs_drts.Drts_proto.Fatal "module on fire";
         Ntcs_sim.Sched.sleep (Node.sched node) 2_000_000;
         let log_addr = check_ok "locate log" (Ali_layer.locate commod "error-log") in
         count :=
           check_ok "count"
             (Ntcs_drts.Error_log.query_count commod ~log_addr
                ~min_severity:Ntcs_drts.Drts_proto.Error);
         recent :=
           check_ok "recent" (Ntcs_drts.Error_log.query_recent commod ~log_addr ~n:10)));
  Cluster.settle ~dt:20_000_000 c;
  Alcotest.(check int) "errors and worse" 2 !count;
  Alcotest.(check int) "history" 3 (List.length !recent);
  let messages = List.map (fun r -> r.Ntcs_drts.Drts_proto.lr_message) !recent in
  Alcotest.(check bool) "content preserved" true (List.mem "circuit wobbled" messages)

let test_monitor_per_module_attribution () =
  let c = lan_cluster () in
  Cluster.settle c;
  ignore (Cluster.spawn c ~machine:"sun2" ~name:"monitor" (fun node ->
            Ntcs_drts.Monitor.serve node ()));
  spawn_echo c ~machine:"sun1" ~name:"svc";
  Cluster.settle c;
  let stats = ref None in
  let monitored_config = { (Cluster.config c) with Node.monitoring = true } in
  ignore
    (Cluster.spawn c ~config:monitored_config ~machine:"vax1" ~name:"app-a" (fun node ->
         let commod = bind_exn node ~name:"app-a" in
         Ntcs_drts.Monitor.install (Ntcs_drts.Monitor.create_client commod);
         let addr = check_ok "locate" (Ali_layer.locate commod "svc") in
         for _ = 1 to 3 do
           ignore (check_ok "sync" (Ali_layer.send_sync commod ~dst:addr (raw "x")))
         done;
         Ntcs_sim.Sched.sleep (Node.sched node) 2_000_000;
         let monitor = check_ok "locate mon" (Ali_layer.locate commod "network-monitor") in
         stats := Some (check_ok "stats" (Ntcs_drts.Monitor.query_stats commod ~monitor))));
  Cluster.settle ~dt:20_000_000 c;
  match !stats with
  | None -> Alcotest.fail "no stats"
  | Some s ->
    Alcotest.(check bool) "attributed to app-a" true
      (match List.assoc_opt "app-a" s.Ntcs_drts.Drts_proto.ms_by_module with
       | Some n -> n >= 3
       | None -> false);
    Alcotest.(check bool) "send events counted" true
      (match List.assoc_opt "send-sync" s.Ntcs_drts.Drts_proto.ms_by_kind with
       | Some n -> n >= 3
       | None -> false)

(* The exact kind and detail ("t=<ts> <addr>") a monitoring module hands
   its [on_event] hook for each primitive: send and send-sync on the
   client, recv and reply on the server. *)
let test_monitor_event_details () =
  let c = lan_cluster () in
  Cluster.settle c;
  let monitored = { (Cluster.config c) with Node.monitoring = true } in
  let events = ref [] in
  let capture node =
    node.Node.hooks.Node.on_event <-
      Some (fun kind detail -> events := (kind ^ " " ^ detail) :: !events)
  in
  ignore
    (Cluster.spawn c ~config:monitored ~machine:"sun1" ~name:"mon-svc" (fun node ->
         let commod = bind_exn node ~name:"mon-svc" in
         capture node;
         ignore (check_ok "recv" (Ali_layer.receive commod));
         let env = check_ok "recv sync" (Ali_layer.receive commod) in
         ignore (check_ok "reply" (Ali_layer.reply commod env (raw "r")))));
  Cluster.settle c;
  ignore
    (Cluster.spawn c ~config:monitored ~machine:"vax1" ~name:"mon-client" (fun node ->
         let commod = bind_exn node ~name:"mon-client" in
         let addr = check_ok "locate" (Ali_layer.locate commod "mon-svc") in
         capture node;
         ignore (check_ok "send" (Ali_layer.send commod ~dst:addr (raw "a")));
         ignore (check_ok "send_sync" (Ali_layer.send_sync commod ~dst:addr (raw "b")))));
  Cluster.settle ~dt:20_000_000 c;
  Alcotest.(check (list string)) "on_event kinds and details"
    [
      "send t=4002642 U0.1";
      "send-sync t=4002642 U0.0";
      "send-sync t=4004658 U0.1";
      "recv t=4005019 U0.2";
      "recv t=4005019 U0.2";
      "reply t=4005019 U0.2";
    ]
    (List.rev !events)

let test_process_ctl_lifecycle () =
  let c = lan_cluster () in
  Cluster.settle c;
  let pctl = Ntcs_drts.Process_ctl.create c in
  let spec =
    {
      Ntcs_drts.Process_ctl.sp_name = "worker";
      sp_attrs = [];
      sp_body = (fun commod ->
        let rec loop () =
          ignore (Ali_layer.receive commod);
          loop ()
        in
        loop ());
    }
  in
  let m = Ntcs_drts.Process_ctl.start pctl spec ~machine:"sun1" in
  Cluster.settle c;
  let alive pid = Ntcs_sim.Sched.alive (Cluster.sched c) pid in
  let first = m.Ntcs_drts.Process_ctl.m_pid in
  Alcotest.(check bool) "alive after start" true (alive first);
  Alcotest.(check int) "generation 0" 0 m.m_generation;
  Alcotest.(check string) "machine" "sun1" m.m_machine;
  let next = Ntcs_drts.Process_ctl.relocate pctl m ~to_machine:"sun2" in
  Cluster.settle c;
  Alcotest.(check bool) "relocate kills the old instance" false (alive first);
  Alcotest.(check bool) "alive after relocate" true (alive next && next = m.m_pid);
  Alcotest.(check int) "generation 1" 1 m.m_generation;
  Alcotest.(check string) "moved" "sun2" m.m_machine;
  Alcotest.(check bool) "registry refuses a second worker" true
    (match Ntcs_drts.Process_ctl.start pctl spec ~machine:"sun1" with
     | exception Invalid_argument _ -> true
     | _ -> false)

let () =
  Alcotest.run "drts"
    [
      ( "time",
        [
          Alcotest.test_case "drift modelled" `Quick test_clock_drift_modelled;
          Alcotest.test_case "correction works" `Quick test_time_correction;
          Alcotest.test_case "hooks use corrected time" `Quick
            test_corrected_timestamps_flow_into_hooks;
          Alcotest.test_case "auto-resync when stale" `Quick test_time_autosync_on_stale_timestamp;
          Alcotest.test_case "sync failures counted" `Quick test_time_sync_failure_counted;
        ] );
      ( "monitor+log",
        [
          Alcotest.test_case "error log roundtrip" `Quick test_error_log_roundtrip;
          Alcotest.test_case "monitor attribution" `Quick test_monitor_per_module_attribution;
          Alcotest.test_case "monitor event details" `Quick test_monitor_event_details;
        ] );
      ("process", [ Alcotest.test_case "lifecycle" `Quick test_process_ctl_lifecycle ]);
    ]
