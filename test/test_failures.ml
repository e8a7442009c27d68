(* Systematic failure injection: partitions mid-conversation, machine
   crashes at awkward moments, bounded-queue pressure, and the ND-layer's
   open-protocol address cache keeping cached peers reachable with the
   naming service gone (§3.3). *)

open Ntcs
open Helpers

let test_partition_breaks_then_heals () =
  let c = lan_cluster () in
  Cluster.settle c;
  spawn_echo c ~machine:"sun1" ~name:"svc";
  Cluster.settle c;
  let phase = ref [] in
  ignore
    (Cluster.spawn c ~machine:"sun2" ~name:"client" (fun node ->
         let commod = bind_exn node ~name:"client" in
         let addr = check_ok "locate" (Ali_layer.locate commod "svc") in
         let try_send label =
           match Ali_layer.send_sync commod ~dst:addr ~timeout_us:1_000_000 (raw label) with
           | Ok _ -> phase := (label, "ok") :: !phase
           | Error e -> phase := (label, Errors.to_string e) :: !phase
         in
         try_send "before";
         Ntcs_sim.Sched.sleep (Node.sched node) 3_000_000;
         try_send "during";
         Ntcs_sim.Sched.sleep (Node.sched node) 3_000_000;
         try_send "after";
         (* The circuit broke during the partition; one more call must
            succeed after transparent re-establishment. *)
         if List.assoc "after" !phase <> "ok" then try_send "after"));
  Ntcs_sim.Sched.after (Cluster.sched c) 2_000_000 (fun () -> Cluster.partition c "ether");
  Ntcs_sim.Sched.after (Cluster.sched c) 5_000_000 (fun () -> Cluster.heal c "ether");
  Cluster.settle ~dt:60_000_000 c;
  Alcotest.(check (option string)) "before ok" (Some "ok") (List.assoc_opt "before" !phase);
  Alcotest.(check bool) "during fails" true (List.assoc "during" !phase <> "ok");
  Alcotest.(check (option string)) "after heals" (Some "ok") (List.assoc_opt "after" !phase)

let slow_server c =
  Cluster.spawn c ~machine:"sun1" ~name:"slow" (fun node ->
      let commod = bind_exn node ~name:"slow-svc" in
      let rec loop () =
        (match Ali_layer.receive commod with
         | Ok env when Ali_layer.expects_reply env ->
           Ntcs_sim.Sched.sleep (Node.sched node) 5_000_000;
           ignore (Ali_layer.reply commod env (raw "late"))
         | Ok _ | Error _ -> ());
        loop ()
      in
      loop ())

let run_mid_sync_failure ~inject =
  let c = lan_cluster () in
  Cluster.settle c;
  let server_pid = slow_server c in
  Cluster.settle c;
  let outcome = ref None in
  let t_start = ref 0 and t_end = ref 0 in
  ignore
    (Cluster.spawn c ~machine:"sun2" ~name:"client" (fun node ->
         let commod = bind_exn node ~name:"client" in
         let addr = check_ok "locate" (Ali_layer.locate commod "slow-svc") in
         t_start := Node.now node;
         outcome := Some (Ali_layer.send_sync commod ~dst:addr ~timeout_us:8_000_000 (raw "q"));
         t_end := Node.now node));
  Ntcs_sim.Sched.after (Cluster.sched c) 2_000_000 (fun () -> inject c server_pid);
  Cluster.settle ~dt:60_000_000 c;
  (match !outcome with
   | Some (Error e) ->
     Alcotest.(check bool) "failure surfaced" true
       (match e with
        | Errors.Circuit_failed | Errors.Timeout | Errors.Destination_dead -> true
        | _ -> false)
   | Some (Ok _) -> Alcotest.fail "server died before replying; call cannot succeed"
   | None -> Alcotest.fail "client never finished");
  !t_end - !t_start

let test_process_kill_mid_sync_fails_promptly () =
  (* Killing the *process* leaves its machine up: the dying module's ND-layer
     aborts its circuits, so the blocked conversation fails on the peer-down
     notification, well before the timeout ("Module death is detected by the
     ND-layer in any connected module", §4.3). *)
  let elapsed =
    run_mid_sync_failure ~inject:(fun c pid -> Ntcs_sim.Sched.kill (Cluster.sched c) pid)
  in
  Alcotest.(check bool) "failed promptly via peer-down" true (elapsed < 6_000_000)

let test_machine_crash_mid_sync_times_out () =
  (* Crashing the whole *machine* gives the wire no chance to say goodbye:
     nothing arrives, and only the caller's timeout bounds the wait — like
     a real host losing power under a TCP connection. *)
  let elapsed = run_mid_sync_failure ~inject:(fun c _pid -> Cluster.crash c "sun1") in
  Alcotest.(check bool) "bounded by the timeout" true
    (elapsed >= 6_000_000 && elapsed <= 9_000_000)

let test_nd_cache_survives_total_ns_loss () =
  (* §3.3: the open-protocol exchange caches peer addresses in the ND-layer.
     With NSP caching disabled entirely (TTL 0) and the name server gone, a
     once-contacted peer is still reachable for NEW circuits. *)
  let c = lan_cluster ~tweak:(fun cfg -> { cfg with Node.ns_cache_ttl_us = 0 }) () in
  Cluster.settle c;
  spawn_echo c ~machine:"sun1" ~name:"svc";
  Cluster.settle c;
  let late_call = ref None in
  ignore
    (Cluster.spawn c ~machine:"sun2" ~name:"client" (fun node ->
         let commod = bind_exn node ~name:"client" in
         let addr = check_ok "locate" (Ali_layer.locate commod "svc") in
         ignore (check_ok "warm" (Ali_layer.send_sync commod ~dst:addr (raw "warm")));
         (* Drop the circuit so the next send must re-plan from scratch. *)
         Ip_layer.forget_peer (Commod.ip commod) addr;
         Ntcs_sim.Sched.sleep (Node.sched node) 4_000_000;
         late_call := Some (Ali_layer.send_sync commod ~dst:addr ~timeout_us:3_000_000 (raw "cold"))));
  Ntcs_sim.Sched.after (Cluster.sched c) 2_000_000 (fun () -> Cluster.crash c "vax1");
  Cluster.settle ~dt:30_000_000 c;
  match !late_call with
  | Some (Ok env) -> Alcotest.(check string) "reached via ND cache" "echo:cold" (body env)
  | Some (Error e) -> Alcotest.failf "ND-cached reopen failed: %s" (Errors.to_string e)
  | None -> Alcotest.fail "client never finished"

let test_sequence_audit_clean_in_static_run () =
  let c = lan_cluster () in
  Cluster.settle c;
  let hits = ref 0 in
  spawn_echo c ~machine:"sun1" ~name:"svc" ~hits;
  Cluster.settle c;
  ignore
    (Cluster.spawn c ~machine:"sun2" ~name:"client" (fun node ->
         let commod = bind_exn node ~name:"client" in
         let addr = check_ok "locate" (Ali_layer.locate commod "svc") in
         for _ = 1 to 50 do
           ignore (Ali_layer.send commod ~dst:addr (raw "m"))
         done;
         for _ = 1 to 10 do
           ignore (Ali_layer.send_sync commod ~dst:addr (raw "s"))
         done));
  Cluster.settle ~dt:30_000_000 c;
  let m = Cluster.metrics c in
  Alcotest.(check int) "everything arrived" 60 !hits;
  Alcotest.(check int) "no regressions/duplicates" 0
    (Ntcs_obs.Registry.get m "lcm.seq_regressions")

let test_gateway_queue_pressure () =
  (* Saturate a gateway with large messages both ways; everything must still
     arrive (TCP framing + MBX fragmentation + splice forwarding). *)
  let c = two_net_cluster () in
  Cluster.settle c;
  let received_bytes = ref 0 in
  ignore
    (Cluster.spawn c ~machine:"ap1" ~name:"sink" (fun node ->
         let commod = bind_exn node ~name:"sink" in
         let rec loop () =
           (match Ali_layer.receive commod with
            | Ok env -> received_bytes := !received_bytes + Bytes.length env.Ali_layer.data
            | Error _ -> ());
           loop ()
         in
         loop ()));
  Cluster.settle ~dt:5_000_000 c;
  let sent = ref 0 in
  ignore
    (Cluster.spawn c ~machine:"vax1" ~name:"pump" (fun node ->
         let commod = bind_exn node ~name:"pump" in
         let addr = check_ok "locate" (Ali_layer.locate commod "sink") in
         let chunk = Bytes.make 48_000 'q' in
         for _ = 1 to 12 do
           (match Ali_layer.send commod ~dst:addr (raw_bytes chunk) with
            | Ok () -> sent := !sent + Bytes.length chunk
            | Error _ -> ());
           Ntcs_sim.Sched.sleep (Node.sched node) 300_000
         done));
  Cluster.settle ~dt:120_000_000 c;
  Alcotest.(check int) "all bytes crossed the bridge" !sent !received_bytes;
  Alcotest.(check bool) "volume was real" true (!sent >= 12 * 48_000)

let test_double_crash_and_replacement () =
  (* Two generations die in sequence; a third one picks the traffic up. *)
  let c = lan_cluster () in
  Cluster.settle c;
  let pctl = Ntcs_drts.Process_ctl.create c in
  let spec tag =
    {
      Ntcs_drts.Process_ctl.sp_name = "phoenix";
      sp_attrs = [ ("service", "phoenix") ];
      sp_body =
        (fun commod ->
          let rec loop () =
            (match Ali_layer.receive commod with
             | Ok env when Ali_layer.expects_reply env ->
               ignore (Ali_layer.reply commod env (raw tag))
             | Ok _ | Error _ -> ());
            loop ()
          in
          loop ());
    }
  in
  let managed = Ntcs_drts.Process_ctl.start pctl (spec "gen0") ~machine:"sun1" in
  Cluster.settle c;
  let answers = ref [] in
  ignore
    (Cluster.spawn c ~machine:"vax1" ~name:"client" (fun node ->
         let commod = bind_exn node ~name:"client" in
         let addr = check_ok "locate" (Ali_layer.locate commod "phoenix") in
         for _ = 1 to 3 do
           (match
              Ali_layer.send_sync commod ~dst:addr ~timeout_us:4_000_000 (raw "who?")
            with
            | Ok env -> answers := body env :: !answers
            | Error _ -> ());
           Ntcs_sim.Sched.sleep (Node.sched node) 5_000_000
         done));
  Ntcs_sim.Sched.after (Cluster.sched c) 3_000_000 (fun () ->
      ignore
        (Ntcs_drts.Process_ctl.relocate pctl
           { managed with Ntcs_drts.Process_ctl.m_spec = spec "gen1" }
           ~to_machine:"sun2"));
  Ntcs_sim.Sched.after (Cluster.sched c) 8_000_000 (fun () ->
      ignore
        (Ntcs_drts.Process_ctl.relocate pctl
           { managed with Ntcs_drts.Process_ctl.m_spec = spec "gen2" }
           ~to_machine:"sun1"));
  Cluster.settle ~dt:60_000_000 c;
  let answers = List.rev !answers in
  Alcotest.(check int) "three answers" 3 (List.length answers);
  Alcotest.(check bool) "three distinct generations served" true
    (List.sort_uniq compare answers |> List.length >= 2)

let test_dgram_not_relocated () =
  (* The connectionless protocol has no recovery (§2.2): datagrams to a
     relocated module fail rather than being transparently re-routed. *)
  let c = lan_cluster () in
  Cluster.settle c;
  let pctl = Ntcs_drts.Process_ctl.create c in
  let spec =
    {
      Ntcs_drts.Process_ctl.sp_name = "target";
      sp_attrs = [];
      sp_body =
        (fun commod ->
          let rec loop () =
            ignore (Ali_layer.receive commod);
            loop ()
          in
          loop ());
    }
  in
  let managed = Ntcs_drts.Process_ctl.start pctl spec ~machine:"sun1" in
  Cluster.settle c;
  let dgram_result = ref None and data_result = ref None in
  ignore
    (Cluster.spawn c ~machine:"vax1" ~name:"client" (fun node ->
         let commod = bind_exn node ~name:"client" in
         let addr = check_ok "locate" (Ali_layer.locate commod "target") in
         ignore (Ali_layer.send commod ~dst:addr (raw "warm"));
         Ntcs_sim.Sched.sleep (Node.sched node) 4_000_000;
         dgram_result := Some (Ali_layer.send_dgram commod ~dst:addr (raw "dgram"));
         data_result := Some (Ali_layer.send commod ~dst:addr (raw "data"))));
  Ntcs_sim.Sched.after (Cluster.sched c) 2_000_000 (fun () ->
      ignore (Ntcs_drts.Process_ctl.relocate pctl managed ~to_machine:"sun2"));
  Cluster.settle ~dt:30_000_000 c;
  Alcotest.(check bool) "dgram fails: no recovery" true
    (match !dgram_result with Some (Error _) -> true | _ -> false);
  Alcotest.(check bool) "data send recovers transparently" true
    (match !data_result with Some (Ok ()) -> true | _ -> false)

let test_late_reply_after_tadd_purge () =
  (* A reply addressed to a module's old TAdd still lands after the purge
     (the alias forwarding of §3.4 keeps boundary-condition replies alive). *)
  let c = lan_cluster () in
  Cluster.settle c;
  (* A server that delays its reply long enough for the client's TAdd to be
     purged from the server's tables in between. *)
  ignore
    (Cluster.spawn c ~machine:"sun1" ~name:"slowpoke" (fun node ->
         let commod = bind_exn node ~name:"slowpoke" in
         match Ali_layer.receive commod with
         | Ok env when Ali_layer.expects_reply env ->
           Ntcs_sim.Sched.sleep (Node.sched node) 1_000_000;
           (match Ali_layer.reply commod env (raw "late-but-delivered") with
            | Ok () -> ()
            | Error e -> Alcotest.failf "late reply failed: %s" (Errors.to_string e))
         | Ok _ | Error _ -> ()));
  Cluster.settle c;
  let got = ref None in
  ignore
    (Cluster.spawn c ~machine:"sun2" ~name:"caller" (fun node ->
         let commod = bind_exn node ~name:"caller" in
         let addr = check_ok "locate" (Ali_layer.locate commod "slowpoke") in
         got := Some (Ali_layer.send_sync commod ~dst:addr ~timeout_us:5_000_000 (raw "q"))));
  Cluster.settle ~dt:30_000_000 c;
  match !got with
  | Some (Ok env) -> Alcotest.(check string) "reply arrived" "late-but-delivered" (body env)
  | Some (Error e) -> Alcotest.failf "sync failed: %s" (Errors.to_string e)
  | None -> Alcotest.fail "caller never finished"

let test_unreachable_island () =
  (* A module on a network no gateway serves is honestly unreachable. *)
  let c =
    Cluster.build
      ~nets:[ ("ether", Ntcs_sim.Net.Tcp_lan); ("island", Ntcs_sim.Net.Tcp_lan) ]
      ~machines:
        [
          ("vax1", Ntcs_sim.Machine.Vax, [ "ether" ]);
          ("dual", Ntcs_sim.Machine.Sun3, [ "ether"; "island" ]);
          ("marooned", Ntcs_sim.Machine.Sun3, [ "island" ]);
        ]
      ~ns:"vax1" ()
  in
  Cluster.settle c;
  (* The island module can register: its machine shares "island" with dual,
     but dual runs NO gateway — so vax1 cannot reach it, and in fact the
     island module cannot even reach the name server. *)
  let island_bind = ref None in
  ignore
    (Cluster.spawn c ~machine:"marooned" ~name:"islander" (fun node ->
         island_bind := Some (Commod.bind node ~name:"islander")));
  Cluster.settle ~dt:30_000_000 c;
  match !island_bind with
  | Some (Error (Errors.Name_service_unavailable | Errors.Unreachable)) -> ()
  | Some (Error e) -> Alcotest.failf "unexpected error: %s" (Errors.to_string e)
  | Some (Ok _) -> Alcotest.fail "registration cannot cross an unbridged network"
  | None -> Alcotest.fail "islander never ran"

let () =
  Alcotest.run "failures"
    [
      ( "network",
        [
          Alcotest.test_case "partition then heal" `Quick test_partition_breaks_then_heals;
          Alcotest.test_case "process kill mid-sync" `Quick
            test_process_kill_mid_sync_fails_promptly;
          Alcotest.test_case "machine crash mid-sync" `Quick
            test_machine_crash_mid_sync_times_out;
          Alcotest.test_case "gateway queue pressure" `Quick test_gateway_queue_pressure;
        ] );
      ( "caching",
        [
          Alcotest.test_case "nd cache survives NS loss" `Quick
            test_nd_cache_survives_total_ns_loss;
          Alcotest.test_case "sequence audit clean" `Quick test_sequence_audit_clean_in_static_run;
        ] );
      ( "generations",
        [ Alcotest.test_case "double crash and replacement" `Quick
            test_double_crash_and_replacement ] );
      ( "boundaries",
        [
          Alcotest.test_case "dgram not relocated" `Quick test_dgram_not_relocated;
          Alcotest.test_case "late reply after TAdd purge" `Quick
            test_late_reply_after_tadd_purge;
          Alcotest.test_case "unreachable island" `Quick test_unreachable_island;
        ] );
    ]
