(* Dynamic reconfiguration (§3.5, E4): transparent relocation of modules
   mid-conversation, forwarding-table behaviour, loss characteristics, and
   the boundaries the paper draws (no transaction recovery). *)

open Ntcs
open Helpers

let counter_spec tag =
  {
    Ntcs_drts.Process_ctl.sp_name = "counter";
    sp_attrs = [ ("service", "counter") ];
    sp_body =
      (fun commod ->
        let lcm = Commod.lcm commod in
        let n = ref 0 in
        let rec loop () =
          (match Lcm_layer.recv lcm with
           | Ok env when env.Lcm_layer.conv <> 0 ->
             incr n;
             ignore
               (Lcm_layer.reply lcm env (raw (Printf.sprintf "%s:%d" tag !n)))
           | Ok _ | Error _ -> ());
          loop ()
        in
        loop ());
  }

let test_transparent_relocation () =
  let c = lan_cluster () in
  Cluster.settle c;
  let pctl = Ntcs_drts.Process_ctl.create c in
  let managed = Ntcs_drts.Process_ctl.start pctl (counter_spec "gen0") ~machine:"sun1" in
  Cluster.settle c;
  let replies = ref [] and errors = ref 0 in
  ignore
    (Cluster.spawn c ~machine:"vax1" ~name:"client" (fun node ->
         let commod = bind_exn node ~name:"client" in
         let addr = check_ok "locate once" (Ali_layer.locate commod "counter") in
         for _ = 1 to 16 do
           (match
              Ali_layer.send_sync commod ~dst:addr ~timeout_us:2_000_000 (raw "tick")
            with
            | Ok env -> replies := body env :: !replies
            | Error _ -> incr errors);
           Ntcs_sim.Sched.sleep (Node.sched node) 400_000
         done));
  (* Relocate mid-run. *)
  Ntcs_sim.Sched.after (Cluster.sched c) 3_000_000
    (fun () ->
      managed.Ntcs_drts.Process_ctl.m_spec.Ntcs_drts.Process_ctl.sp_body
      |> ignore;
      let moved = { managed with Ntcs_drts.Process_ctl.m_spec = counter_spec "gen1" } in
      ignore (Ntcs_drts.Process_ctl.relocate pctl moved ~to_machine:"sun2"));
  Cluster.settle ~dt:30_000_000 c;
  let replies = List.rev !replies in
  Alcotest.(check int) "no failed calls" 0 !errors;
  Alcotest.(check int) "all ticks answered" 16 (List.length replies);
  let gen0 = List.filter (fun r -> String.length r > 4 && String.sub r 0 4 = "gen0") replies in
  let gen1 = List.filter (fun r -> String.length r > 4 && String.sub r 0 4 = "gen1") replies in
  Alcotest.(check bool) "old generation served some" true (List.length gen0 > 0);
  Alcotest.(check bool) "new generation served some" true (List.length gen1 > 0);
  Alcotest.(check int) "exactly one relocation observed" 1
    (Ntcs_obs.Registry.get (Cluster.metrics c) "lcm.relocations")

let test_forwarding_table_reused () =
  (* After the first fault, subsequent sends use the local forwarding table
     without asking the naming service again. *)
  let c = lan_cluster () in
  Cluster.settle c;
  let pctl = Ntcs_drts.Process_ctl.create c in
  let managed = Ntcs_drts.Process_ctl.start pctl (counter_spec "g0") ~machine:"sun1" in
  Cluster.settle c;
  let fault_queries = ref (-1) in
  ignore
    (Cluster.spawn c ~machine:"vax1" ~name:"client" (fun node ->
         let commod = bind_exn node ~name:"client" in
         let addr = check_ok "locate" (Ali_layer.locate commod "counter") in
         ignore (check_ok "warm" (Ali_layer.send_sync commod ~dst:addr (raw "t")));
         Ntcs_sim.Sched.sleep (Node.sched node) 4_000_000;
         (* Post-relocation: first send faults and queries; the rest must
            come straight from the forwarding table. *)
         for _ = 1 to 5 do
           ignore (Ali_layer.send_sync commod ~dst:addr ~timeout_us:2_000_000 (raw "t"))
         done;
         fault_queries := Ntcs_obs.Registry.get (Cluster.metrics c) "lcm.fault_queries"));
  Ntcs_sim.Sched.after (Cluster.sched c) 2_000_000
    (fun () ->
      ignore
        (Ntcs_drts.Process_ctl.relocate pctl
           { managed with Ntcs_drts.Process_ctl.m_spec = counter_spec "g1" }
           ~to_machine:"sun2"));
  Cluster.settle ~dt:30_000_000 c;
  Alcotest.(check int) "a single NSP fault query" 1 !fault_queries

let test_async_sends_may_drop_during_reconfig () =
  (* "While the NTCS can not lose messages in a static environment, they can
     be dropped due to the nature of dynamic reconfiguration." Async sends
     fired continuously across a relocation: received <= sent, and the gap
     is bounded by what was in flight around the blackout. *)
  let c = lan_cluster () in
  Cluster.settle c;
  let received = ref 0 in
  let spec =
    {
      Ntcs_drts.Process_ctl.sp_name = "sink";
      sp_attrs = [];
      sp_body =
        (fun commod ->
          let rec loop () =
            (match Ali_layer.receive commod with Ok _ -> incr received | Error _ -> ());
            loop ()
          in
          loop ());
    }
  in
  let pctl = Ntcs_drts.Process_ctl.create c in
  let managed = Ntcs_drts.Process_ctl.start pctl spec ~machine:"sun1" in
  Cluster.settle c;
  let sent_ok = ref 0 in
  ignore
    (Cluster.spawn c ~machine:"vax1" ~name:"firehose" (fun node ->
         let commod = bind_exn node ~name:"firehose" in
         let addr = check_ok "locate" (Ali_layer.locate commod "sink") in
         for _ = 1 to 40 do
           (match Ali_layer.send commod ~dst:addr (raw "m") with
            | Ok () -> incr sent_ok
            | Error _ -> ());
           Ntcs_sim.Sched.sleep (Node.sched node) 200_000
         done));
  Ntcs_sim.Sched.after (Cluster.sched c) 3_000_000
    (fun () -> ignore (Ntcs_drts.Process_ctl.relocate pctl managed ~to_machine:"sun2"));
  Cluster.settle ~dt:30_000_000 c;
  Alcotest.(check bool) "most messages arrive" true (!received > 30);
  Alcotest.(check bool) "no duplication" true (!received <= !sent_ok);
  Alcotest.(check bool) "loss is bounded" true (!sent_ok - !received <= 5)

let test_static_run_loses_nothing () =
  (* The complementary claim: without reconfiguration, nothing is lost. *)
  let c = lan_cluster () in
  Cluster.settle c;
  let received = ref 0 in
  ignore
    (Cluster.spawn c ~machine:"sun1" ~name:"sink" (fun node ->
         let commod = bind_exn node ~name:"sink" in
         let rec loop () =
           (match Ali_layer.receive commod with Ok _ -> incr received | Error _ -> ());
           loop ()
         in
         loop ()));
  Cluster.settle c;
  let sent_ok = ref 0 in
  ignore
    (Cluster.spawn c ~machine:"vax1" ~name:"firehose" (fun node ->
         let commod = bind_exn node ~name:"firehose" in
         let addr = check_ok "locate" (Ali_layer.locate commod "sink") in
         for _ = 1 to 100 do
           match Ali_layer.send commod ~dst:addr (raw "m") with
           | Ok () -> incr sent_ok
           | Error _ -> ()
         done));
  Cluster.settle ~dt:30_000_000 c;
  Alcotest.(check int) "every send delivered" !sent_ok !received;
  Alcotest.(check int) "all sends succeeded" 100 !sent_ok

let test_relocation_across_networks () =
  (* Relocate a module from the LAN onto the ring: correspondents must
     re-route through the gateway transparently. *)
  let c = two_net_cluster () in
  Cluster.settle c;
  let spec = counter_spec "lan-gen" in
  let pctl = Ntcs_drts.Process_ctl.create c in
  let managed = Ntcs_drts.Process_ctl.start pctl spec ~machine:"vax1" in
  Cluster.settle ~dt:5_000_000 c;
  let answers = ref [] in
  ignore
    (Cluster.spawn c ~machine:"vax1" ~name:"client" (fun node ->
         let commod = bind_exn node ~name:"client" in
         let addr = check_ok "locate" (Ali_layer.locate commod "counter") in
         let ask label =
           match Ali_layer.send_sync commod ~dst:addr ~timeout_us:15_000_000 (raw "t") with
           | Ok env -> answers := (label, body env) :: !answers
           | Error e -> answers := (label, "ERR:" ^ Errors.to_string e) :: !answers
         in
         ask "before";
         Ntcs_sim.Sched.sleep (Node.sched node) 12_000_000;
         ask "after";
         (* One retry: crossing networks may need a second attempt while the
            replacement registers. *)
         (match List.assoc_opt "after" !answers with
          | Some s when String.length s >= 3 && String.sub s 0 3 = "ERR" ->
            answers := List.remove_assoc "after" !answers;
            Ntcs_sim.Sched.sleep (Node.sched node) 3_000_000;
            ask "after"
          | _ -> ())));
  Ntcs_sim.Sched.after (Cluster.sched c) 6_000_000
    (fun () ->
      ignore
        (Ntcs_drts.Process_ctl.relocate pctl
           { managed with Ntcs_drts.Process_ctl.m_spec = counter_spec "ring-gen" }
           ~to_machine:"ap1"));
  Cluster.settle ~dt:80_000_000 c;
  Alcotest.(check (option string)) "before relocation" (Some "lan-gen:1")
    (List.assoc_opt "before" !answers);
  Alcotest.(check (option string)) "after relocation, across the gateway" (Some "ring-gen:1")
    (List.assoc_opt "after" !answers)

let test_kill_without_replacement_errors () =
  let c = lan_cluster () in
  Cluster.settle c;
  let pctl = Ntcs_drts.Process_ctl.create c in
  let managed = Ntcs_drts.Process_ctl.start pctl (counter_spec "only") ~machine:"sun1" in
  Cluster.settle c;
  let outcome = ref None in
  ignore
    (Cluster.spawn c ~machine:"vax1" ~name:"client" (fun node ->
         let commod = bind_exn node ~name:"client" in
         let addr = check_ok "locate" (Ali_layer.locate commod "counter") in
         ignore (check_ok "warm" (Ali_layer.send_sync commod ~dst:addr (raw "t")));
         Ntcs_sim.Sched.sleep (Node.sched node) 4_000_000;
         outcome := Some (Ali_layer.send_sync commod ~dst:addr ~timeout_us:2_000_000 (raw "t"))));
  Ntcs_sim.Sched.after (Cluster.sched c) 2_000_000
    (fun () -> Ntcs_sim.Sched.kill (Cluster.sched c) managed.Ntcs_drts.Process_ctl.m_pid);
  Cluster.settle ~dt:30_000_000 c;
  match !outcome with
  | None -> Alcotest.fail "client did not finish"
  | Some (Ok _) -> Alcotest.fail "send to a dead module with no replacement must fail"
  | Some (Error e) ->
    Alcotest.(check bool) "call simply returns with an error (§3.5)" true
      (match e with
       | Errors.Destination_dead | Errors.Circuit_failed | Errors.Timeout -> true
       | _ -> false)

let () =
  Alcotest.run "reconfiguration"
    [
      ( "relocation",
        [
          Alcotest.test_case "transparent relocation" `Quick test_transparent_relocation;
          Alcotest.test_case "forwarding table reused" `Quick test_forwarding_table_reused;
          Alcotest.test_case "relocation across networks" `Quick test_relocation_across_networks;
          Alcotest.test_case "kill without replacement" `Quick
            test_kill_without_replacement_errors;
        ] );
      ( "loss",
        [
          Alcotest.test_case "drops bounded during reconfig" `Quick
            test_async_sends_may_drop_during_reconfig;
          Alcotest.test_case "static run loses nothing" `Quick test_static_run_loses_nothing;
        ] );
    ]
