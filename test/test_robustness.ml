(* Adversarial-input robustness: garbage bytes on raw circuits, malformed
   naming-service requests, orphan IVC labels at gateways. "The NTCS (like
   any communication system), quickly became inundated with the handling of
   unlikely exceptional conditions" (§6.3) — none of them may crash a
   module. *)

open Ntcs
open Helpers

let no_crashes c =
  Ntcs_sim.Trace.matching (Ntcs_sim.World.trace (Cluster.world c)) ~cat:"sim.proc_crash"

let test_garbage_bytes_on_raw_circuit () =
  (* Connect straight to a module's listening socket and write noise: not a
     HELLO, not even a frame. The module must drop it and keep serving. *)
  let c = lan_cluster () in
  Cluster.settle c;
  spawn_echo c ~machine:"sun1" ~name:"svc";
  Cluster.settle c;
  (* Find the service's physical address via the naming service. *)
  let svc_phys = ref None in
  ignore
    (Cluster.spawn c ~machine:"vax1" ~name:"snoop" (fun node ->
         let commod = bind_exn node ~name:"snoop" in
         let addr = check_ok "locate" (Ali_layer.locate commod "svc") in
         let entry = check_ok "resolve" (Ali_layer.locate_entry commod addr) in
         svc_phys := List.nth_opt entry.Ns_proto.e_phys 0));
  Cluster.settle c;
  let attacker_done = ref false in
  ignore
    (Cluster.spawn c ~machine:"sun2" ~name:"attacker" (fun node ->
         match Option.bind !svc_phys Ntcs_ipcs.Phys_addr.of_string with
         | None -> Alcotest.fail "no phys to attack"
         | Some phys -> (
           match
             Std_if.connect node.Node.ipcs ~machine:(Node.machine node) ~dst:phys
           with
           | Error _ -> Alcotest.fail "attacker connect failed"
           | Ok lvc ->
             ignore (Helpers.lvc_send lvc (Bytes.of_string "not a frame at all"));
             ignore (Helpers.lvc_send lvc (Bytes.make 3 '\255'));
             attacker_done := true)));
  Cluster.settle c;
  (* Service still answers a legitimate client. *)
  let legit = ref None in
  ignore
    (Cluster.spawn c ~machine:"sun2" ~name:"legit" (fun node ->
         let commod = bind_exn node ~name:"legit" in
         let addr = check_ok "locate" (Ali_layer.locate commod "svc") in
         legit := Some (Ali_layer.send_sync commod ~dst:addr (raw "still there?"))));
  Cluster.settle ~dt:20_000_000 c;
  Alcotest.(check bool) "attacker ran" true !attacker_done;
  (match !legit with
   | Some (Ok env) -> Alcotest.(check string) "service survived" "echo:still there?" (body env)
   | Some (Error e) -> Alcotest.failf "service broken by garbage: %s" (Errors.to_string e)
   | None -> Alcotest.fail "legit client never ran");
  Alcotest.(check int) "no crashes" 0 (List.length (no_crashes c));
  (* Garbage arriving before the handshake is rejected there and traced. *)
  Alcotest.(check bool) "rejection recorded" true
    (List.length
       (Ntcs_sim.Trace.matching (Ntcs_sim.World.trace (Cluster.world c))
          ~cat:"nd.handshake_fail")
     >= 1
    || Ntcs_obs.Registry.get (Cluster.metrics c) "nd.bad_frames" >= 1)

let test_malformed_ns_request () =
  (* Speak the nucleus protocol correctly but send unparseable request bytes
     to the name server under its own app tag. *)
  let c = lan_cluster () in
  Cluster.settle c;
  let outcome = ref None and after = ref None in
  ignore
    (Cluster.spawn c ~machine:"sun1" ~name:"fuzzer" (fun node ->
         let commod = bind_exn node ~name:"fuzzer" in
         let lcm = Commod.lcm commod in
         let ns = List.nth (Nsp_layer.name_server_addrs (Commod.nsp_exn commod)) 0 in
         outcome :=
           Some
             (Lcm_layer.send_sync lcm ~dst:ns ~app_tag:Ns_proto.app_tag
                ~timeout_us:1_000_000
                (raw "definitely-not-a-packed-request"));
         (* The server must still answer real requests afterwards. *)
         after := Some (Ali_layer.locate commod "fuzzer")));
  Cluster.settle ~dt:20_000_000 c;
  (match !outcome with
   | Some (Error Errors.Timeout) -> () (* server ignored the garbage *)
   | Some (Error e) -> Alcotest.failf "unexpected: %s" (Errors.to_string e)
   | Some (Ok _) -> Alcotest.fail "the name server answered garbage"
   | None -> Alcotest.fail "fuzzer never ran");
  (match !after with
   | Some (Ok _) -> ()
   | Some (Error e) -> Alcotest.failf "name server damaged: %s" (Errors.to_string e)
   | None -> Alcotest.fail "no follow-up");
  Alcotest.(check int) "no crashes" 0 (List.length (no_crashes c))

let test_orphan_ivc_label_at_gateway () =
  (* Frames with labels no splice knows are dropped and counted; the
     gateway keeps forwarding real traffic. *)
  let c = two_net_cluster () in
  Cluster.settle c;
  spawn_echo c ~machine:"ap1" ~name:"ring-svc";
  Cluster.settle ~dt:5_000_000 c;
  ignore
    (Cluster.spawn c ~machine:"vax1" ~name:"mischief" (fun node ->
         let commod = bind_exn node ~name:"mischief" in
         let addr = check_ok "locate" (Ali_layer.locate commod "ring-svc") in
         ignore
           (check_ok "legit call"
              (Ali_layer.send_sync commod ~dst:addr ~timeout_us:10_000_000 (raw "one")));
         (* Inject a frame with a bogus label on the chain's first-leg
            circuit (the LVC to the gateway). *)
         let ivc =
           match Ip_layer.find_ivc (Commod.ip commod) addr with
           | Some ivc -> ivc
           | None -> Alcotest.fail "no chained ivc for the service"
         in
         let bogus =
           Proto.make_header ~kind:Proto.Data ~src:(Commod.my_addr commod) ~dst:addr
             ~ivc:987654 ~payload_len:0 ()
         in
         (match Nd_layer.send_frame ivc.Ip_layer.circuit bogus (Bytes.of_string "orphan") with
          | Ok () -> ()
          | Error e -> Alcotest.failf "bogus send failed: %s" (Errors.to_string e));
         (* Legit traffic still flows. *)
         ignore
           (check_ok "still works"
              (Ali_layer.send_sync commod ~dst:addr ~timeout_us:10_000_000 (raw "two")))));
  Cluster.settle ~dt:40_000_000 c;
  Alcotest.(check bool) "orphan counted" true
    (Ntcs_obs.Registry.get (Cluster.metrics c) "gw.orphan_frames" >= 1);
  Alcotest.(check int) "no crashes" 0 (List.length (no_crashes c))

let test_gateway_circuit_key_stable_under_chained_traffic () =
  (* Regression: forwarded frames carry theremote origin's source address; the
     ND-layer must not re-key its circuit to the gateway on them. After a
     chained conversation, the circuit is still findable by the gateway's
     own address (so later chains reuse the LVC). *)
  let c = two_net_cluster () in
  Cluster.settle c;
  spawn_echo c ~machine:"ap1" ~name:"ring-svc";
  Cluster.settle ~dt:5_000_000 c;
  let found = ref None in
  ignore
    (Cluster.spawn c ~machine:"vax1" ~name:"client" (fun node ->
         let commod = bind_exn node ~name:"client" in
         let addr = check_ok "locate" (Ali_layer.locate commod "ring-svc") in
         ignore
           (check_ok "chained call"
              (Ali_layer.send_sync commod ~dst:addr ~timeout_us:10_000_000 (raw "x")));
         let nd = Commod.nd commod in
         found :=
           Some
             (List.exists
                (fun wk ->
                  wk.Node.wk_is_gateway && Nd_layer.find_circuit nd wk.Node.wk_addr <> None)
                (Cluster.config c).Node.well_known)));
  Cluster.settle ~dt:30_000_000 c;
  Alcotest.(check (option bool)) "gateway circuit still keyed by its address" (Some true)
    !found

let test_reply_to_dead_conversation () =
  (* A reply that arrives after the caller timed out is dropped as an
     orphan, not delivered to the wrong conversation. *)
  let c = lan_cluster () in
  Cluster.settle c;
  ignore
    (Cluster.spawn c ~machine:"sun1" ~name:"tortoise" (fun node ->
         let commod = bind_exn node ~name:"tortoise" in
         let rec loop () =
           (match Ali_layer.receive commod with
            | Ok env when Ali_layer.expects_reply env ->
              Ntcs_sim.Sched.sleep (Node.sched node) 2_000_000;
              ignore (Ali_layer.reply commod env (raw "too-late"))
            | Ok _ | Error _ -> ());
           loop ()
         in
         loop ()));
  Cluster.settle c;
  let first = ref None and second = ref None in
  ignore
    (Cluster.spawn c ~machine:"sun2" ~name:"impatient" (fun node ->
         let commod = bind_exn node ~name:"impatient" in
         let addr = check_ok "locate" (Ali_layer.locate commod "tortoise") in
         first := Some (Ali_layer.send_sync commod ~dst:addr ~timeout_us:500_000 (raw "q1"));
         (* Wait past the late reply, then a fresh conversation: it must get
            ITS answer, not the stale one. *)
         Ntcs_sim.Sched.sleep (Node.sched node) 3_000_000;
         second := Some (Ali_layer.send_sync commod ~dst:addr ~timeout_us:4_000_000 (raw "q2"))));
  Cluster.settle ~dt:30_000_000 c;
  (match !first with
   | Some (Error Errors.Timeout) -> ()
   | Some _ -> Alcotest.fail "first call should have timed out"
   | None -> Alcotest.fail "client never ran");
  (match !second with
   | Some (Ok env) -> Alcotest.(check string) "fresh conversation" "too-late" (body env)
   | Some (Error e) -> Alcotest.failf "second call: %s" (Errors.to_string e)
   | None -> Alcotest.fail "no second call");
  Alcotest.(check bool) "orphan reply counted" true
    (Ntcs_obs.Registry.get (Cluster.metrics c) "lcm.orphan_replies" >= 1)

let () =
  Alcotest.run "robustness"
    [
      ( "garbage",
        [
          Alcotest.test_case "raw garbage on a circuit" `Quick test_garbage_bytes_on_raw_circuit;
          Alcotest.test_case "malformed NS request" `Quick test_malformed_ns_request;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "orphan IVC label" `Quick test_orphan_ivc_label_at_gateway;
          Alcotest.test_case "gateway circuit key stable" `Quick
            test_gateway_circuit_key_stable_under_chained_traffic;
          Alcotest.test_case "reply after timeout" `Quick test_reply_to_dead_conversation;
        ] );
    ]
