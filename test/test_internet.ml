(* The portable internet scheme (§4): chained IVCs through gateways, routing
   from naming-service topology, multi-hop chains, cascade teardown on
   gateway failure, and the properties behind experiment E7. *)

open Ntcs
open Helpers

let test_cross_net_conversation () =
  let c = two_net_cluster () in
  Cluster.settle c;
  spawn_echo c ~machine:"ap1" ~name:"ring-svc";
  Cluster.settle ~dt:5_000_000 c;
  let result =
    in_process c ~machine:"vax1" ~name:"lan-client" (fun node ->
        let commod = bind_exn node ~name:"lan-client" in
        let addr = check_ok "locate across nets" (Ali_layer.locate commod "ring-svc") in
        let env =
          check_ok "sync across gateway"
            (Ali_layer.send_sync commod ~dst:addr ~timeout_us:10_000_000 (raw "x-net"))
        in
        body env)
  in
  Cluster.settle ~dt:20_000_000 c;
  Alcotest.(check string) "reply crossed back" "echo:x-net" (result ());
  let m = Cluster.metrics c in
  Alcotest.(check bool) "gateway forwarded traffic" true
    (Ntcs_obs.Registry.get m "gw.forwards" > 0);
  Alcotest.(check bool) "chain was spliced" true (Ntcs_obs.Registry.get m "gw.opens" > 0)

let test_two_hop_chain () =
  let c = three_net_cluster () in
  Cluster.settle c;
  spawn_echo c ~machine:"ap1" ~name:"far-svc";
  Cluster.settle ~dt:5_000_000 c;
  let result =
    in_process c ~machine:"vax1" ~name:"client" (fun node ->
        let commod = bind_exn node ~name:"client" in
        let addr = check_ok "locate 2 hops away" (Ali_layer.locate commod "far-svc") in
        let env =
          check_ok "sync over 2 gateways"
            (Ali_layer.send_sync commod ~dst:addr ~timeout_us:15_000_000 (raw "deep"))
        in
        body env)
  in
  Cluster.settle ~dt:30_000_000 c;
  Alcotest.(check string) "echo over two hops" "echo:deep" (result ());
  (* Both gateways must have spliced a leg. *)
  Alcotest.(check bool) "both gateways spliced" true
    (List.for_all (fun gw -> Gateway.splice_count gw > 0) (Cluster.gateway_list c))

let test_direct_traffic_skips_gateway () =
  let c = two_net_cluster () in
  Cluster.settle c;
  spawn_echo c ~machine:"ap1" ~name:"ring-svc";
  Cluster.settle ~dt:5_000_000 c;
  let m = Cluster.metrics c in
  let forwards_before = Ntcs_obs.Registry.get m "gw.forwards" in
  let result =
    in_process c ~machine:"ap2" ~name:"ring-client" (fun node ->
        let commod = bind_exn node ~name:"ring-client" in
        let addr = check_ok "locate" (Ali_layer.locate commod "ring-svc") in
        let env = check_ok "local sync" (Ali_layer.send_sync commod ~dst:addr (raw "near")) in
        body env)
  in
  Cluster.settle ~dt:10_000_000 c;
  Alcotest.(check string) "local echo" "echo:near" (result ());
  (* Local traffic between ring modules uses a single LVC: no new gateway
     data forwarding beyond the client's own NS conversation. The server
     conversation itself must not traverse the gateway: assert that the
     direct circuit exists by checking the metric stayed close. *)
  let forwards_after = Ntcs_obs.Registry.get m "gw.forwards" in
  (* The client still registers via the gateway (NS is on the LAN); allow
     that but require the echo exchange itself to add no data forwards:
     registration+locate account for <= 8 forwarded frames. *)
  Alcotest.(check bool) "echo stayed on the ring" true (forwards_after - forwards_before <= 8)

let test_no_inter_gateway_protocol () =
  (* §4.2: "no inter-gateway communication ever takes place" outside the
     circuit chains themselves. With a single gateway there is trivially no
     peer; with two gateways on disjoint paths, neither ever opens a circuit
     to the other unless a chain passes through both. Here both bridges
     bridge the same two nets; traffic to the ring needs exactly one. *)
  let c =
    Cluster.build
      ~nets:[ ("ether", Ntcs_sim.Net.Tcp_lan); ("ring", Ntcs_sim.Net.Mbx_ring) ]
      ~machines:
        [
          ("vax1", Ntcs_sim.Machine.Vax, [ "ether" ]);
          ("bridge1", Ntcs_sim.Machine.Sun3, [ "ether"; "ring" ]);
          ("bridge2", Ntcs_sim.Machine.Sun3, [ "ether"; "ring" ]);
          ("ap1", Ntcs_sim.Machine.Apollo, [ "ring" ]);
        ]
      ~gateways:[ ("gw1", "bridge1", [ "ether"; "ring" ]); ("gw2", "bridge2", [ "ether"; "ring" ]) ]
      ~ns:"vax1" ()
  in
  Cluster.settle c;
  spawn_echo c ~machine:"ap1" ~name:"svc";
  Cluster.settle ~dt:5_000_000 c;
  ignore
    ((in_process c ~machine:"vax1" ~name:"client" (fun node ->
          let commod = bind_exn node ~name:"client" in
          let addr = check_ok "locate" (Ali_layer.locate commod "svc") in
          ignore
            (check_ok "sync" (Ali_layer.send_sync commod ~dst:addr ~timeout_us:10_000_000 (raw "q")));
          ()))
       : unit -> unit);
  Cluster.settle ~dt:20_000_000 c;
  (* No gateway ComMod ever opened a circuit to another gateway's ComMod:
     check the ND trace for opens between gw-owned modules. *)
  let entries = Ntcs_sim.Trace.matching (Ntcs_sim.World.trace (Cluster.world c)) ~cat:"nd.open" in
  let is_gw_actor e =
    String.length e.Ntcs_sim.Trace.actor >= 3 && String.sub e.Ntcs_sim.Trace.actor 0 3 = "gw/"
  in
  let gw_to_gw =
    List.filter
      (fun e ->
        is_gw_actor e
        && (let detail = e.Ntcs_sim.Trace.detail in
            (* gateway opening toward a well-known gateway address U9xx.* *)
            String.length detail > 1 && String.sub detail 0 2 = "U9"))
      entries
  in
  Alcotest.(check int) "no gateway-to-gateway circuits" 0 (List.length gw_to_gw)

let test_gateway_death_cascades () =
  (* §4.3: killing the gateway machine mid-conversation tears the chain down
     and the originating end observes the failure. *)
  let c = two_net_cluster () in
  Cluster.settle c;
  spawn_echo c ~machine:"ap1" ~name:"ring-svc";
  Cluster.settle ~dt:5_000_000 c;
  let outcome = ref None in
  ignore
    (Cluster.spawn c ~machine:"vax1" ~name:"client" (fun node ->
         let commod = bind_exn node ~name:"client" in
         let addr = check_ok "locate" (Ali_layer.locate commod "ring-svc") in
         ignore
           (check_ok "first sync ok"
              (Ali_layer.send_sync commod ~dst:addr ~timeout_us:10_000_000 (raw "one")));
         (* Wait for the bridge to be crashed, then try again. *)
         Ntcs_sim.Sched.sleep (Node.sched node) 10_000_000;
         outcome := Some (Ali_layer.send_sync commod ~dst:addr ~timeout_us:3_000_000 (raw "two"))));
  Cluster.settle ~dt:5_000_000 c;
  Cluster.crash c "bridge";
  Cluster.settle ~dt:40_000_000 c;
  match !outcome with
  | None -> Alcotest.fail "client did not finish"
  | Some (Ok _) -> Alcotest.fail "conversation should have failed with the only bridge down"
  | Some (Error e) ->
    Alcotest.(check bool) "failure surfaced upward" true
      (match e with
       | Errors.Circuit_failed | Errors.Unreachable | Errors.Timeout
       | Errors.Destination_dead | Errors.Name_service_unavailable -> true
       | _ -> false)

let test_alternate_gateway_survives_failure () =
  (* Two bridges between the same nets: after one dies, new circuits route
     through the survivor (the naming service's topology heals routing). *)
  let c =
    Cluster.build
      ~nets:[ ("ether", Ntcs_sim.Net.Tcp_lan); ("ring", Ntcs_sim.Net.Mbx_ring) ]
      ~machines:
        [
          ("vax1", Ntcs_sim.Machine.Vax, [ "ether" ]);
          ("bridge1", Ntcs_sim.Machine.Sun3, [ "ether"; "ring" ]);
          ("bridge2", Ntcs_sim.Machine.Sun3, [ "ether"; "ring" ]);
          ("ap1", Ntcs_sim.Machine.Apollo, [ "ring" ]);
        ]
      ~gateways:[ ("gw1", "bridge1", [ "ether"; "ring" ]); ("gw2", "bridge2", [ "ether"; "ring" ]) ]
      ~ns:"vax1" ()
  in
  Cluster.settle c;
  spawn_echo c ~machine:"ap1" ~name:"svc";
  Cluster.settle ~dt:5_000_000 c;
  let outcome = ref None in
  ignore
    (Cluster.spawn c ~machine:"vax1" ~name:"client" (fun node ->
         let commod = bind_exn node ~name:"client" in
         let addr = check_ok "locate" (Ali_layer.locate commod "svc") in
         ignore
           (check_ok "warm"
              (Ali_layer.send_sync commod ~dst:addr ~timeout_us:10_000_000 (raw "one")));
         Ntcs_sim.Sched.sleep (Node.sched node) 10_000_000;
         (* First attempt may fail while the break is detected; retry once. *)
         let second = Ali_layer.send_sync commod ~dst:addr ~timeout_us:5_000_000 (raw "two") in
         let second =
           match second with
           | Ok _ -> second
           | Error _ -> Ali_layer.send_sync commod ~dst:addr ~timeout_us:10_000_000 (raw "two")
         in
         outcome := Some second));
  Cluster.settle ~dt:5_000_000 c;
  Cluster.crash c "bridge1";
  Cluster.settle ~dt:60_000_000 c;
  match !outcome with
  | None -> Alcotest.fail "client did not finish"
  | Some (Error e) -> Alcotest.failf "no failover through second bridge: %s" (Errors.to_string e)
  | Some (Ok env) -> Alcotest.(check string) "failover echo" "echo:two" (body env)

let test_hops_recorded () =
  (* The header's hop counter feeds E7: direct = 0, one gateway = 2 legs but
     the hop field counts gateway transits. *)
  let c = three_net_cluster () in
  Cluster.settle c;
  (* A server that reports the hop count it observed. *)
  ignore
    (Cluster.spawn c ~machine:"ap1" ~name:"hopsvc" (fun node ->
         let commod = bind_exn node ~name:"hopsvc" in
         let lcm = Commod.lcm commod in
         let rec loop () =
           (match Lcm_layer.recv lcm with
            | Ok env when env.Lcm_layer.conv <> 0 ->
              ignore (Lcm_layer.reply lcm env (raw "ok" |> fun p -> p))
            | Ok _ | Error _ -> ());
           loop ()
         in
         loop ()));
  Cluster.settle ~dt:5_000_000 c;
  let m = Cluster.metrics c in
  ignore
    ((in_process c ~machine:"vax1" ~name:"client" (fun node ->
          let commod = bind_exn node ~name:"client" in
          let addr = check_ok "locate" (Ali_layer.locate commod "hopsvc") in
          ignore
            (check_ok "sync" (Ali_layer.send_sync commod ~dst:addr ~timeout_us:15_000_000 (raw "h")));
          ()))
       : unit -> unit);
  Cluster.settle ~dt:30_000_000 c;
  (* Two gateways each forwarded the request and the reply at least once. *)
  Alcotest.(check bool) "gateway forwards counted" true
    (Ntcs_obs.Registry.get m "gw.forwards" >= 4)

let () =
  Alcotest.run "internet"
    [
      ( "chaining",
        [
          Alcotest.test_case "cross-net conversation" `Quick test_cross_net_conversation;
          Alcotest.test_case "two-hop chain" `Quick test_two_hop_chain;
          Alcotest.test_case "direct traffic skips gateway" `Quick
            test_direct_traffic_skips_gateway;
          Alcotest.test_case "hops recorded" `Quick test_hops_recorded;
        ] );
      ( "topology",
        [ Alcotest.test_case "no inter-gateway protocol" `Quick test_no_inter_gateway_protocol ]
      );
      ( "failure",
        [
          Alcotest.test_case "gateway death cascades" `Quick test_gateway_death_cascades;
          Alcotest.test_case "alternate gateway failover" `Quick
            test_alternate_gateway_survives_failure;
        ] );
    ]
