(* The deployment builder: well-known table construction, configuration
   plumbing, spawn/settle semantics, and failure-injection handles. *)

open Ntcs
open Helpers

let test_well_known_table_shape () =
  let c = three_net_cluster () in
  let wk = (Cluster.config c).Node.well_known in
  let ns_entries = List.filter (fun w -> w.Node.wk_is_name_server) wk in
  let gw_entries = List.filter (fun w -> w.Node.wk_is_gateway) wk in
  Alcotest.(check int) "one name server" 1 (List.length ns_entries);
  (* Two prime gateways, one entry per bridged network each. *)
  Alcotest.(check int) "four gateway entries" 4 (List.length gw_entries);
  List.iter
    (fun w ->
      Alcotest.(check bool) "gateway entries serve exactly one net" true
        (List.length w.Node.wk_nets = 1);
      Alcotest.(check int) "gateways span two nets" 2 (List.length w.Node.wk_all_nets);
      Alcotest.(check bool) "phys present" true (w.Node.wk_phys <> []))
    gw_entries;
  (* All well-known addresses are distinct. *)
  let addrs = List.map (fun w -> w.Node.wk_addr) wk in
  Alcotest.(check int) "addresses unique" (List.length addrs)
    (List.length (List.sort_uniq Addr.compare addrs))

let test_gateway_phys_distinct_per_net () =
  let c = three_net_cluster () in
  (* gwA on mid1 bridges lan1 and lan2: one well-known entry per net. *)
  match
    List.filter
      (fun w -> String.starts_with ~prefix:"prime-gw/gwA@" w.Node.wk_name)
      (Cluster.config c).Node.well_known
  with
  | [ a; b ] ->
    Alcotest.(check bool) "per-net resources differ" true (a.Node.wk_phys <> b.Node.wk_phys)
  | ws -> Alcotest.failf "gwA has %d well-known entries, want 2" (List.length ws)

let test_tweak_reaches_modules () =
  let c = lan_cluster ~tweak:(fun cfg -> { cfg with Node.recursion_limit = 7 }) () in
  Cluster.settle c;
  Alcotest.(check int) "config propagated" 7 (Cluster.config c).Node.recursion_limit;
  let observed = ref 0 in
  ignore
    (Cluster.spawn c ~machine:"sun1" ~name:"probe" (fun node ->
         observed := node.Node.config.Node.recursion_limit));
  Cluster.settle c;
  Alcotest.(check int) "modules see the tweak" 7 !observed

let test_clocks_applied () =
  let c =
    Cluster.build
      ~nets:[ ("ether", Ntcs_sim.Net.Tcp_lan) ]
      ~machines:
        [ ("vax1", Ntcs_sim.Machine.Vax, [ "ether" ]);
          ("sun1", Ntcs_sim.Machine.Sun3, [ "ether" ]) ]
      ~clocks:[ ("sun1", 123., 456) ]
      ~ns:"vax1" ()
  in
  let m = Cluster.machine c "sun1" in
  Alcotest.(check (float 1e-9)) "drift" 123. m.Ntcs_sim.Machine.drift_ppm;
  Alcotest.(check int) "offset" 456 m.Ntcs_sim.Machine.offset_us;
  Alcotest.(check (float 1e-9)) "default drift zero" 0.
    (Cluster.machine c "vax1").Ntcs_sim.Machine.drift_ppm

let test_settle_advances_time () =
  let c = lan_cluster () in
  let t0 = Ntcs_sim.World.now (Cluster.world c) in
  Cluster.settle ~dt:1_234_567 c;
  Alcotest.(check int) "advanced exactly dt" (t0 + 1_234_567)
    (Ntcs_sim.World.now (Cluster.world c))

let test_unknown_names_rejected () =
  let c = lan_cluster () in
  Alcotest.check_raises "unknown machine" (Invalid_argument "Cluster: unknown machine nope")
    (fun () -> ignore (Cluster.machine c "nope"));
  Alcotest.check_raises "unknown net" (Invalid_argument "Cluster: unknown network nada")
    (fun () -> ignore (Cluster.net c "nada"))

let test_seed_determinism_end_to_end () =
  (* Two identical runs produce identical metrics — the whole stack,
     registration to teardown, is deterministic. *)
  let run () =
    let c = lan_cluster ~seed:77 () in
    Cluster.settle c;
    spawn_echo c ~machine:"sun1" ~name:"svc";
    Cluster.settle c;
    ignore
      (Cluster.spawn c ~machine:"sun2" ~name:"client" (fun node ->
           let commod = bind_exn node ~name:"client" in
           let addr = check_ok "locate" (Ali_layer.locate commod "svc") in
           for _ = 1 to 10 do
             ignore (Ali_layer.send_sync commod ~dst:addr (raw "x"))
           done));
    Cluster.settle ~dt:30_000_000 c;
    let m = Cluster.metrics c in
    ( (Ntcs_obs.Registry.counters_alist m, Ntcs_obs.Registry.gauges_alist m),
      Ntcs_sim.World.now (Cluster.world c) )
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "identical metrics" true (fst a = fst b);
  Alcotest.(check int) "identical clocks" (snd a) (snd b)

let test_partition_heal_roundtrip () =
  let c = lan_cluster () in
  Cluster.partition c "ether";
  Alcotest.(check bool) "down" false (Cluster.net c "ether").Ntcs_sim.Net.up;
  Cluster.heal c "ether";
  Alcotest.(check bool) "up" true (Cluster.net c "ether").Ntcs_sim.Net.up

let () =
  Alcotest.run "cluster"
    [
      ( "construction",
        [
          Alcotest.test_case "well-known table" `Quick test_well_known_table_shape;
          Alcotest.test_case "per-net gateway resources" `Quick
            test_gateway_phys_distinct_per_net;
          Alcotest.test_case "config tweak" `Quick test_tweak_reaches_modules;
          Alcotest.test_case "clocks" `Quick test_clocks_applied;
          Alcotest.test_case "unknown names" `Quick test_unknown_names_rejected;
        ] );
      ( "running",
        [
          Alcotest.test_case "settle advances time" `Quick test_settle_advances_time;
          Alcotest.test_case "seed determinism" `Quick test_seed_determinism_end_to_end;
          Alcotest.test_case "partition/heal" `Quick test_partition_heal_roundtrip;
        ] );
    ]
