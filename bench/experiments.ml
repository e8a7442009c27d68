(* The experiment harness: one function per entry in DESIGN.md §5.

   The paper's evaluation is qualitative (no numeric tables), so each
   experiment regenerates the *measurable content* of a claim from §§3-7 and
   prints the series. Protocol experiments run in virtual time on the
   deterministic simulator; conversion micro-benchmarks (E5) use Bechamel on
   the host CPU. *)

open Ntcs
open Ntcs_wire

let raw s = Convert.payload_raw (Bytes.of_string s)

let lan_cluster ?tweak () =
  Cluster.build ?tweak
    ~nets:[ ("ether", Ntcs_sim.Net.Tcp_lan) ]
    ~machines:
      [
        ("vax1", Ntcs_sim.Machine.Vax, [ "ether" ]);
        ("sun1", Ntcs_sim.Machine.Sun3, [ "ether" ]);
        ("sun2", Ntcs_sim.Machine.Sun3, [ "ether" ]);
        ("ap-host", Ntcs_sim.Machine.Apollo, [ "ether" ]);
      ]
    ~ns:"vax1" ()

let spawn_echo cluster ~machine ~name =
  ignore
    (Cluster.spawn cluster ~machine ~name (fun node ->
         match Commod.bind node ~name with
         | Error _ -> ()
         | Ok commod ->
           let rec loop () =
             (match Ali_layer.receive commod with
              | Ok env when Ali_layer.expects_reply env ->
                ignore (Ali_layer.reply commod env (raw "ok"))
              | Ok _ | Error _ -> ());
             loop ()
           in
           loop ()))

(* ------------------------------------------------------------------ *)
(* E1: name-server removal with warm caches (§3.3)                     *)
(* ------------------------------------------------------------------ *)

let e1_ns_removal () =
  Bench_util.header "E1: operation with the Name Server removed"
    "§3.3 \"the Name Server can be removed with no consequence, unless the system is reconfigured\"";
  let c = lan_cluster () in
  Cluster.settle c;
  spawn_echo c ~machine:"sun1" ~name:"svc";
  Cluster.settle c;
  let warm_ok = ref 0 and after_ok = ref 0 and after_fail = ref 0 in
  let new_resolution = ref "-" in
  ignore
    (Cluster.spawn c ~machine:"sun2" ~name:"client" (fun node ->
         match Commod.bind node ~name:"client" with
         | Error _ -> ()
         | Ok commod ->
           (match Ali_layer.locate commod "svc" with
            | Error _ -> ()
            | Ok addr ->
              for _ = 1 to 10 do
                match Ali_layer.send_sync commod ~dst:addr (raw "warm") with
                | Ok _ -> incr warm_ok
                | Error _ -> ()
              done;
              (* NS is killed at t+6s; continue well after. *)
              Ntcs_sim.Sched.sleep (Node.sched node) 8_000_000;
              for _ = 1 to 10 do
                match Ali_layer.send_sync commod ~dst:addr (raw "post") with
                | Ok _ -> incr after_ok
                | Error _ -> incr after_fail
              done;
              new_resolution :=
                (match Ali_layer.locate commod "unresolved-name" with
                 | Ok _ -> "resolved (unexpected)"
                 | Error e -> Errors.to_string e))));
  Ntcs_sim.Sched.after (Cluster.sched c) 6_000_000 (fun () ->
      Cluster.crash c "vax1");
  Cluster.settle ~dt:60_000_000 c;
  Bench_util.table
    ~columns:[ "phase"; "sync calls ok"; "failed" ]
    [
      [ "name server up (warm-up)"; string_of_int !warm_ok; "0" ];
      [ "name server REMOVED, cached addresses"; string_of_int !after_ok;
        string_of_int !after_fail ];
    ];
  Printf.printf "\n  fresh resolution after removal: %s (expected: name-service-unavailable)\n"
    !new_resolution;
  Printf.printf "  paper-shape check: %s\n"
    (if !after_ok = 10 && !after_fail = 0 then "HOLDS — cached operation unaffected"
     else "VIOLATED")

(* ------------------------------------------------------------------ *)
(* E2: address resolution latency, cold vs cached (§3.3)               *)
(* ------------------------------------------------------------------ *)

let e2_resolution () =
  Bench_util.header "E2: name resolution latency (cold vs cached)"
    "§3.3 address caching; §2.4 resource location primitives";
  let c = lan_cluster () in
  Cluster.settle c;
  for i = 0 to 9 do
    spawn_echo c ~machine:"sun1" ~name:(Printf.sprintf "svc%d" i)
  done;
  Cluster.settle c;
  let cold = Ntcs_util.Stats.create () and cached = Ntcs_util.Stats.create () in
  ignore
    (Cluster.spawn c ~machine:"sun2" ~name:"client" (fun node ->
         match Commod.bind node ~name:"client" with
         | Error _ -> ()
         | Ok commod ->
           for i = 0 to 9 do
             let name = Printf.sprintf "svc%d" i in
             let t0 = Node.now node in
             (match Ali_layer.locate commod name with Ok _ | Error _ -> ());
             Ntcs_util.Stats.add cold (float_of_int (Node.now node - t0));
             for _ = 1 to 5 do
               let t0 = Node.now node in
               (match Ali_layer.locate commod name with Ok _ | Error _ -> ());
               Ntcs_util.Stats.add cached (float_of_int (Node.now node - t0))
             done
           done));
  Cluster.settle ~dt:60_000_000 c;
  let m = Cluster.metrics c in
  Bench_util.table
    ~columns:[ "lookup"; "n"; "mean"; "p95" ]
    [
      [ "cold (name server round trip)"; string_of_int (Ntcs_util.Stats.count cold);
        Bench_util.us (Ntcs_util.Stats.mean cold);
        Bench_util.us (Ntcs_util.Stats.percentile cold 95.) ];
      [ "cached (NSP-layer cache)"; string_of_int (Ntcs_util.Stats.count cached);
        Bench_util.us (Ntcs_util.Stats.mean cached);
        Bench_util.us (Ntcs_util.Stats.percentile cached 95.) ];
    ];
  Printf.printf "\n  speedup: %s   nsp cache hits: %d   ns lookups served: %d\n"
    (Bench_util.ratio (Ntcs_util.Stats.mean cold) (Ntcs_util.Stats.mean cached))
    (Ntcs_obs.Registry.get m "nsp.cache_hits")
    (Ntcs_obs.Registry.get m "ns.lookups");
  Printf.printf "  paper-shape check: %s\n"
    (if Ntcs_util.Stats.mean cached < Ntcs_util.Stats.mean cold /. 10. then
       "HOLDS — cached resolution is local (orders of magnitude cheaper)"
     else "VIOLATED")

(* ------------------------------------------------------------------ *)
(* E3: TAdd purge (§3.4)                                               *)
(* ------------------------------------------------------------------ *)

let e3_tadd_purge () =
  Bench_util.header "E3: temporary addresses purged at first real contact"
    "§3.4 \"TAdds for any given module will be purged from all layers within the first two communications with the Name Server\"";
  (* Single-net and cross-gateway cases. *)
  let run_case ~label ~cluster ~machine =
    let c = cluster () in
    Cluster.settle c;
    let m = Cluster.metrics c in
    let purged_before = Ntcs_obs.Registry.get m "tadd.purged" in
    let ns_msgs = ref 0 in
    ignore
      (Cluster.spawn c ~machine ~name:"module" (fun node ->
           match Commod.bind node ~name:"fresh-module" with
           | Error _ -> ()
           | Ok commod ->
             ns_msgs := 1 (* registration *);
             (* second NS communication *)
             (match Ali_layer.locate commod "fresh-module" with Ok _ | Error _ -> ());
             incr ns_msgs));
    Cluster.settle ~dt:30_000_000 c;
    let purged = Ntcs_obs.Registry.get m "tadd.purged" - purged_before in
    [ label; string_of_int !ns_msgs; string_of_int purged;
      (if purged >= 1 then "yes (<= 2 exchanges)" else "NO") ]
  in
  let two_net () =
    Cluster.build
      ~nets:[ ("ether", Ntcs_sim.Net.Tcp_lan); ("ring", Ntcs_sim.Net.Mbx_ring) ]
      ~machines:
        [
          ("vax1", Ntcs_sim.Machine.Vax, [ "ether" ]);
          ("bridge", Ntcs_sim.Machine.Sun3, [ "ether"; "ring" ]);
          ("ap1", Ntcs_sim.Machine.Apollo, [ "ring" ]);
        ]
      ~gateways:[ ("gw", "bridge", [ "ether"; "ring" ]) ]
      ~ns:"vax1" ()
  in
  Bench_util.table
    ~columns:[ "topology"; "NS exchanges"; "TAdds purged"; "purged in time?" ]
    [
      run_case ~label:"same network (direct LVC)" ~cluster:lan_cluster ~machine:"sun1";
      run_case ~label:"across a gateway (chained IVC)" ~cluster:two_net ~machine:"ap1";
    ];
  Printf.printf "\n  paper-shape check: purge happens during registration round trip in both cases\n"

(* ------------------------------------------------------------------ *)
(* E4: dynamic reconfiguration (§3.5)                                  *)
(* ------------------------------------------------------------------ *)

let e4_reconfig () =
  Bench_util.header "E4: dynamic reconfiguration under load"
    "§3.5 transparent relocation; bounded loss only during the reconfiguration itself";
  let run ~relocate =
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
              (match Ali_layer.receive commod with
               | Ok env ->
                 incr received;
                 if Ali_layer.expects_reply env then
                   ignore (Ali_layer.reply commod env (raw "ok"))
               | Error _ -> ());
              loop ()
            in
            loop ());
      }
    in
    let pctl = Ntcs_drts.Process_ctl.create c in
    let managed = Ntcs_drts.Process_ctl.start pctl spec ~machine:"sun1" in
    Cluster.settle c;
    let sent = ref 0 and sync_ok = ref 0 and sync_err = ref 0 in
    let downtime = ref 0 in
    ignore
      (Cluster.spawn c ~machine:"vax1" ~name:"load" (fun node ->
           match Commod.bind node ~name:"load" with
           | Error _ -> ()
           | Ok commod -> (
             match Ali_layer.locate commod "sink" with
             | Error _ -> ()
             | Ok addr ->
               let last_ok = ref (Node.now node) in
               for _ = 1 to 50 do
                 (match Ali_layer.send commod ~dst:addr (raw "m") with
                  | Ok () -> incr sent
                  | Error _ -> ());
                 (match
                    Ali_layer.send_sync commod ~dst:addr ~timeout_us:1_500_000 (raw "s")
                  with
                  | Ok _ ->
                    incr sync_ok;
                    incr sent (* the sync datum also arrives at the sink *);
                    last_ok := Node.now node
                  | Error _ ->
                    incr sync_err;
                    downtime := max !downtime (Node.now node - !last_ok));
                 Ntcs_sim.Sched.sleep (Node.sched node) 250_000
               done)));
    if relocate then
      Ntcs_sim.Sched.after (Cluster.sched c) 6_000_000 (fun () ->
          ignore (Ntcs_drts.Process_ctl.relocate pctl managed ~to_machine:"sun2"));
    Cluster.settle ~dt:60_000_000 c;
    let m = Cluster.metrics c in
    ( !sent, !received, !sync_ok, !sync_err, !downtime,
      Ntcs_obs.Registry.get m "lcm.relocations" )
  in
  let s_sent, s_recv, s_ok, s_err, _, _ = run ~relocate:false in
  let r_sent, r_recv, r_ok, r_err, r_down, r_reloc = run ~relocate:true in
  Bench_util.table
    ~columns:
      [ "run"; "delivered/sent"; "sync ok"; "sync failed"; "relocations"; "max gap" ]
    [
      [ "static (control)"; Printf.sprintf "%d/%d" s_recv s_sent; string_of_int s_ok;
        string_of_int s_err; "0"; "-" ];
      [ "relocated mid-run"; Printf.sprintf "%d/%d" r_recv r_sent; string_of_int r_ok;
        string_of_int r_err; string_of_int r_reloc; Bench_util.us (float_of_int r_down) ];
    ];
  Printf.printf "\n  paper-shape check: %s\n"
    (if s_recv = s_sent && r_sent - r_recv <= 4 && r_ok >= 45 then
       "HOLDS — static lossless; relocation costs at most a few in-flight messages"
     else "VIOLATED")

(* ------------------------------------------------------------------ *)
(* E5: conversion-mode micro-benchmarks (§5) — Bechamel, host CPU      *)
(* ------------------------------------------------------------------ *)

let e5_conversion () =
  Bench_util.header "E5: conversion cost by mode and message size"
    "§5 image = byte copy; packed = character conversion; shift = header-only";
  let layout_of_size n =
    (* ~n bytes: mix of ints and a char array, the shape of URSA messages *)
    let ints = max 1 (n / 16) in
    let arr = max 4 (n - (ints * 4)) in
    List.init ints (fun _ -> Layout.F_i32) @ [ Layout.F_char_array arr ]
  in
  let values_of layout =
    List.map
      (function
        | Layout.F_i32 -> Layout.V_int 123456789
        | Layout.F_char_array n -> Layout.V_str (String.make (n - 1) 'd')
        | Layout.F_i8 | Layout.F_i16 | Layout.F_i64 -> Layout.V_int 1)
      layout
  in
  let sizes = [ 64; 1024; 8192 ] in
  let tests =
    List.concat_map
      (fun size ->
        let layout = layout_of_size size in
        let values = values_of layout in
        let packed_codec = Packed.of_layout layout in
        let packed_bytes = Packed.run_pack packed_codec values in
        let image_bytes = Layout.encode ~order:Endian.Be layout values in
        let header =
          Proto.make_header ~kind:Proto.Data
            ~src:(Addr.unique ~server_id:0 ~value:1)
            ~dst:(Addr.unique ~server_id:0 ~value:2)
            ~payload_len:size ()
        in
        Bechamel.
          [
            Test.make
              ~name:(Printf.sprintf "image-encode/%d" size)
              (Staged.stage (fun () -> ignore (Layout.encode ~order:Endian.Be layout values)));
            Test.make
              ~name:(Printf.sprintf "image-decode/%d" size)
              (Staged.stage (fun () ->
                   ignore (Layout.decode ~order:Endian.Be layout image_bytes)));
            Test.make
              ~name:(Printf.sprintf "packed-pack/%d" size)
              (Staged.stage (fun () -> ignore (Packed.run_pack packed_codec values)));
            Test.make
              ~name:(Printf.sprintf "packed-unpack/%d" size)
              (Staged.stage (fun () -> ignore (Packed.run_unpack packed_codec packed_bytes)));
            Test.make
              ~name:(Printf.sprintf "shift-header/%d" size)
              (Staged.stage (fun () -> ignore (Proto.encode_header header)));
          ])
      sizes
  in
  let results = Bench_util.bechamel_run tests in
  Bench_util.table ~columns:[ "operation"; "time/run" ]
    (List.map (fun (name, est) -> [ name; Bench_util.ns_per_run est ]) results);
  let get prefix size =
    match
      List.assoc_opt (Printf.sprintf "g/%s/%d" prefix size) results
    with
    | Some v -> v
    | None -> (
      match List.assoc_opt (Printf.sprintf "%s/%d" prefix size) results with
      | Some v -> v
      | None -> nan)
  in
  let img = get "image-encode" 8192 and pkd = get "packed-pack" 8192 in
  Printf.printf "\n  image vs packed at 8KB: %s cheaper\n" (Bench_util.ratio pkd img);
  Printf.printf "  paper-shape check: %s\n"
    (if (not (Float.is_nan img)) && (not (Float.is_nan pkd)) && img < pkd then
       "HOLDS — byte-copy image mode beats character conversion; adaptive choice avoids needless cost"
     else "check estimates above")

(* ------------------------------------------------------------------ *)
(* E6: adaptive mode selection (§5)                                    *)
(* ------------------------------------------------------------------ *)

let e6_adaptive () =
  Bench_util.header "E6: no needless conversions; mode adapts to relocation"
    "§5 \"results in no needless data conversions, and adapts dynamically to the environment as modules are relocated\"";
  let c = lan_cluster () in
  Cluster.settle c;
  let m = Cluster.metrics c in
  let pctl = Ntcs_drts.Process_ctl.create c in
  let spec =
    {
      Ntcs_drts.Process_ctl.sp_name = "peer";
      sp_attrs = [];
      sp_body =
        (fun commod ->
          let rec loop () =
            (match Ali_layer.receive commod with
             | Ok env when Ali_layer.expects_reply env ->
               ignore (Ali_layer.reply commod env (raw "ok"))
             | Ok _ | Error _ -> ());
            loop ()
          in
          loop ());
    }
  in
  (* Peer starts on a Sun (same representation as the Sun client). *)
  let managed = Ntcs_drts.Process_ctl.start pctl spec ~machine:"sun1" in
  Cluster.settle c;
  let snap () =
    ( Ntcs_obs.Registry.get m "conv.image_msgs.client",
      Ntcs_obs.Registry.get m "conv.packed_msgs.client" )
  in
  let before = ref (0, 0) and middle = ref (0, 0) and final = ref (0, 0) in
  ignore
    (Cluster.spawn c ~machine:"sun2" ~name:"client" (fun node ->
         match Commod.bind node ~name:"client" with
         | Error _ -> ()
         | Ok commod -> (
           match Ali_layer.locate commod "peer" with
           | Error _ -> ()
           | Ok addr ->
             before := snap ();
             for _ = 1 to 10 do
               ignore (Ali_layer.send_sync commod ~dst:addr (raw "homo"))
             done;
             middle := snap ();
             (* Wait for the peer to be relocated onto the VAX. *)
             Ntcs_sim.Sched.sleep (Node.sched node) 6_000_000;
             for _ = 1 to 10 do
               ignore
                 (Ali_layer.send_sync commod ~dst:addr ~timeout_us:3_000_000 (raw "hetero"))
             done;
             final := snap ())));
  Ntcs_sim.Sched.after (Cluster.sched c) 4_000_000 (fun () ->
      ignore (Ntcs_drts.Process_ctl.relocate pctl managed ~to_machine:"vax1"));
  Cluster.settle ~dt:60_000_000 c;
  let b_img, b_pkd = !before and m_img, m_pkd = !middle and f_img, f_pkd = !final in
  let phase1 = (m_img - b_img, m_pkd - b_pkd) in
  let phase2 = (f_img - m_img, f_pkd - m_pkd) in
  Bench_util.table
    ~columns:[ "phase"; "image msgs"; "packed msgs" ]
    [
      [ "Sun -> Sun (identical repr)"; string_of_int (fst phase1); string_of_int (snd phase1) ];
      [ "Sun -> VAX (after relocation)"; string_of_int (fst phase2);
        string_of_int (snd phase2) ];
    ];
  Printf.printf "\n  paper-shape check: %s\n"
    (if snd phase1 = 0 && fst phase1 >= 10 && snd phase2 >= 10 && fst phase2 <= 2 then
       "HOLDS — zero conversions between identical machines; packed mode engaged automatically after relocation"
     else "VIOLATED")

(* ------------------------------------------------------------------ *)
(* E7: internet round trips by gateway hops (§4)                       *)
(* ------------------------------------------------------------------ *)

let e7_internet () =
  Bench_util.header "E7: round-trip latency vs gateway hops"
    "§4 chained LVCs through gateways; establishment rare, data forwarding cheap";
  (* A line of TCP LANs: client on lan0, servers at increasing distance. *)
  let hops_max = 3 in
  let nets = List.init (hops_max + 1) (fun i -> (Printf.sprintf "lan%d" i, Ntcs_sim.Net.Tcp_lan)) in
  let machines =
    ("client-m", Ntcs_sim.Machine.Sun3, [ "lan0" ])
    :: ("ns-m", Ntcs_sim.Machine.Vax, [ "lan0" ])
    :: List.init (hops_max + 1) (fun i ->
           (Printf.sprintf "srv%d" i, Ntcs_sim.Machine.Sun3, [ Printf.sprintf "lan%d" i ]))
    @ List.init hops_max (fun i ->
          ( Printf.sprintf "gwm%d" i,
            Ntcs_sim.Machine.Sun3,
            [ Printf.sprintf "lan%d" i; Printf.sprintf "lan%d" (i + 1) ] ))
  in
  let gateways =
    List.init hops_max (fun i ->
        ( Printf.sprintf "gw%d" i,
          Printf.sprintf "gwm%d" i,
          [ Printf.sprintf "lan%d" i; Printf.sprintf "lan%d" (i + 1) ] ))
  in
  let c = Cluster.build ~nets ~machines ~gateways ~ns:"ns-m" () in
  Cluster.settle c;
  for i = 0 to hops_max do
    spawn_echo c ~machine:(Printf.sprintf "srv%d" i) ~name:(Printf.sprintf "echo%d" i)
  done;
  Cluster.settle ~dt:10_000_000 c;
  let results = Array.make (hops_max + 1) (0., 0., 0.) in
  ignore
    (Cluster.spawn c ~machine:"client-m" ~name:"client" (fun node ->
         match Commod.bind node ~name:"client" with
         | Error _ -> ()
         | Ok commod ->
           for i = 0 to hops_max do
             match Ali_layer.locate commod (Printf.sprintf "echo%d" i) with
             | Error _ -> ()
             | Ok addr ->
               let t_open0 = Node.now node in
               (* First exchange includes circuit establishment. *)
               (match
                  Ali_layer.send_sync commod ~dst:addr ~timeout_us:30_000_000 (raw "warm")
                with
                | Ok _ | Error _ -> ());
               let setup = float_of_int (Node.now node - t_open0) in
               let s = Ntcs_util.Stats.create () in
               for _ = 1 to 20 do
                 let t0 = Node.now node in
                 (match
                    Ali_layer.send_sync commod ~dst:addr ~timeout_us:30_000_000 (raw "ping")
                  with
                  | Ok _ | Error _ -> ());
                 Ntcs_util.Stats.add s (float_of_int (Node.now node - t0))
               done;
               results.(i) <- (setup, Ntcs_util.Stats.mean s, Ntcs_util.Stats.percentile s 95.)
           done));
  Cluster.settle ~dt:120_000_000 c;
  Bench_util.table
    ~columns:[ "gateway hops"; "setup+first RTT"; "steady RTT (mean)"; "p95" ]
    (List.init (hops_max + 1) (fun i ->
         let setup, mean, p95 = results.(i) in
         [ string_of_int i; Bench_util.us setup; Bench_util.us mean; Bench_util.us p95 ]));
  let _, rtt0, _ = results.(0) and _, rtt3, _ = results.(hops_max) in
  Printf.printf "\n  gw.forwards total: %d\n"
    (Ntcs_obs.Registry.get (Cluster.metrics c) "gw.forwards");
  Printf.printf "  paper-shape check: %s\n"
    (if rtt0 > 0. && rtt3 > rtt0 && rtt3 < rtt0 *. 16. then
       "HOLDS — latency grows roughly linearly with hops; chains stay usable"
     else "VIOLATED")

(* ------------------------------------------------------------------ *)
(* E8: the §6.1 recursion scenario                                     *)
(* ------------------------------------------------------------------ *)

let e8_recursion () =
  Bench_util.header "E8: recursion on a monitored first send"
    "§6.1 scenario: time stamp -> time service -> resource location -> send -> monitor, recursively";
  let run ~services =
    let tweak cfg =
      if services then { cfg with Node.monitoring = true; timestamps = true } else cfg
    in
    let c = lan_cluster ~tweak:(fun c -> c) () in
    Cluster.settle c;
    if services then begin
      ignore (Cluster.spawn c ~machine:"sun2" ~name:"time-server" (fun node ->
                Ntcs_drts.Time_service.serve node ()));
      ignore (Cluster.spawn c ~machine:"sun2" ~name:"monitor" (fun node ->
                Ntcs_drts.Monitor.serve node ()))
    end;
    spawn_echo c ~machine:"sun1" ~name:"svc";
    Cluster.settle c;
    let stats = ref (0, 0, 0) in
    let config = tweak (Cluster.config c) in
    ignore
      (Cluster.spawn c ~config ~machine:"ap-host" ~name:"app" (fun node ->
           match Commod.bind node ~name:"app" with
           | Error _ -> ()
           | Ok commod ->
             if services then begin
               Ntcs_drts.Time_service.install (Ntcs_drts.Time_service.create commod);
               Ntcs_drts.Monitor.install (Ntcs_drts.Monitor.create_client commod)
             end;
             (match Ali_layer.locate commod "svc" with
              | Error _ -> ()
              | Ok addr ->
                ignore (Ali_layer.send_sync commod ~dst:addr ~timeout_us:10_000_000 (raw "first")));
             stats := Ali_layer.recursion_stats commod));
    Cluster.settle ~dt:60_000_000 c;
    !stats
  in
  let pe, pr, pd = run ~services:false in
  let me_, mr, md = run ~services:true in
  Bench_util.table
    ~columns:[ "configuration"; "ComMod entries"; "recursive entries"; "max depth" ]
    [
      [ "monitoring+time OFF"; string_of_int pe; string_of_int pr; string_of_int pd ];
      [ "monitoring+time ON"; string_of_int me_; string_of_int mr; string_of_int md ];
    ];
  Printf.printf "\n  paper-shape check: %s\n"
    (if mr > pr && me_ > pe then
       "HOLDS — DRTS services multiply ComMod entries and nesting, exactly the §6.1 story"
     else "VIOLATED")

(* ------------------------------------------------------------------ *)
(* E9: the §6.3 name-server fault recursion (ablation)                 *)
(* ------------------------------------------------------------------ *)

let e9_ns_bug () =
  Bench_util.header "E9: name-server circuit break — guard ablation"
    "§6.3 fault handler recurses through the NSP \"until either the stack overflows, or the connection can be reestablished\"";
  let run ~guard =
    let tweak cfg = { cfg with Node.ns_fault_guard = guard; recursion_limit = 40 } in
    let c = lan_cluster ~tweak () in
    Cluster.settle c;
    spawn_echo c ~machine:"sun1" ~name:"svc";
    Cluster.settle c;
    let outcome = ref "did not finish" in
    ignore
      (Cluster.spawn c ~machine:"sun2" ~name:"app" (fun node ->
           match Commod.bind node ~name:"app" with
           | Error _ -> ()
           | Ok commod ->
             ignore (Ali_layer.locate commod "svc");
             Ntcs_sim.Sched.sleep (Node.sched node) 4_000_000;
             outcome :=
               (match Ali_layer.locate commod "fresh-name" with
                | Ok _ -> "resolved (unexpected)"
                | Error e -> "error: " ^ Errors.to_string e)));
    Ntcs_sim.Sched.after (Cluster.sched c) 2_000_000 (fun () -> Cluster.partition c "ether");
    Cluster.settle ~dt:60_000_000 c;
    let m = Cluster.metrics c in
    let crashes =
      Ntcs_sim.Trace.matching (Ntcs_sim.World.trace (Cluster.world c)) ~cat:"sim.proc_crash"
    in
    ( !outcome,
      Ntcs_obs.Registry.get m "lcm.fault_queries",
      Ntcs_obs.Registry.get m "lcm.ns_guard_hits",
      List.length crashes )
  in
  let on_out, on_q, on_g, on_c = run ~guard:true in
  let off_out, off_q, off_g, off_c = run ~guard:false in
  Bench_util.table
    ~columns:[ "LCM guard"; "outcome"; "fault queries"; "guard hits"; "crashed procs" ]
    [
      [ "ON (the paper's patch)"; on_out; string_of_int on_q; string_of_int on_g;
        string_of_int on_c ];
      [ "OFF (the original bug)"; off_out; string_of_int off_q; string_of_int off_g;
        string_of_int off_c ];
    ];
  Printf.printf "\n  paper-shape check: %s\n"
    (if on_c = 0 && on_g > 0 && (off_c > 0 || off_q >= 5) then
       "HOLDS — guarded faults stay bounded; unguarded ones recurse until the (simulated) stack gives out"
     else "VIOLATED")

(* ------------------------------------------------------------------ *)
(* E10: replicated name service (§7 successor)                         *)
(* ------------------------------------------------------------------ *)

let e10_replication () =
  Bench_util.header "E10: centralized vs replicated name service under failure"
    "§7 \"the latter will be replicated for failure resiliency\"";
  let run ~replicas =
    let c =
      Cluster.build
        ~nets:[ ("ether", Ntcs_sim.Net.Tcp_lan) ]
        ~machines:
          ([ ("vax1", Ntcs_sim.Machine.Vax, [ "ether" ]);
             ("sun1", Ntcs_sim.Machine.Sun3, [ "ether" ]);
             ("sun2", Ntcs_sim.Machine.Sun3, [ "ether" ]) ]
          @ List.init replicas (fun i ->
                (Printf.sprintf "nsr%d" i, Ntcs_sim.Machine.Vax, [ "ether" ])))
        ~ns:"vax1"
        ~ns_replicas:(List.init replicas (fun i -> Printf.sprintf "nsr%d" i))
        ()
    in
    Cluster.settle c;
    spawn_echo c ~machine:"sun1" ~name:"svc";
    Cluster.settle c;
    let ok_before = ref 0 and ok_after = ref 0 and fail_after = ref 0 in
    let latency_after = Ntcs_util.Stats.create () in
    ignore
      (Cluster.spawn c ~machine:"sun2" ~name:"client" (fun node ->
           match Commod.bind node ~name:"client" with
           | Error _ -> ()
           | Ok commod ->
             let nsp = Commod.nsp_exn commod in
             for _ = 1 to 5 do
               Nsp_layer.invalidate nsp;
               match Ali_layer.locate commod "svc" with
               | Ok _ -> incr ok_before
               | Error _ -> ()
             done;
             Ntcs_sim.Sched.sleep (Node.sched node) 6_000_000;
             for _ = 1 to 5 do
               Nsp_layer.invalidate nsp;
               let t0 = Node.now node in
               (match Ali_layer.locate commod "svc" with
                | Ok _ ->
                  incr ok_after;
                  Ntcs_util.Stats.add latency_after (float_of_int (Node.now node - t0))
                | Error _ -> incr fail_after)
             done));
    Ntcs_sim.Sched.after (Cluster.sched c) 4_000_000 (fun () -> Cluster.crash c "vax1");
    Cluster.settle ~dt:120_000_000 c;
    (!ok_before, !ok_after, !fail_after, Ntcs_util.Stats.mean latency_after)
  in
  let cb, ca, cf, _ = run ~replicas:0 in
  let rb, ra, rf, rl = run ~replicas:2 in
  Bench_util.table
    ~columns:
      [ "configuration"; "lookups before crash"; "after crash ok"; "after crash failed";
        "post-crash latency" ]
    [
      [ "1 name server (centralized)"; string_of_int cb; string_of_int ca; string_of_int cf;
        "-" ];
      [ "3 name servers (replicated)"; string_of_int rb; string_of_int ra; string_of_int rf;
        Bench_util.us rl ];
    ];
  Printf.printf "\n  paper-shape check: %s\n"
    (if ca = 0 && ra = 5 && rf = 0 then
       "HOLDS — centralized naming dies with its host; replicas keep resolving"
     else "VIOLATED")

(* ------------------------------------------------------------------ *)
(* E11: URSA end-to-end                                                *)
(* ------------------------------------------------------------------ *)

let e11_ursa () =
  Bench_util.header "E11: URSA retrieval over the NTCS"
    "§1.2 backend servers behind the NTCS; one network vs across a gateway";
  let run ~spread =
    let c =
      if spread then
        Cluster.build
          ~nets:[ ("ether", Ntcs_sim.Net.Tcp_lan); ("ring", Ntcs_sim.Net.Mbx_ring) ]
          ~machines:
            [
              ("vax1", Ntcs_sim.Machine.Vax, [ "ether" ]);
              ("bridge", Ntcs_sim.Machine.Sun3, [ "ether"; "ring" ]);
              ("ap1", Ntcs_sim.Machine.Apollo, [ "ring" ]);
              ("ap2", Ntcs_sim.Machine.Apollo, [ "ring" ]);
            ]
          ~gateways:[ ("gw", "bridge", [ "ether"; "ring" ]) ]
          ~ns:"vax1" ()
      else lan_cluster ()
    in
    Cluster.settle c;
    let corpus = Ursa.Corpus.generate 120 in
    let machines = if spread then [ "ap1"; "ap2" ] else [ "sun1"; "sun2" ] in
    Ursa.Host.deploy c ~machines ~partitions:4 ~corpus ~search_machine:"vax1";
    Cluster.settle ~dt:20_000_000 c;
    let lat = Ntcs_util.Stats.create () in
    let ok = ref 0 and fail = ref 0 in
    let queries =
      [ "gateway routing circuit"; "name server resolution"; "index search ranking";
        "byte ordering machine"; "portable layer module" ]
    in
    ignore
      (Cluster.spawn c ~machine:"vax1" ~name:"user" (fun node ->
           match Commod.bind node ~name:"user" with
           | Error _ -> ()
           | Ok commod ->
             let host = Ursa.Host.create commod in
             for round = 1 to 4 do
               ignore round;
               List.iter
                 (fun q ->
                   let t0 = Node.now node in
                   match Ursa.Host.search ~k:10 ~timeout_us:30_000_000 host q with
                   | Ok r when r.Ursa.Ursa_msg.sr_partitions = 4 ->
                     incr ok;
                     Ntcs_util.Stats.add lat (float_of_int (Node.now node - t0))
                   | Ok _ -> incr fail
                   | Error _ -> incr fail)
                 queries
             done));
    Cluster.settle ~dt:240_000_000 c;
    (!ok, !fail, Ntcs_util.Stats.median lat, Ntcs_util.Stats.percentile lat 95.)
  in
  let lok, lfail, lp50, lp95 = run ~spread:false in
  let sok, sfail, sp50, sp95 = run ~spread:true in
  Bench_util.table
    ~columns:[ "deployment"; "queries ok"; "failed"; "latency p50"; "p95" ]
    [
      [ "backends on one LAN"; string_of_int lok; string_of_int lfail; Bench_util.us lp50;
        Bench_util.us lp95 ];
      [ "backends across a gateway"; string_of_int sok; string_of_int sfail;
        Bench_util.us sp50; Bench_util.us sp95 ];
    ];
  Printf.printf "\n  paper-shape check: %s\n"
    (if lok = 20 && sok = 20 && sp50 > lp50 then
       "HOLDS — identical results either way; internetting costs latency, not function"
     else "VIOLATED")

(* ------------------------------------------------------------------ *)
(* A1 ablation: adaptive mode selection vs always-packed               *)
(* ------------------------------------------------------------------ *)

let a1_always_packed () =
  Bench_util.header "A1 (ablation): adaptive mode selection vs always-packed"
    "§5 design choice — what a system that always converts would pay (wire bytes + latency)";
  let run ~force_packed ~size =
    let tweak cfg = { cfg with Node.force_packed } in
    let c = lan_cluster ~tweak () in
    Cluster.settle c;
    spawn_echo c ~machine:"sun1" ~name:"svc";
    Cluster.settle c;
    let m = Cluster.metrics c in
    let bytes_before = ref 0 in
    let lat = Ntcs_util.Stats.create () in
    (* A structured message: ints + text, the shape that inflates most under
       character conversion. *)
    let layout =
      List.init (size / 8) (fun _ -> Layout.F_i32) @ [ Layout.F_char_array (size / 2) ]
    in
    let values =
      List.map
        (function
          | Layout.F_i32 -> Layout.V_int 305419896
          | Layout.F_char_array n -> Layout.V_str (String.make (n - 1) 'x')
          | Layout.F_i8 | Layout.F_i16 | Layout.F_i64 -> Layout.V_int 0)
        layout
    in
    let payload =
      Convert.payload
        ~image:(fun () -> Layout.encode ~order:Endian.Be layout values)
        ~packed:(fun () -> Packed.run_pack (Packed.of_layout layout) values)
    in
    ignore
      (Cluster.spawn c ~machine:"sun2" ~name:"client" (fun node ->
           match Commod.bind node ~name:"client" with
           | Error _ -> ()
           | Ok commod -> (
             match Ali_layer.locate commod "svc" with
             | Error _ -> ()
             | Ok addr ->
               (* Warm the circuit, then measure. *)
               ignore (Ali_layer.send_sync commod ~dst:addr ~timeout_us:10_000_000 payload);
               bytes_before := Ntcs_obs.Registry.get m "net.bytes";
               for _ = 1 to 20 do
                 let t0 = Node.now node in
                 (match
                    Ali_layer.send_sync commod ~dst:addr ~timeout_us:10_000_000 payload
                  with
                  | Ok _ | Error _ -> ());
                 Ntcs_util.Stats.add lat (float_of_int (Node.now node - t0))
               done)));
    Cluster.settle ~dt:120_000_000 c;
    let bytes = Ntcs_obs.Registry.get m "net.bytes" - !bytes_before in
    (Ntcs_util.Stats.mean lat, bytes / 20)
  in
  let size = 4096 in
  let adaptive_lat, adaptive_bytes = run ~force_packed:false ~size in
  let forced_lat, forced_bytes = run ~force_packed:true ~size in
  Bench_util.table
    ~columns:[ "mode policy (Sun <-> Sun)"; "RTT mean"; "wire bytes / exchange" ]
    [
      [ "adaptive (the paper's design)"; Bench_util.us adaptive_lat;
        string_of_int adaptive_bytes ];
      [ "always packed (ablation)"; Bench_util.us forced_lat; string_of_int forced_bytes ];
    ];
  Printf.printf "\n  inflation: %s bytes, %s latency\n"
    (Bench_util.ratio (float_of_int forced_bytes) (float_of_int adaptive_bytes))
    (Bench_util.ratio forced_lat adaptive_lat);
  Printf.printf "  paper-shape check: %s\n"
    (if forced_bytes > adaptive_bytes && forced_lat > adaptive_lat then
       "HOLDS — needless conversion inflates the wire format and the latency"
     else "VIOLATED")

(* ------------------------------------------------------------------ *)
(* A2 ablation: NSP-layer caching off                                  *)
(* ------------------------------------------------------------------ *)

(* The §3.5 relocation storm on a four-shard naming plane (DESIGN.md §15):
   the service's machine crashes and a new generation re-registers, twice,
   while a client polls it. [st_recovery_us] is the virtual time from the
   last relocation to the first good reply, -1 if none came. *)
type storm = {
  st_recovery_us : int;
  st_ns_lookups : int;
  st_hits : int;
  st_stale : int;
  st_floor_raises : int;
}

let relocation_storm ~ttl =
  let last_relocation = 15_000_000 in
  let c =
    Cluster.build
      ~config:
        {
          Ntcs_sim.World.Config.default with
          Ntcs_sim.World.Config.naming = { shards = 4; cache_capacity = 512 };
          faults =
            Some
              {
                Ntcs_sim.Faults.seed = 0xBE9C;
                rules = [];
                schedule =
                  [
                    (6_000_000, Ntcs_sim.Faults.Crash "ap1");
                    (8_000_000, Ntcs_sim.Faults.Restart "ap1");
                    (12_000_000, Ntcs_sim.Faults.Crash "ap1");
                    (14_000_000, Ntcs_sim.Faults.Restart "ap1");
                  ];
              };
        }
      ~tweak:(fun cfg -> { cfg with Node.ns_cache_ttl_us = ttl })
      ~nets:[ ("ether", Ntcs_sim.Net.Tcp_lan) ]
      ~machines:
        [
          ("vax1", Ntcs_sim.Machine.Vax, [ "ether" ]);
          ("sun1", Ntcs_sim.Machine.Sun3, [ "ether" ]);
          ("sun2", Ntcs_sim.Machine.Sun3, [ "ether" ]);
          ("ap1", Ntcs_sim.Machine.Apollo, [ "ether" ]);
        ]
      ~ns:"vax1" ~ns_replicas:[ "sun1"; "sun2" ] ()
  in
  Cluster.settle c;
  spawn_echo c ~machine:"ap1" ~name:"svc";
  Cluster.settle c;
  let respawn at =
    Ntcs_sim.Sched.at (Cluster.sched c) at (fun () ->
        spawn_echo c ~machine:"ap1" ~name:"svc")
  in
  respawn 9_000_000;
  respawn last_relocation;
  let recovered = ref (-1) in
  ignore
    (Cluster.spawn c ~machine:"sun2" ~name:"client" (fun node ->
         match Commod.bind node ~name:"client" with
         | Error _ -> ()
         | Ok commod ->
           let sched = Node.sched node in
           let rec poll () =
             if Ntcs_sim.Sched.now sched > 35_000_000 || !recovered >= 0 then ()
             else begin
               (match Ali_layer.locate commod "svc" with
                | Error _ -> ()
                | Ok addr -> (
                  match
                    Ali_layer.send_sync commod ~dst:addr ~timeout_us:800_000 (raw "probe")
                  with
                  | Ok _ when Ntcs_sim.Sched.now sched > last_relocation ->
                    recovered := Ntcs_sim.Sched.now sched
                  | Ok _ | Error _ -> ()));
               Ntcs_sim.Sched.sleep sched 800_000;
               poll ()
             end
           in
           poll ()));
  Cluster.settle ~dt:40_000_000 c;
  let m = Cluster.metrics c in
  {
    st_recovery_us = (if !recovered < 0 then -1 else !recovered - last_relocation);
    st_ns_lookups = Ntcs_obs.Registry.get m "ns.lookups";
    st_hits = Ntcs_obs.Registry.get m "nsp.cache_hits";
    st_stale = Ntcs_obs.Registry.get m "nsp.cache_stale";
    st_floor_raises = Ntcs_obs.Registry.get m "nsp.cache_invalidations";
  }

let a2_no_cache () =
  Bench_util.header "A2 (ablation): NSP-layer caching disabled"
    "§3.3 locally cached resolutions; \"centralized topology was tolerable since this information is only required at circuit establishment time\"";
  let run ~ttl =
    let tweak cfg = { cfg with Node.ns_cache_ttl_us = ttl } in
    let c = lan_cluster ~tweak () in
    Cluster.settle c;
    for i = 0 to 4 do
      spawn_echo c ~machine:"sun1" ~name:(Printf.sprintf "svc%d" i)
    done;
    Cluster.settle c;
    let m = Cluster.metrics c in
    let lat = Ntcs_util.Stats.create () in
    ignore
      (Cluster.spawn c ~machine:"sun2" ~name:"client" (fun node ->
           match Commod.bind node ~name:"client" with
           | Error _ -> ()
           | Ok commod ->
             for round = 1 to 10 do
               ignore round;
               for i = 0 to 4 do
                 let t0 = Node.now node in
                 (match Ali_layer.locate commod (Printf.sprintf "svc%d" i) with
                  | Ok _ | Error _ -> ());
                 Ntcs_util.Stats.add lat (float_of_int (Node.now node - t0))
               done
             done));
    Cluster.settle ~dt:120_000_000 c;
    (Ntcs_util.Stats.mean lat, Ntcs_obs.Registry.get m "ns.lookups")
  in
  let cached_lat, cached_load = run ~ttl:60_000_000 in
  let raw_lat, raw_load = run ~ttl:0 in
  Bench_util.table
    ~columns:[ "NSP cache"; "locate latency (mean)"; "name-server lookups" ]
    [
      [ "on (60s TTL)"; Bench_util.us cached_lat; string_of_int cached_load ];
      [ "off (every locate is a round trip)"; Bench_util.us raw_lat; string_of_int raw_load ];
    ];
  Printf.printf "\n  name-server load multiplier without caching: %s\n"
    (Bench_util.ratio (float_of_int raw_load) (float_of_int cached_load));
  let storm_on = relocation_storm ~ttl:Node.default_config.Node.ns_cache_ttl_us in
  let storm_off = relocation_storm ~ttl:0 in
  Printf.printf
    "\n  relocation storm, 4 shards (2 crash/re-register cycles, client polling):\n\n";
  Bench_util.table
    ~columns:[ "NSP cache"; "recovery"; "ns lookups"; "hits"; "stale"; "floor raises" ]
    (List.map
       (fun (label, r) ->
         [
           label;
           (if r.st_recovery_us < 0 then "never" else Printf.sprintf "%d us" r.st_recovery_us);
           string_of_int r.st_ns_lookups;
           string_of_int r.st_hits;
           string_of_int r.st_stale;
           string_of_int r.st_floor_raises;
         ])
       [ ("on (versioned invalidation)", storm_on); ("off (ttl 0)", storm_off) ]);
  let storm_faster =
    storm_on.st_recovery_us >= 0
    && (storm_off.st_recovery_us < 0 || storm_on.st_recovery_us < storm_off.st_recovery_us)
    && storm_on.st_ns_lookups < storm_off.st_ns_lookups
  in
  Printf.printf "\n  paper-shape check: %s\n"
    (if raw_load >= cached_load * 5 && raw_lat > cached_lat *. 5. && storm_faster then
       "HOLDS — caching is what makes centralized naming tolerable"
     else "VIOLATED")
