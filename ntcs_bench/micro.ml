(* Caller-side costs for the traced run: the send/lookup ladder on a warm
   circuit, and Bechamel micro-benchmarks of the leaf functions the
   workloads spend their time in. *)

open Ntcs
module Sched = Ntcs_sim.Sched

(* --- the ladder --- *)

(* One async send / cached lookup entered at each layer of a warm Sun3 ->
   Sun3 circuit (the echo-lan world), timed around the call alone, with an
   untimed 1 ms virtual sleep after each so the receiving side drains
   before the next call. Adjacent rungs differ by one layer's own cost. *)
let ladder_rungs =
  [ "ali.send_ns"; "lcm.send_ns"; "ip.send_ns"; "nd.send_frame_ns"; "ali.locate_hit_ns";
    "nsp.lookup_hit_ns" ]

let ladder ~seed ~calls =
  let results = ref [] in
  let c = Workloads.lan_echo_cluster seed in
  let st = Workloads.new_client (Cluster.sched c) in
  ignore
    (Cluster.spawn c ~machine:"sun2" ~name:"client" (fun node ->
         let sched = Node.sched node in
         Workloads.guard st (fun () ->
             match Commod.bind node ~name:"client" with
             | Error e -> Workloads.setup_fail "client bind: %s" (Errors.to_string e)
             | Ok commod ->
               Workloads.with_located commod ~sched "echo" (fun dst ->
                   let payload = Workloads.raw (String.make 64 'x') in
                   for _ = 1 to 50 do
                     if not (Workloads.echo_op commod ~dst payload 0) then
                       Workloads.setup_fail "ladder warm-up call failed"
                   done;
                   let ip = Commod.ip commod in
                   let ivc =
                     match Ip_layer.find_ivc ip dst with
                     | Some ivc -> ivc
                     | None -> Workloads.setup_fail "ladder: no circuit to echo"
                   in
                   let bytes = Bytes.make 64 'x' in
                   let header =
                     Proto.make_header ~kind:Proto.Data
                       ~src:(Nd_layer.my_addr (Commod.nd commod))
                       ~dst:ivc.Ip_layer.wire_dst ~payload_len:64 ()
                   in
                   let nsp = Commod.nsp_exn commod in
                   let rung name f =
                     let xs =
                       Array.init calls (fun _ ->
                           let t0 = Sampler.now_ns () in
                           let ok = f () in
                           let t1 = Sampler.now_ns () in
                           if not ok then Workloads.setup_fail "ladder rung %s failed" name;
                           Sched.sleep sched 1_000;
                           float_of_int (t1 - t0))
                     in
                     results := (name, Sampler.median xs) :: !results
                   in
                   rung "ali.send_ns" (fun () -> Result.is_ok (Ali_layer.send commod ~dst payload));
                   rung "lcm.send_ns" (fun () ->
                       Result.is_ok (Lcm_layer.send (Commod.lcm commod) ~dst payload));
                   rung "ip.send_ns" (fun () ->
                       Result.is_ok (Ip_layer.send ip ivc ~kind:Proto.Data payload));
                   rung "nd.send_frame_ns" (fun () ->
                       Result.is_ok (Nd_layer.send_frame ivc.Ip_layer.circuit header bytes));
                   rung "ali.locate_hit_ns" (fun () ->
                       match Ali_layer.locate commod "echo" with
                       | Ok a -> Addr.equal a dst
                       | Error _ -> false);
                   rung "nsp.lookup_hit_ns" (fun () ->
                       match Nsp_layer.lookup nsp "echo" with
                       | Ok a -> Addr.equal a dst
                       | Error _ -> false);
                   st.Workloads.finished <- true))));
  Workloads.step_until (Cluster.sched c) ~limit_us:600_000_000
    (fun () -> st.Workloads.finished || st.Workloads.error <> None)
    "ladder";
  Option.iter (fun e -> Workloads.setup_fail "%s" e) st.Workloads.error;
  List.map (fun name -> (name, List.assoc name !results)) ladder_rungs

(* --- Bechamel micro-benchmarks: ns and minor words per run --- *)

let micro_names =
  [ "proto.encode_into"; "proto.view_patch"; "pool.alloc_release"; "packed.pack_256";
    "packed.unpack_256"; "ns_cache.find"; "name_server.lookup"; "trace.record";
    "registry.incr"; "sched.mailbox_rtt" ]

let micro_tests () =
  let open Ntcs_wire in
  let len = 256 in
  let h =
    Proto.make_header ~kind:Proto.Data
      ~src:(Addr.unique ~server_id:1 ~value:7)
      ~dst:(Addr.unique ~server_id:2 ~value:9)
      ~ivc:3 ~payload_len:len ()
  in
  let payload = Bytes.make len 'x' in
  let frame = Proto.encode_frame h payload in
  let buf = Bytes.create (Proto.header_bytes + len) in
  let pool = Ntcs_util.Pool.create () in
  let layout, values = Workloads.payload_256 in
  let codec = Packed.of_layout layout in
  let packed = Packed.run_pack codec values in
  let keys = Array.init 512 (Printf.sprintf "svc-%d") in
  let cache = Ntcs_naming.Ns_cache.create ~capacity:512 ~nshards:4 in
  Array.iteri
    (fun i k -> Ntcs_naming.Ns_cache.store cache k ~value:i ~shard:(i mod 4) ~gen:1 ~expiry:max_int)
    keys;
  let ki = ref 0 in
  let ns_cluster =
    Cluster.build
      ~nets:[ ("ether", Ntcs_sim.Net.Tcp_lan) ]
      ~machines:[ ("vax1", Ntcs_sim.Machine.Vax, [ "ether" ]) ]
      ~ns:"vax1" ()
  in
  Cluster.settle ns_cluster;
  let ns = Cluster.primary_ns ns_cluster in
  Name_server.preload ns (List.init Workloads.svc_names (fun i -> (Printf.sprintf "svc-%d" i, [])));
  let lookups =
    Array.init Workloads.svc_names (fun i -> Ns_proto.Lookup_v (Printf.sprintf "svc-%d" i, 0))
  in
  let li = ref 0 in
  let trace = Ntcs_sim.Trace.create () in
  let tn = ref 0 in
  let registry = Ntcs_obs.Registry.create () in
  let sched = Sched.create () in
  let ping = Sched.Mailbox.create sched and pong = Sched.Mailbox.create sched in
  ignore
    (Sched.spawn ~name:"pong" sched (fun () ->
         while true do
           match Sched.Mailbox.recv ping with
           | Some () -> Sched.Mailbox.send pong ()
           | None -> ()
         done));
  Sched.run sched;
  [
    ("proto.encode_into", fun () -> ignore (Proto.Frame.encode_into h ~payload buf ~off:0));
    ( "proto.view_patch",
      fun () ->
        let v = Proto.Frame.of_bytes frame in
        let hd = Proto.Frame.header v in
        Proto.Frame.patch_ivc v (hd.Proto.ivc + 1);
        Proto.Frame.patch_hops v 1 );
    ( "pool.alloc_release",
      fun () ->
        let b = Ntcs_util.Pool.alloc pool (Proto.header_bytes + len) in
        Ntcs_util.Pool.release pool b );
    ("packed.pack_256", fun () -> ignore (Packed.run_pack codec values));
    ("packed.unpack_256", fun () -> ignore (Packed.run_unpack codec packed));
    ( "ns_cache.find",
      fun () ->
        ki := (!ki + 1) land 511;
        ignore (Ntcs_naming.Ns_cache.find cache ~now:0 keys.(!ki)) );
    ( "name_server.lookup",
      fun () ->
        li := (!li + 1) mod Workloads.svc_names;
        ignore (Name_server.handle_request ns lookups.(!li)) );
    ( "trace.record",
      fun () ->
        (* The trace is append-only; clear it so the run's memory stays flat. *)
        incr tn;
        if !tn land 4095 = 0 then Ntcs_sim.Trace.clear trace;
        Ntcs_sim.Trace.record trace ~at_us:0 ~cat:"bench.micro" ~actor:"bench" "detail" );
    ("registry.incr", fun () -> Ntcs_obs.Registry.incr registry "bench.micro");
    ( "sched.mailbox_rtt",
      fun () ->
        Sched.Mailbox.send ping ();
        Sched.run sched;
        ignore (Sched.Mailbox.recv_opt pong) );
  ]

(* ns per run from Bechamel's OLS fit on the monotonic clock; minor words
   per run counted directly over a fixed loop, since Bechamel's allocation
   counter reads the coarse per-domain GC statistics of OCaml 5. *)
let micro ~quota =
  let open Bechamel in
  let all = micro_tests () in
  let tests = List.map (fun name -> (name, List.assoc name all)) micro_names in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second quota) ~kde:None () in
  let raw =
    Benchmark.all cfg
      Toolkit.Instance.[ monotonic_clock ]
      (Test.make_grouped ~name:"m"
         (List.map (fun (name, f) -> Test.make ~name (Staged.stage f)) tests))
  in
  let fits = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let ns name =
    match Hashtbl.find_opt fits ("m/" ^ name) with
    | Some fit -> (
      match Analyze.OLS.estimates fit with Some (e :: _) -> e | Some [] | None -> nan)
    | None -> nan
  in
  let words f =
    let n = 1000 in
    f ();
    let w0 = Gc.minor_words () in
    for _ = 1 to n do
      f ()
    done;
    (Gc.minor_words () -. w0) /. float_of_int n
  in
  List.map (fun (name, f) -> (name, ns name, words f)) tests
