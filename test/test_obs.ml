(* The observability plane (DESIGN.md §10): span contexts round-trip the
   wire, the registry sees every layer, the span log of a healthy run obeys
   the causal invariants, and the exporters are byte-deterministic — two
   equal-seed worlds serialize to identical stats JSON, span JSONL and
   Chrome trace, which is what makes those exports usable as goldens. *)

open Ntcs
module Span = Ntcs_obs.Span
module Registry = Ntcs_obs.Registry
module Export = Ntcs_obs.Export
module Histo = Ntcs_obs.Histo

(* --- span contexts --- *)

let test_span_strings () =
  let ctx = Span.make ~circuit:42 ~seq:7 in
  Alcotest.(check string) "to_string" "c42#7" (Span.to_string ctx);
  Alcotest.(check bool) "none is none" true (Span.is_none Span.none);
  Alcotest.(check bool) "real ctx is not none" false (Span.is_none ctx)

let test_span_header_roundtrip () =
  let src = Addr.unique ~server_id:1 ~value:10 in
  let dst = Addr.unique ~server_id:1 ~value:11 in
  let span = Span.make ~circuit:12345 ~seq:678 in
  let h =
    Proto.make_header ~kind:Proto.Data ~src ~dst ~seq:9 ~conv:3 ~span ~payload_len:4 ()
  in
  let h', payload = Helpers.decode_frame (Proto.encode_frame h (Bytes.of_string "abcd")) in
  Alcotest.(check bool) "span survives the wire" true (h'.Proto.span = span);
  Alcotest.(check string) "payload intact" "abcd" (Bytes.to_string payload);
  (* The default header carries the null context. *)
  let plain = Proto.make_header ~kind:Proto.Ping ~src ~dst ~payload_len:0 () in
  let plain', _ = Helpers.decode_frame (Proto.encode_frame plain Bytes.empty) in
  Alcotest.(check bool) "default is none" true (Span.is_none plain'.Proto.span)

(* Each typed detail renders as the text its producer formatted while
   details were strings: the format strings below are copied from those
   producers, so a printer that drifts (a swapped field, a lost space)
   fails here before any golden moves. Names, keys and addresses are
   random single words. *)
let test_detail_printer =
  let word = QCheck.Gen.(string_size ~gen:(char_range '!' '~') (int_range 1 8)) in
  let gen = QCheck.Gen.(triple (array_repeat 4 nat) (array_repeat 5 word) bool) in
  let print = QCheck.Print.(triple (array int) (array string) bool) in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:300 ~name:"detail printer" (QCheck.make ~print gen)
       (fun (n, w, forced) ->
         let a = n.(0) and b = n.(1) and c = n.(2) and d = n.(3) in
         let s = w.(0) and t = w.(1) and u = w.(2) and v = w.(3) and x = w.(4) in
         let sp = Printf.sprintf in
         List.iter
           (fun (detail, want) ->
             let got = Span.detail_to_string detail in
             if got <> want then QCheck.Test.fail_reportf "%S rendered as %S" want got)
           [
             ( Leg { net_a = a; label_a = b; net_b = c; label_b = d; dst = Some s },
               sp "net%d label %d <-> net%d label %d dst=%s" a b c d s );
             ( Leg { net_a = a; label_a = b; net_b = c; label_b = d; dst = None },
               sp "net%d label %d <-> net%d label %d" a b c d );
             ( Forward { net_a = a; label_a = b; net_b = c; label_b = d; kind = s; dst = t },
               sp "net%d label %d -> net%d label %d " a b c d ^ sp "%skind=%s %s=%s" "" s "dst" t );
             (Ivc_open { dst = s; hops = a; label = b }, sp "to %s via %d hop(s) label %d" s a b);
             (Label { label = a; rest = " to " ^ s }, sp "label %d to %s" a s);
             ( Label { label = a; rest = " peer " ^ s ^ " local reason=" ^ t },
               sp "label %d peer %s local reason=%s" a s t );
             (Label { label = a; rest = " peer " ^ s ^ " remote" }, sp "label %d peer %s remote" a s);
             (Label { label = a; rest = "" }, sp "label %d" a);
             (Ivc_accept { src = s; label = a }, sp "from %s label %d" s a);
             ( Convert { mode = s; local = t; remote = u; dst = v; forced },
               sp "mode=%s local=%s remote=%s dst=%s%s" s t u v (if forced then " forced" else "") );
             (Nd_open { addr = s; phys = t }, sp "%s at %s" s t);
             (Depth a, string_of_int a);
             (Cache_entry { kind = s; key = t; shard = a; gen = b }, sp "%s:%s shard %d gen %d" s t a b);
             (Floor { shard = a; floor = b }, sp "shard %d floor %d" a b);
             ( Shard_hop { name = s; from_shard = a; to_shard = b; hop = c },
               sp "%s: shard %d -> %d hop %d" s a b c );
             ( Shard_gen { shard = a; gen = b; what = s; name = t; addr = None },
               sp "shard %d gen %d: %s %s" a b s t );
             ( Shard_gen { shard = a; gen = b; what = s; name = t; addr = Some x },
               sp "shard %d gen %d: %s %s (%s)" a b s t x );
           ];
         true))

(* --- histograms --- *)

let test_histo_basics () =
  let h = Histo.create () in
  Alcotest.(check int) "fresh is empty" 0 (Histo.count h);
  List.iter (Histo.add h) [ 0; 1; 2; 3; 10; 100; 1000; 1000 ];
  Alcotest.(check int) "count" 8 (Histo.count h);
  Alcotest.(check int) "sum" 2116 (Histo.sum h);
  Alcotest.(check int) "min" 0 (Histo.summary h).Histo.s_min;
  Alcotest.(check int) "max" 1000 (Histo.max_value h);
  Alcotest.(check bool) "p50 <= p95" true (Histo.p50 h <= Histo.p95 h);
  Alcotest.(check bool) "p95 <= p99" true (Histo.p95 h <= Histo.p99 h);
  Alcotest.(check int) "p99 clamps to observed max" 1000 (Histo.p99 h);
  (* Small exact buckets: single-sample histograms answer exactly. *)
  let one = Histo.create () in
  Histo.add one 3;
  Alcotest.(check int) "exact small bucket" 3 (Histo.p50 one)

(* --- the span log --- *)

let test_span_log_order () =
  (* Enough events to fill two storage chunks and start a third. *)
  let r = Registry.create () in
  let n = 2500 in
  for i = 1 to n do
    Registry.span r
      (Span.event ~at_us:i ~ctx:(Span.make ~circuit:1 ~seq:i) ~phase:Span.I ~name:"nd.tx"
         ~actor:"a" (Text ""))
  done;
  Alcotest.(check int) "count" n (Registry.span_count r);
  Alcotest.(check (list int)) "oldest first" (List.init n (fun i -> i + 1))
    (List.map (fun (e : Span.event) -> e.Span.ev_at_us) (Registry.spans r));
  Registry.clear_spans r;
  Alcotest.(check int) "clearing empties the log" 0 (List.length (Registry.spans r))

(* Trace entries share the log as null-context instants. They belong to no
   circuit: the span checker must not take them for hops on an unopened
   circuit 0, and the per-circuit grouping behind ntcs_stat's timelines
   must not grow a c0 row from them. *)
let test_trace_entries_join_no_circuit () =
  let r = Registry.create () in
  let tr ~at_us cat detail = Ntcs_sim.Trace.record r ~at_us ~cat ~actor:"m1/app" detail in
  let sp ~at_us ~seq phase name text =
    Registry.span r
      (Span.event ~at_us ~ctx:(Span.make ~circuit:1 ~seq) ~phase ~name ~actor:"m1/app"
         (Text text))
  in
  tr ~at_us:1 "nd.open" "U0.1 at ether:1";
  sp ~at_us:2 ~seq:0 Span.B "lcm.circuit" "dst=U0.1";
  tr ~at_us:3 "ip.convert" "mode=image local=be remote=be";
  sp ~at_us:4 ~seq:1 Span.B "lcm.send" "dst=U0.1";
  sp ~at_us:5 ~seq:1 Span.I "nd.tx" "kind=data dst=U0.1";
  sp ~at_us:6 ~seq:1 Span.E "lcm.send" "ok";
  tr ~at_us:7 "gw.forward" "net1 label 2 -> net2 label 3 kind=ivc-close dst=U0.1";
  sp ~at_us:8 ~seq:0 Span.E "lcm.circuit" "shutdown";
  (* Whatever its phase, a null-context event is no circuit's close. *)
  Registry.span r
    (Span.event ~at_us:9 ~ctx:Span.none ~phase:Span.E ~name:"lcm.circuit" ~actor:"m1/app"
       (Text "shutdown"));
  Alcotest.(check int) "one log" 9 (Registry.span_count r);
  Alcotest.(check (list string)) "no span violation" []
    (List.map (Format.asprintf "%a" Check_trace.pp_violation)
       (Check_trace.spans (Registry.spans r)));
  Alcotest.(check (list (pair int int))) "circuit 1 alone, all five of its events" [ (1, 5) ]
    (List.map (fun (c, evs) -> (c, List.length evs)) (Export.by_circuit r))

(* --- the measured workload: two equal-seed worlds --- *)

let run_world seed =
  let c = Helpers.two_net_cluster ~seed () in
  Cluster.settle c;
  Helpers.spawn_echo c ~machine:"ap1" ~name:"svc";
  Cluster.settle c;
  (* Client on the ethernet, service on the ring: every call crosses the
     prime gateway, so the span log carries gw.forward hops. *)
  ignore
    (Cluster.spawn c ~machine:"vax1" ~name:"client" (fun node ->
         let commod = Helpers.bind_exn node ~name:"client" in
         let addr = Helpers.check_ok "locate" (Ali_layer.locate commod "svc") in
         for _ = 1 to 5 do
           ignore (Ali_layer.send_sync commod ~dst:addr (Helpers.raw "ping"))
         done;
         ignore (Ali_layer.send_dgram commod ~dst:addr (Helpers.raw "dg"))));
  Cluster.settle ~dt:30_000_000 c;
  Cluster.metrics c

let test_registry_sees_layers () =
  let r = run_world 1234 in
  let has name =
    Alcotest.(check bool) (name ^ " histogram populated") true
      (match Registry.find_histo r name with
       | Some h -> Histo.count h > 0
       | None -> false)
  in
  has "lcm.send_sync_us";
  has "ip.open_us";
  has "nsp.request_us";
  has "nd.tx_bytes";
  has "nd.rx_bytes";
  has "net.frame_bytes";
  Alcotest.(check bool) "circuits allocated" true (Registry.circuits_allocated r > 0);
  Alcotest.(check bool) "span events recorded" true (Registry.span_count r > 0);
  (* The gateway hop shows up as an instant event on a message span. *)
  Alcotest.(check bool) "gateway forward span seen" true
    (List.exists (fun (e : Span.event) -> e.Span.ev_name = "gw.forward") (Registry.spans r))

let test_healthy_run_span_invariants () =
  let r = run_world 99 in
  match Check_trace.spans (Registry.spans r) with
  | [] -> ()
  | vs ->
    Alcotest.failf "span invariants violated: %s"
      (String.concat "; " (List.map (Format.asprintf "%a" Check_trace.pp_violation) vs))

(* A circuit renders its nd.tx detail once and reuses it while the kind and
   destination repeat; a change of either must show in the very next event.
   The frames carry unknown IVC labels, so the gateway drops them. *)
let test_nd_detail_follows_frame () =
  let c = Helpers.two_net_cluster ~seed:31 () in
  Cluster.settle c;
  Helpers.spawn_echo c ~machine:"ap1" ~name:"svc";
  Cluster.settle c;
  let sent = ref [] in
  ignore
    (Cluster.spawn c ~machine:"vax1" ~name:"client" (fun node ->
         let commod = Helpers.bind_exn node ~name:"client" in
         let addr = Helpers.check_ok "locate" (Ali_layer.locate commod "svc") in
         ignore (Helpers.check_ok "call" (Ali_layer.send_sync commod ~dst:addr (Helpers.raw "x")));
         let circuit =
           match Ip_layer.find_ivc (Commod.ip commod) addr with
           | Some ivc -> ivc.Ip_layer.circuit
           | None -> Alcotest.fail "no chained ivc for the service"
         in
         let other = Addr.unique ~server_id:9 ~value:77 in
         List.iteri
           (fun i (kind, dst) ->
             let span = Span.make ~circuit:900_000 ~seq:(i + 1) in
             let h =
               Proto.make_header ~kind ~src:(Commod.my_addr commod) ~dst ~ivc:987_654 ~span
                 ~payload_len:0 ()
             in
             (match Nd_layer.send_frame circuit h Bytes.empty with
              | Ok () -> ()
              | Error e -> Alcotest.failf "send: %s" (Errors.to_string e));
             sent :=
               (span, Printf.sprintf "kind=%s dst=%s" (Proto.kind_to_string kind)
                        (Addr.to_string dst))
               :: !sent)
           [ (Proto.Data, addr); (Proto.Data, addr); (Proto.Data, other); (Proto.Data, addr);
             (Proto.Reply, addr); (Proto.Dgram, addr) ]));
  Cluster.settle ~dt:30_000_000 c;
  let spans = Registry.spans (Cluster.metrics c) in
  List.iter
    (fun (ctx, want) ->
      match
        List.find_opt
          (fun (e : Span.event) -> e.Span.ev_name = "nd.tx" && e.Span.ev_ctx = ctx)
          spans
      with
      | Some e ->
        Alcotest.(check string) (Span.to_string ctx) want (Span.detail_to_string e.Span.ev_detail)
      | None -> Alcotest.failf "no nd.tx event for %s" (Span.to_string ctx))
    (List.rev !sent)

let test_exports_deterministic () =
  let r1 = run_world 777 in
  let r2 = run_world 777 in
  Alcotest.(check string) "stats_json byte-identical"
    (Export.stats_json r1) (Export.stats_json r2);
  Alcotest.(check string) "spans_jsonl byte-identical"
    (Export.spans_jsonl r1) (Export.spans_jsonl r2);
  Alcotest.(check string) "chrome trace byte-identical (golden)"
    (Export.chrome_trace r1) (Export.chrome_trace r2);
  (* A different seed must still be a valid export but may differ. *)
  let r3 = run_world 778 in
  Alcotest.(check bool) "different seed differs" true
    (Export.spans_jsonl r1 <> Export.spans_jsonl r3)

(* The reference workload's exports, pinned by MD5: span details and every
   other exported byte must survive any rewrite of how they are built. *)
let test_exports_pinned () =
  let r = run_world 777 in
  let md5 s = Digest.to_hex (Digest.string s) in
  Alcotest.(check (list string)) "stats_json, spans_jsonl, chrome_trace digests"
    [
      "6d2899b983852a8fcccaa2606ceca1ae";
      "0ff94b7f6b9dd4a4298bf6e8c399211f";
      "720a9c8d68df67f047a8b537d59f96b7";
    ]
    (List.map md5 [ Export.stats_json r; Export.spans_jsonl r; Export.chrome_trace r ])

let test_chrome_trace_shape () =
  let r = run_world 4242 in
  let trace = Export.chrome_trace r in
  let contains needle =
    let nl = String.length needle and hl = String.length trace in
    let rec go i = i + nl <= hl && (String.sub trace i nl = needle || go (i + 1)) in
    Alcotest.(check bool) (Printf.sprintf "trace contains %s" needle) true (go 0)
  in
  contains "\"traceEvents\":[";
  contains "\"displayTimeUnit\":\"ms\"";
  contains "\"thread_name\"";
  contains "\"ph\":\"B\"";
  contains "\"ph\":\"E\"";
  contains "\"ph\":\"i\"";
  contains "circuit 1"

let test_stats_json_has_percentiles () =
  let r = run_world 5150 in
  let js = Export.stats_json r in
  let contains needle =
    let nl = String.length needle and hl = String.length js in
    let rec go i = i + nl <= hl && (String.sub js i nl = needle || go (i + 1)) in
    Alcotest.(check bool) (Printf.sprintf "stats contains %s" needle) true (go 0)
  in
  contains "\"lcm.send_sync_us\":{";
  contains "\"p50\":";
  contains "\"p95\":";
  contains "\"p99\":"

let () =
  Alcotest.run "obs"
    [
      ("span", [
        Alcotest.test_case "ctx string forms" `Quick test_span_strings;
        Alcotest.test_case "header roundtrip" `Quick test_span_header_roundtrip;
        test_detail_printer;
      ]);
      ("histo", [ Alcotest.test_case "basics" `Quick test_histo_basics ]);
      ("registry", [
        Alcotest.test_case "span log order" `Quick test_span_log_order;
        Alcotest.test_case "trace entries join no circuit" `Quick
          test_trace_entries_join_no_circuit;
      ]);
      ("world", [
        Alcotest.test_case "registry sees every layer" `Quick test_registry_sees_layers;
        Alcotest.test_case "healthy-run span invariants" `Quick
          test_healthy_run_span_invariants;
        Alcotest.test_case "nd.tx detail follows kind and dst" `Quick
          test_nd_detail_follows_frame;
      ]);
      ("export", [
        Alcotest.test_case "equal seeds, identical bytes" `Quick test_exports_deterministic;
        Alcotest.test_case "pinned export digests" `Quick test_exports_pinned;
        Alcotest.test_case "chrome trace shape" `Quick test_chrome_trace_shape;
        Alcotest.test_case "stats carries percentiles" `Quick
          test_stats_json_has_percentiles;
      ]);
    ]
