(* The golden determinism property: the same seed must reproduce the same
   simulation, byte for byte. Runs the full two-net URSA workload (deploy,
   a cross-gateway search, a document fetch) twice and compares the entire
   event trace and metrics dump; then feeds the trace to the R3 invariant
   checker, which must stay silent on a healthy run. *)

open Ntcs
open Helpers

let run_once seed =
  let c = two_net_cluster ~seed () in
  Cluster.settle c;
  let corpus = Ursa.Corpus.generate 30 in
  Ursa.Host.deploy c ~machines:[ "ap1"; "ap2" ] ~partitions:2 ~corpus
    ~search_machine:"vax1";
  Cluster.settle ~dt:5_000_000 c;
  let reply = ref None and fetched = ref None in
  ignore
    (Cluster.spawn c ~machine:"ap2" ~name:"user" (fun node ->
         let commod = bind_exn node ~name:"user" in
         let host = Ursa.Host.create commod in
         reply := Some (check_ok "search" (Ursa.Host.search ~k:5 host "gateway routing circuit"));
         fetched := Some (check_ok "fetch" (Ursa.Host.fetch host ~doc:3))));
  Cluster.settle ~dt:30_000_000 c;
  (match !reply with
   | Some r -> Alcotest.(check bool) "search found hits" true (r.Ursa.Ursa_msg.sr_hits <> [])
   | None -> Alcotest.fail "no search reply");
  (match !fetched with
   | Some _ -> ()
   | None -> Alcotest.fail "no fetch reply");
  let trace_txt = Fmt.str "%a" Ntcs_sim.Trace.dump (Ntcs_sim.World.trace (Cluster.world c)) in
  let metrics_txt = Fmt.str "%a" Ntcs_obs.Registry.pp_stats (Cluster.metrics c) in
  let entries = Ntcs_sim.Trace.entries (Ntcs_sim.World.trace (Cluster.world c)) in
  let recursion_limit = (Cluster.config c).Node.recursion_limit in
  (trace_txt, metrics_txt, entries, recursion_limit)

(* Byte equality, but fail with the first differing line instead of dumping
   two full traces at each other. *)
let check_same label a b =
  if not (String.equal a b) then begin
    let la = String.split_on_char '\n' a and lb = String.split_on_char '\n' b in
    let rec first_diff i = function
      | x :: xs, y :: ys -> if String.equal x y then first_diff (i + 1) (xs, ys) else (i, x, y)
      | x :: _, [] -> (i, x, "<missing>")
      | [], y :: _ -> (i, "<missing>", y)
      | [], [] -> (i, "<equal?>", "<equal?>")
    in
    let i, x, y = first_diff 1 (la, lb) in
    Alcotest.failf "%s: runs diverge at line %d:@.  run1: %s@.  run2: %s" label i x y
  end

let test_trace_identical () =
  let t1, m1, _, _ = run_once 42 in
  let t2, m2, _, _ = run_once 42 in
  check_same "trace" t1 t2;
  check_same "metrics" m1 m2;
  Alcotest.(check bool) "trace is non-trivial" true
    (List.length (String.split_on_char '\n' t1) > 50)

(* The same workload under an armed fault plane: delaying and duplicating
   links plus a crash/restart of an idle machine. Injections draw from the
   plane's seeded stream, so the whole faulty run — injections included —
   must still be byte-reproducible. *)
let run_once_faulty seed =
  let config =
    {
      Ntcs_sim.World.Config.default with
      Ntcs_sim.World.Config.seed;
      faults =
        Some
          {
            Ntcs_sim.Faults.seed = 13;
            rules =
              [
                Ntcs_sim.Faults.rule ~from_us:4_000_000 ~dup:0.1 ~delay:0.3
                  ~delay_us:25_000 ();
              ];
            schedule =
              [
                (5_000_000, Ntcs_sim.Faults.Crash "ap1");
                (7_000_000, Ntcs_sim.Faults.Restart "ap1");
              ];
          };
    }
  in
  let c = two_net_cluster ~config () in
  Cluster.settle c;
  spawn_echo c ~machine:"ap2" ~name:"svc";
  Cluster.settle c;
  let got = ref None in
  ignore
    (Cluster.spawn c ~machine:"vax1" ~name:"user" (fun node ->
         let commod = bind_exn node ~name:"user" in
         let addr = check_ok "locate" (Ali_layer.locate commod "svc") in
         Ntcs_sim.Sched.sleep (Node.sched node) 4_000_000;
         got := Some (check_ok "faulty echo" (Ali_layer.send_sync commod ~dst:addr (raw "f")))));
  Cluster.settle ~dt:20_000_000 c;
  (match !got with
   | Some env -> Alcotest.(check string) "echo under faults" "echo:f" (body env)
   | None -> Alcotest.fail "no faulty echo");
  let trace_txt = Fmt.str "%a" Ntcs_sim.Trace.dump (Ntcs_sim.World.trace (Cluster.world c)) in
  let metrics_txt = Fmt.str "%a" Ntcs_obs.Registry.pp_stats (Cluster.metrics c) in
  let entries = Ntcs_sim.Trace.entries (Ntcs_sim.World.trace (Cluster.world c)) in
  (trace_txt, metrics_txt, entries, Cluster.metrics c)

let md5 s = Digest.to_hex (Digest.string s)

let test_faulty_trace_identical () =
  let t1, m1, entries, r1 = run_once_faulty 42 in
  let t2, m2, _, _ = run_once_faulty 42 in
  check_same "faulty trace" t1 t2;
  check_same "faulty metrics" m1 m2;
  (* Pinned across code changes, not only across runs. *)
  Alcotest.(check (list string)) "faulty trace, metrics, spans_jsonl, chrome_trace digests"
    [
      "b36a72213601122945dd3826e674f5e8";
      "3114fbdc26364126463e09ce5ff4d801";
      "50e69c66b0703d2d99a5595015dafd97";
      "b621f0ff231915b7c04da708c796d7c5";
    ]
    (List.map md5
       [ t1; m1; Ntcs_obs.Export.spans_jsonl r1; Ntcs_obs.Export.chrome_trace r1 ]);
  let injected cat = List.exists (fun e -> e.Ntcs_obs.Span.ev_name = cat) entries in
  Alcotest.(check bool) "crash fired" true (injected "fault.crash");
  Alcotest.(check bool) "restart fired" true (injected "fault.restart");
  Alcotest.(check bool) "frame faults fired" true
    (injected "fault.dup" || injected "fault.delay")

(* A received frame goes up through IP and LCM in its ND reader's own
   event, so each lcm.deliver is logged directly after the nd.rx of the same
   frame: same ctx, same actor. Only that actor's own null-ctx trace
   entries (the nd.tadd_purge a frame's source can trigger) may sit in
   between. A hand-off to another process lets a second frame's nd.rx slip
   in between. *)
let check_deliveries_follow_receives label entries =
  let open Ntcs_obs.Span in
  let rec walk delivered prev = function
    | [] -> delivered
    | e :: rest when e.ev_name = "lcm.deliver" ->
      (match prev with
       | Some rx when rx.ev_name = "nd.rx" && rx.ev_ctx = e.ev_ctx && rx.ev_actor = e.ev_actor ->
         ()
       | Some rx -> Alcotest.failf "%s: %a follows %a" label pp_event e pp_event rx
       | None -> Alcotest.failf "%s: %a opens the log" label pp_event e);
      walk (delivered + 1) (Some e) rest
    | e :: rest -> (
      match prev with
      | Some p when is_none e.ev_ctx && e.ev_actor = p.ev_actor -> walk delivered prev rest
      | Some _ | None -> walk delivered (Some e) rest)
  in
  Alcotest.(check bool) (label ^ ": frames were delivered") true (walk 0 None entries > 0)

let test_deliveries_follow_receives () =
  let sc =
    List.find
      (fun sc -> sc.Check_scenarios.sc_name = "naming-cold-lookup")
      (Check_scenarios.exhaustive @ Check_scenarios.soaks)
  in
  let w, run = sc.Check_scenarios.sc_make Check_scenarios.Mode.default in
  ignore (run ());
  check_deliveries_follow_receives "naming-cold-lookup"
    (Ntcs_sim.Trace.entries (Ntcs_sim.World.trace w));
  let _, _, entries, _ = run_once_faulty 42 in
  check_deliveries_follow_receives "faulty run" entries

let test_seed_matters () =
  (* Sanity that the comparison has teeth: a different seed must move
     something in the virtual timeline. *)
  let t1, _, _, _ = run_once 42 in
  let t2, _, _, _ = run_once 43 in
  Alcotest.(check bool) "different seeds diverge" false (String.equal t1 t2)

let test_r3_invariants_hold () =
  let _, _, entries, recursion_limit = run_once 42 in
  Alcotest.(check bool) "trace saw the gateway work" true
    (List.exists (fun e -> e.Ntcs_obs.Span.ev_name = "gw.forward") entries);
  Alcotest.(check bool) "trace saw conversion decisions" true
    (List.exists (fun e -> e.Ntcs_obs.Span.ev_name = "ip.convert") entries);
  Alcotest.(check bool) "trace saw recursion depth marks" true
    (List.exists (fun e -> e.Ntcs_obs.Span.ev_name = "lcm.depth") entries);
  let r3 = [ "gateway-peering"; "recursion-depth"; "identity-conversion" ] in
  match
    List.filter
      (fun v -> List.mem v.Check_trace.v_invariant r3)
      (Check_trace.check ~recursion_limit ~races:false entries)
  with
  | [] -> ()
  | vs ->
    Alcotest.failf "R3 violations on a healthy run:@.%s"
      (String.concat "\n" (List.map (Fmt.str "%a" Check_trace.pp_violation) vs))

let () =
  Alcotest.run "determinism"
    [
      ( "golden",
        [
          Alcotest.test_case "same seed, same bytes" `Quick test_trace_identical;
          Alcotest.test_case "same seed, same faulty bytes" `Quick test_faulty_trace_identical;
          Alcotest.test_case "deliveries follow their receive" `Quick
            test_deliveries_follow_receives;
          Alcotest.test_case "different seed differs" `Quick test_seed_matters;
          Alcotest.test_case "R3 invariants hold" `Quick test_r3_invariants_hold;
        ] );
    ]
