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
      "80a01f3b80f2643aacfe42279a1bf63e";
      "3114fbdc26364126463e09ce5ff4d801";
      "f8445f7b04fbfa8038af65be3a5031a6";
      "5e5cc9082058469e30b71ba300372f20";
    ]
    (List.map md5
       [ t1; m1; Ntcs_obs.Export.spans_jsonl r1; Ntcs_obs.Export.chrome_trace r1 ]);
  let injected cat = List.exists (fun e -> e.Ntcs_sim.Trace.cat = cat) entries in
  Alcotest.(check bool) "crash fired" true (injected "fault.crash");
  Alcotest.(check bool) "restart fired" true (injected "fault.restart");
  Alcotest.(check bool) "frame faults fired" true
    (injected "fault.dup" || injected "fault.delay")

let test_seed_matters () =
  (* Sanity that the comparison has teeth: a different seed must move
     something in the virtual timeline. *)
  let t1, _, _, _ = run_once 42 in
  let t2, _, _, _ = run_once 43 in
  Alcotest.(check bool) "different seeds diverge" false (String.equal t1 t2)

let test_r3_invariants_hold () =
  let _, _, entries, recursion_limit = run_once 42 in
  Alcotest.(check bool) "trace saw the gateway work" true
    (List.exists (fun e -> e.Ntcs_sim.Trace.cat = "gw.forward") entries);
  Alcotest.(check bool) "trace saw conversion decisions" true
    (List.exists (fun e -> e.Ntcs_sim.Trace.cat = "ip.convert") entries);
  Alcotest.(check bool) "trace saw recursion depth marks" true
    (List.exists (fun e -> e.Ntcs_sim.Trace.cat = "lcm.depth") entries);
  match Lint_trace.check_all ~recursion_limit entries with
  | [] -> ()
  | vs ->
    Alcotest.failf "R3 violations on a healthy run:@.%s"
      (String.concat "\n" (List.map (Fmt.str "%a" Lint_trace.pp_violation) vs))

let () =
  Alcotest.run "determinism"
    [
      ( "golden",
        [
          Alcotest.test_case "same seed, same bytes" `Quick test_trace_identical;
          Alcotest.test_case "same seed, same faulty bytes" `Quick test_faulty_trace_identical;
          Alcotest.test_case "different seed differs" `Quick test_seed_matters;
          Alcotest.test_case "R3 invariants hold" `Quick test_r3_invariants_hold;
        ] );
    ]
