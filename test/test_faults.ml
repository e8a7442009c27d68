(* The fault plane and the recovery machinery it exercises.

   - Determinism: the same world seed + the same fault spec must reproduce
     the same injections and the same trace, byte for byte; a different
     fault seed must move something.
   - Injection: rules and scheduled events actually fire and appear as
     fault.* trace events, one per count in the world's registry.
   - Recovery: a partitioned service heals through the LCM retry policy,
     and [lcm.retries] counts each [lcm.retry] trace entry.
   - Gateway idempotence: duplicated open/control frames (dup probability
     1.0 on every droppable frame) must not double-splice or double-close an
     IVC — the §4.3 teardown-ordering regression.
   - The [Retry] policy itself: deterministic backoff, bounded attempts,
     permanent errors and deadlines cut the loop. *)

open Ntcs
open Helpers

(* One faulty workload: lossy, duplicating, delaying LAN plus a 4s partition
   of the service's machine, and an app that keeps resending until the echo
   comes back. Returns (trace text, metrics text, cluster). *)
let faulty_run ?(fault_seed = 7) () =
  let config =
    {
      Ntcs_sim.World.Config.default with
      Ntcs_sim.World.Config.seed = 42;
      faults =
        Some
          {
            Ntcs_sim.Faults.seed = fault_seed;
            rules =
              [
                Ntcs_sim.Faults.rule ~from_us:5_000_000 ~until_us:15_000_000 ~drop:0.15
                  ~dup:0.1 ~delay:0.3 ~delay_us:20_000 ();
              ];
            schedule =
              [
                (6_000_000, Ntcs_sim.Faults.Partition [ [ "sun1" ]; [ "vax1"; "sun2" ] ]);
                (10_000_000, Ntcs_sim.Faults.Heal);
              ];
          };
    }
  in
  let c = lan_cluster ~config () in
  Cluster.settle c;
  spawn_echo c ~machine:"sun1" ~name:"svc";
  Cluster.settle c;
  let recovered = ref false in
  ignore
    (Cluster.spawn c ~machine:"sun2" ~name:"app" (fun node ->
         let commod = bind_exn node ~name:"app" in
         let addr = check_ok "locate" (Ali_layer.locate commod "svc") in
         ignore (check_ok "warm-up" (Ali_layer.send_sync commod ~dst:addr (raw "warm")));
         let sched = Node.sched node in
         Ntcs_sim.Sched.sleep sched 3_000_000;
         let rec chase () =
           if Ntcs_sim.Sched.now sched > 35_000_000 then ()
           else
             match Ali_layer.send_sync commod ~dst:addr ~timeout_us:1_000_000 (raw "hi") with
             | Ok env ->
               Alcotest.(check string) "echo after heal" "echo:hi" (body env);
               recovered := true
             | Error _ ->
               Ntcs_sim.Sched.sleep sched 1_000_000;
               chase ()
         in
         chase ()));
  Cluster.settle ~dt:40_000_000 c;
  Alcotest.(check bool) "app recovered after heal" true !recovered;
  let trace_txt = Fmt.str "%a" Ntcs_sim.Trace.dump (Ntcs_sim.World.trace (Cluster.world c)) in
  let metrics_txt = Fmt.str "%a" Ntcs_obs.Registry.pp_stats (Cluster.metrics c) in
  (trace_txt, metrics_txt, c)

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

let test_same_seed_same_faults () =
  let t1, m1, _ = faulty_run () in
  let t2, m2, _ = faulty_run () in
  check_same "faulty trace" t1 t2;
  check_same "faulty metrics" m1 m2

let test_fault_seed_matters () =
  let t1, _, _ = faulty_run ~fault_seed:7 () in
  let t2, _, _ = faulty_run ~fault_seed:8 () in
  Alcotest.(check bool) "different fault seeds diverge" false (String.equal t1 t2)

(* Each injected frame fault is one trace entry and one registry count. *)
let frame_faults_match_trace c =
  let m = Cluster.metrics c in
  let tr = Ntcs_sim.World.trace (Cluster.world c) in
  List.iter
    (fun (cat, counter) ->
      Alcotest.(check int) (cat ^ " entries = " ^ counter) (Ntcs_obs.Registry.get m counter)
        (List.length (Ntcs_sim.Trace.matching tr ~cat)))
    [
      ("fault.drop", "fault.dropped_frames");
      ("fault.dup", "fault.duplicated_frames");
      ("fault.reorder", "fault.reordered_frames");
      ("fault.delay", "fault.delayed_frames");
    ]

let test_faults_injected_and_traced () =
  let _, _, c = faulty_run () in
  Alcotest.(check bool) "fault plane installed" true
    (Ntcs_sim.World.faults (Cluster.world c) <> None);
  let m = Cluster.metrics c in
  let tr = Ntcs_sim.World.trace (Cluster.world c) in
  let traced cat = List.length (Ntcs_sim.Trace.matching tr ~cat) in
  Alcotest.(check bool) "frames dropped" true (Ntcs_obs.Registry.get m "fault.dropped_frames" > 0);
  Alcotest.(check bool) "frames duplicated" true
    (Ntcs_obs.Registry.get m "fault.duplicated_frames" > 0);
  Alcotest.(check bool) "frames blocked by partition" true
    (Ntcs_obs.Registry.get m "fault.blocked_frames" > 0);
  frame_faults_match_trace c;
  Alcotest.(check bool) "fault.partition traced" true (traced "fault.partition" > 0);
  Alcotest.(check bool) "fault.heal traced" true (traced "fault.heal" > 0);
  Alcotest.(check bool) "fault.drop traced" true (traced "fault.drop" > 0);
  (* The outage engaged the LCM recovery: one count per [lcm.retry] entry,
     and the backoff histogram sums the sleeps those entries name. *)
  let retries = Ntcs_sim.Trace.matching tr ~cat:"lcm.retry" in
  Alcotest.(check bool) "retries counted" true (retries <> []);
  Alcotest.(check int) "lcm.retry entries = lcm.retries" (List.length retries)
    (Ntcs_obs.Registry.get m "lcm.retries");
  let backoff (e : Ntcs_sim.Trace.entry) =
    match e.Ntcs_obs.Span.ev_detail with
    | Ntcs_obs.Span.Text d -> Scanf.sscanf d "%_s attempt=%_d backoff=%dus" Fun.id
    | _ -> Alcotest.failf "lcm.retry: not a text detail"
  in
  let slept =
    match Ntcs_obs.Registry.find_histo m "lcm.retry_backoff_us" with
    | Some h -> Ntcs_obs.Histo.sum h
    | None -> 0
  in
  Alcotest.(check bool) "backoff time counted" true (slept > 0);
  Alcotest.(check int) "backoff histogram = traced backoff"
    (List.fold_left (fun acc e -> acc + backoff e) 0 retries)
    slept

(* All four frame faults on one steady echo loop (the faulty run above
   injects no reorder and no delay): each must fire, and each must be
   counted exactly as often as it is traced. *)
let test_every_frame_fault_counted () =
  let config =
    {
      Ntcs_sim.World.Config.default with
      Ntcs_sim.World.Config.seed = 3;
      faults =
        Some
          {
            Ntcs_sim.Faults.seed = 5;
            rules =
              [
                Ntcs_sim.Faults.rule ~from_us:4_000_000 ~drop:0.1 ~dup:0.1 ~reorder:0.2
                  ~delay:0.2 ~delay_us:20_000 ();
              ];
            schedule = [];
          };
    }
  in
  let c = lan_cluster ~config () in
  Cluster.settle c;
  spawn_echo c ~machine:"sun1" ~name:"svc";
  Cluster.settle c;
  ignore
    (Cluster.spawn c ~machine:"sun2" ~name:"app" (fun node ->
         let commod = bind_exn node ~name:"app" in
         let addr = check_ok "locate" (Ali_layer.locate commod "svc") in
         for _ = 1 to 40 do
           ignore (Ali_layer.send_sync commod ~dst:addr ~timeout_us:1_000_000 (raw "x"))
         done));
  Cluster.settle ~dt:60_000_000 c;
  let m = Cluster.metrics c in
  List.iter
    (fun counter ->
      Alcotest.(check bool) (counter ^ " > 0") true (Ntcs_obs.Registry.get m counter > 0))
    [
      "fault.dropped_frames";
      "fault.duplicated_frames";
      "fault.reordered_frames";
      "fault.delayed_frames";
    ];
  frame_faults_match_trace c

(* Every droppable frame duplicated: the gateway sees each chained open (and
   every control/data frame that fits one segment) twice. The splice must
   commit once, traffic must still flow, and teardown must close each leg
   exactly once — the lifecycle automaton replay catches any double-close. *)
let test_gateway_duplicate_open_idempotent () =
  let config =
    {
      Ntcs_sim.World.Config.default with
      Ntcs_sim.World.Config.seed = 5;
      faults =
        Some
          {
            Ntcs_sim.Faults.seed = 11;
            rules =
              [ Ntcs_sim.Faults.rule ~from_us:3_000_000 ~until_us:20_000_000 ~dup:1.0 () ];
            schedule = [];
          };
    }
  in
  let c = two_net_cluster ~config () in
  Cluster.settle c;
  spawn_echo c ~machine:"ap1" ~name:"svc";
  Cluster.settle c;
  let get =
    in_process c ~machine:"vax1" ~name:"app" (fun node ->
        let commod = bind_exn node ~name:"app" in
        let addr = check_ok "locate" (Ali_layer.locate commod "svc") in
        check_ok "cross-gateway echo" (Ali_layer.send_sync commod ~dst:addr (raw "dup")))
  in
  Cluster.settle ~dt:30_000_000 c;
  Alcotest.(check string) "echo across gateway under dup=1.0" "echo:dup" (body (get ()));
  Alcotest.(check bool) "duplicate opens were seen and dropped" true
    (Ntcs_obs.Registry.get (Cluster.metrics c) "gw.duplicate_opens" > 0);
  let entries = Ntcs_sim.Trace.entries (Ntcs_sim.World.trace (Cluster.world c)) in
  (match
     List.filter
       (fun v -> v.Check_trace.v_invariant = "lifecycle")
       (Check_trace.check ~races:false entries)
   with
   | [] -> ()
   | vs ->
     Alcotest.failf "lifecycle violations under duplication:@.%s"
       (String.concat "\n" (List.map (Fmt.str "%a" Check_trace.pp_violation) vs)));
  (* No splice leg may be torn down twice: gw.close details are unique. *)
  let closes =
    Ntcs_sim.Trace.matching (Ntcs_sim.World.trace (Cluster.world c)) ~cat:"gw.close"
    |> List.map (fun (e : Ntcs_sim.Trace.entry) -> e.ev_detail)
  in
  Alcotest.(check int) "each splice closed at most once"
    (List.length (List.sort_uniq compare closes))
    (List.length closes)

(* Redelivery ownership: a received frame's buffer belongs to one reader,
   and the gateway patches it in place. With every droppable frame
   duplicated on both nets, an echo each way across the LAN-ring gateway
   must succeed, and every duplicate must reach the gateway as it was sent:
   one sharing the first delivery's (patched) bytes would arrive carrying
   the outbound label and find no splice. Each caller first makes a call
   before the fault window and stays bound after it, so circuits and
   splices are set up and never torn down under duplication — no HELLO or
   IVC_CLOSE duplicate is an orphan for other reasons. *)
let test_redelivery_owns_its_buffer () =
  let config =
    {
      Ntcs_sim.World.Config.default with
      Ntcs_sim.World.Config.seed = 5;
      faults =
        Some
          {
            Ntcs_sim.Faults.seed = 11;
            rules = [ Ntcs_sim.Faults.rule ~from_us:5_000_000 ~dup:1.0 () ];
            schedule = [];
          };
    }
  in
  let c = two_net_cluster ~config () in
  Cluster.settle c;
  spawn_echo c ~machine:"ap1" ~name:"ring-svc";
  spawn_echo c ~machine:"vax1" ~name:"lan-svc";
  Cluster.settle c;
  let call ~machine ~name ~svc msg =
    let reply = ref None in
    ignore
      (Cluster.spawn c ~machine ~name (fun node ->
           let commod = bind_exn node ~name in
           let addr = check_ok "locate" (Ali_layer.locate commod svc) in
           let echo m = check_ok (name ^ " echo") (Ali_layer.send_sync commod ~dst:addr (raw m)) in
           ignore (echo "warm-up");
           Ntcs_sim.Sched.sleep (Node.sched node) 2_000_000;
           reply := Some (echo msg);
           Ntcs_sim.Sched.sleep (Node.sched node) 60_000_000));
    fun () -> match !reply with Some env -> env | None -> Alcotest.failf "%s: no reply" name
  in
  let lan_to_ring = call ~machine:"vax1" ~name:"lan-app" ~svc:"ring-svc" "to-ring" in
  let ring_to_lan = call ~machine:"ap2" ~name:"ring-app" ~svc:"lan-svc" "to-lan" in
  Cluster.settle ~dt:30_000_000 c;
  Alcotest.(check string) "LAN -> ring echo" "echo:to-ring" (body (lan_to_ring ()));
  Alcotest.(check string) "ring -> LAN echo" "echo:to-lan" (body (ring_to_lan ()));
  let metric k = Ntcs_obs.Registry.get (Cluster.metrics c) k in
  Alcotest.(check bool) "frames were duplicated" true (metric "fault.duplicated_frames" > 0);
  Alcotest.(check int) "no orphan frames" 0 (metric "gw.orphan_frames");
  let trace = Ntcs_sim.World.trace (Cluster.world c) in
  let details cat =
    List.map (fun (e : Ntcs_sim.Trace.entry) -> e.ev_detail) (Ntcs_sim.Trace.matching trace ~cat)
  in
  let unexpected what d =
    Alcotest.failf "%s detail of another format: %s" what (Ntcs_obs.Span.detail_to_string d)
  in
  let splices =
    List.concat_map
      (function
        | Ntcs_obs.Span.Leg { net_a = a; label_a = la; net_b = b; label_b = lb; _ } ->
          [ ((a, la), (b, lb)); ((b, lb), (a, la)) ]
        | d -> unexpected "gw.splice" d)
      (details "gw.splice")
  in
  let forwards = details "gw.forward" in
  Alcotest.(check bool) "frames were forwarded" true (forwards <> []);
  List.iter
    (function
      | Ntcs_obs.Span.Forward { net_a = a; label_a = la; net_b = b; label_b = lb; _ } as d ->
        if not (List.mem ((a, la), (b, lb)) splices) then
          Alcotest.failf "gw.forward names no splice: %s" (Ntcs_obs.Span.detail_to_string d)
      | d -> unexpected "gw.forward" d)
    forwards

(* --- the Retry policy itself --- *)

let test_backoff_deterministic () =
  let p = Retry.policy () in
  Alcotest.(check (list int)) "exponential backoff with ceiling"
    [ 50_000; 100_000; 200_000; 400_000; 800_000; 800_000 ]
    (List.map (fun attempt -> Retry.delay_us p ~attempt) [ 1; 2; 3; 4; 5; 6 ])

let test_retry_bounded_attempts () =
  let c = lan_cluster () in
  let calls = ref 0 and retries = ref 0 in
  let get =
    in_process c ~machine:"sun1" ~name:"r" (fun node ->
        Retry.run (Node.sched node)
          (Retry.policy ~max_attempts:4 ~base_delay_us:10_000 ~max_delay_us:80_000
             ~jitter_us:0 ())
          ~retryable:Errors.retryable
          ~on_retry:(fun ~attempt:_ ~delay_us:_ _ -> incr retries)
          (fun ~attempt:_ ->
            incr calls;
            Error Errors.Timeout))
  in
  Cluster.settle c;
  check_err "exhausted retries return the last error" Errors.Timeout (get ());
  Alcotest.(check int) "all attempts made" 4 !calls;
  Alcotest.(check int) "a backoff between each pair" 3 !retries

let test_retry_permanent_error_aborts () =
  let c = lan_cluster () in
  let calls = ref 0 in
  let get =
    in_process c ~machine:"sun1" ~name:"r" (fun node ->
        Retry.run (Node.sched node)
          (Retry.policy ~max_attempts:5 ())
          ~retryable:Errors.retryable
          (fun ~attempt:_ ->
            incr calls;
            Error Errors.Unknown_name))
  in
  Cluster.settle c;
  check_err "permanent error returned" Errors.Unknown_name (get ());
  Alcotest.(check int) "no retry on a permanent error" 1 !calls

let test_retry_deadline_cuts_backoff () =
  let c = lan_cluster () in
  let calls = ref 0 in
  let get =
    in_process c ~machine:"sun1" ~name:"r" (fun node ->
        let sched = Node.sched node in
        (* Backoff 50ms, deadline 75ms out: attempt 1 fails, one backoff
           fits, attempt 2 fails, the second backoff would cross. *)
        Retry.run sched
          ~deadline_us:(Ntcs_sim.Sched.now sched + 75_000)
          (Retry.policy ~max_attempts:10 ~base_delay_us:50_000 ~max_delay_us:50_000
             ~jitter_us:0 ())
          ~retryable:Errors.retryable
          (fun ~attempt:_ ->
            incr calls;
            Error Errors.Timeout))
  in
  Cluster.settle c;
  check_err "deadline returns the last error" Errors.Timeout (get ());
  Alcotest.(check int) "deadline stopped the loop" 2 !calls

let () =
  Alcotest.run "faults"
    [
      ( "determinism",
        [
          Alcotest.test_case "same seed, same faults, same bytes" `Quick
            test_same_seed_same_faults;
          Alcotest.test_case "fault seed matters" `Quick test_fault_seed_matters;
        ] );
      ( "injection",
        [
          Alcotest.test_case "faults injected, counted, traced" `Quick
            test_faults_injected_and_traced;
          Alcotest.test_case "every frame fault counted once" `Quick
            test_every_frame_fault_counted;
        ] );
      ( "gateway",
        [
          Alcotest.test_case "duplicated opens are idempotent" `Quick
            test_gateway_duplicate_open_idempotent;
          Alcotest.test_case "redelivery owns its buffer" `Quick test_redelivery_owns_its_buffer;
        ] );
      ( "retry",
        [
          Alcotest.test_case "deterministic backoff" `Quick test_backoff_deterministic;
          Alcotest.test_case "bounded attempts" `Quick test_retry_bounded_attempts;
          Alcotest.test_case "permanent error aborts" `Quick test_retry_permanent_error_aborts;
          Alcotest.test_case "deadline cuts backoff" `Quick test_retry_deadline_cuts_backoff;
        ] );
    ]
