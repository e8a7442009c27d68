(* Self-tests for ntcs_check: the lifecycle automaton's structural
   soundness, one seeded violation per analysis (handler gap, unguarded
   NSP→LCM cycle, illegal trace) asserting the checker fires with the right
   file:line, the schedule explorer's enumeration, every scenario's
   default-schedule trace pinned, and the ntcs_check pass itself: its
   contracts reject a scenario that never branches, and a planted race
   fails it. (Exhaustive exploration of the scenarios is the @check run of
   ntcs_check.) *)

let src file text = Lint_lex.of_string ~file text
let diag_strings ds = List.map Lint_diag.to_string ds

let contains s affix =
  let n = String.length s and m = String.length affix in
  let rec go i = i + m <= n && (String.sub s i m = affix || go (i + 1)) in
  go 0

(* --- the automaton itself --- *)

let test_automaton_sound () =
  Alcotest.(check (list string)) "structurally sound" [] (Check_auto.check_automaton ())

let test_automaton_tables_cover_protocol () =
  (* Every kind the table declares maps to some handler list; the dynamic
     checker's vocabulary (inputs_of) round-trips through the table. *)
  Alcotest.(check int) "eleven kinds" 11 (List.length Check_auto.kinds);
  Alcotest.(check int) "nine requests" 9 (List.length Check_auto.ns_requests);
  Alcotest.(check int) "eight responses" 8 (List.length Check_auto.ns_responses)

(* --- seeded handler gap (static) --- *)

let fake_lcm ?(pragma = "") ~missing () =
  let arms =
    List.filter_map
      (fun (k, _, handlers) ->
        if List.mem "Lcm_layer" handlers && k <> missing then
          Some ("  | Proto." ^ k ^ " -> ()")
        else None)
      Check_auto.kinds
  in
  pragma ^ "let handle = function\n" ^ String.concat "\n" arms ^ "\n  | _ -> ()\n"

let test_handler_gap_detected () =
  let s = src "lib/core/lcm_layer.ml" (fake_lcm ~missing:"Pong" ()) in
  let ds = Check_proto.check [ s ] in
  Alcotest.(check int) "exactly one gap" 1 (List.length ds);
  let d = List.hd ds in
  Alcotest.(check string) "file" "lib/core/lcm_layer.ml" d.Lint_diag.file;
  (* anchored at the first Proto.<kind> dispatch line *)
  Alcotest.(check int) "line" 2 d.Lint_diag.line;
  Alcotest.(check string) "rule" "lifecycle" d.Lint_diag.rule;
  Alcotest.(check bool) "names the constructor" true
    (contains d.Lint_diag.msg "Proto.Pong")

let test_handler_gap_pragma_escape () =
  let pragma = "(* lint: allow-file lifecycle(Pong) \xe2\x80\x94 keepalive is one-sided here *)\n" in
  let s = src "lib/core/lcm_layer.ml" (fake_lcm ~pragma ~missing:"Pong" ()) in
  Alcotest.(check (list string)) "suppressed with a reasoned pragma" []
    (diag_strings (Check_proto.check [ s ]))

let test_decl_conformance () =
  (* A constructor the automaton does not know is flagged on its own line. *)
  let text =
    "type kind =\n"
    ^ String.concat "" (List.map (fun k -> "  | " ^ k ^ "\n") Check_auto.kind_names)
    ^ "  | Evil\n"
  in
  let ds = Check_proto.check [ src "lib/core/proto.ml" text ] in
  Alcotest.(check int) "one finding" 1 (List.length ds);
  let d = List.hd ds in
  Alcotest.(check int) "anchored at the new constructor" 13 d.Lint_diag.line;
  Alcotest.(check bool) "names it" true
    (contains d.Lint_diag.msg "Evil")

let test_ns_response_discipline () =
  (* Issuing Lookup_v without dispatching on R_addr_v (or R_error) is
     flagged. *)
  let text = "let q c = ask c Ns_proto.Lookup_v\n" in
  let ds = Check_proto.check [ src "lib/core/some_client.ml" text ] in
  Alcotest.(check int) "R_addr_v and R_error both missing" 2 (List.length ds);
  let clean = "let q c = match ask c Ns_proto.Lookup_v with\n\
               | Ns_proto.R_addr_v _ -> ()\n\
               | Ns_proto.R_error _ -> ()\n" in
  Alcotest.(check (list string)) "handled pair is clean" []
    (diag_strings (Check_proto.check [ src "lib/core/some_client.ml" clean ]))

(* --- seeded unguarded cycle (static) --- *)

let unguarded_commod =
  "let install () =\n\
  \  Lcm_layer.set_fault_oracle (fun dst ->\n\
  \    Nsp_layer.resolve dst)\n"

let fake_lcm_node = src "lib/core/lcm_layer.ml" "let transmit _ = ()\n"

let test_unguarded_cycle_detected () =
  let commod = src "lib/core/commod.ml" unguarded_commod in
  let nsp = src "lib/core/nsp_layer.ml" "let send x = Lcm_layer.transmit x\n" in
  let ds = Check_graph.check [ commod; nsp; fake_lcm_node ] in
  Alcotest.(check int) "one cycle" 1 (List.length ds);
  let d = List.hd ds in
  (* anchored at the first edge re-entering Lcm_layer from inside the cycle *)
  Alcotest.(check string) "file" "lib/core/commod.ml" d.Lint_diag.file;
  Alcotest.(check int) "line" 2 d.Lint_diag.line;
  Alcotest.(check string) "rule" "cycle" d.Lint_diag.rule;
  Alcotest.(check bool) "crosses into NSP" true
    (contains d.Lint_diag.msg "Nsp_layer")

let test_guarded_cycle_passes () =
  let commod = src "lib/core/commod.ml" unguarded_commod in
  let nsp =
    src "lib/core/nsp_layer.ml"
      "let send x = Recursion.guarded (fun () -> Lcm_layer.transmit x)\n"
  in
  Alcotest.(check (list string)) "Recursion in the cycle silences it" []
    (diag_strings (Check_graph.check [ commod; nsp; fake_lcm_node ]))

let test_hook_edges_exist () =
  (* The cycle above is only visible through the installed-callback edge:
     no direct reference leads from Lcm_layer anywhere. *)
  let commod = src "lib/core/commod.ml" unguarded_commod in
  let edges = Check_graph.graph [ commod; fake_lcm_node ] in
  Alcotest.(check bool) "Lcm_layer -> Commod (installer)" true
    (List.exists
       (fun e -> e.Check_graph.e_src = "Lcm_layer" && e.Check_graph.e_dst = "Commod")
       edges)

(* --- the lifecycle trace checker (dynamic) --- *)

let e at cat detail = { Ntcs_sim.Trace.at_us = at; cat; actor = "gw0"; detail }

let test_trace_legal_splice () =
  let good =
    [
      e 1 "gw.splice" "net0 label 7 <-> net1 label 8 dst=x";
      e 2 "gw.forward" "net0 label 7 -> net1 label 8 kind=data dst=x";
      e 3 "gw.close" "net0 label 7 <-> net1 label 8";
    ]
  in
  Alcotest.(check int) "legal lifecycle" 0 (List.length (Check_lifecycle.check good))

let test_trace_forward_after_close () =
  let bad =
    [
      e 1 "gw.splice" "net0 label 7 <-> net1 label 8 dst=x";
      e 2 "gw.close" "net0 label 7 <-> net1 label 8";
      e 3 "gw.forward" "net0 label 7 -> net1 label 8 kind=data dst=x";
    ]
  in
  let vs = Check_lifecycle.check bad in
  (* both legs of the splice report the §4.3 ordering violation *)
  Alcotest.(check int) "both legs flagged" 2 (List.length vs);
  List.iter
    (fun v ->
      Alcotest.(check string) "invariant" "lifecycle" v.Lint_trace.v_invariant;
      Alcotest.(check int) "at the forward" 3 v.Lint_trace.v_at_us)
    vs

let test_trace_forward_before_splice () =
  let bad = [ e 1 "gw.forward" "net0 label 7 -> net1 label 8 kind=data dst=x" ] in
  Alcotest.(check int) "traffic on unopened legs" 2
    (List.length (Check_lifecycle.check bad))

let test_trace_endpoint_lifecycle () =
  let m cat detail at = { Ntcs_sim.Trace.at_us = at; cat; actor = "m1"; detail } in
  let good =
    [
      m "ip.ivc_open_sent" "label 5 to a!b" 1;
      m "ip.ivc_open" "to a!b via 1 hop(s) label 5" 2;
      m "ip.ivc_close" "label 5 peer a!b local reason=shutdown" 3;
    ]
  in
  Alcotest.(check int) "legal endpoint lifecycle" 0 (List.length (Check_lifecycle.check good));
  let bad = good @ [ m "ip.ivc_reject" "label 5" 4 ] in
  let vs = Check_lifecycle.check bad in
  Alcotest.(check int) "reject while draining" 1 (List.length vs)

(* --- the explorer --- *)

let test_explorer_enumerates_all_orders () =
  let seen = Hashtbl.create 16 in
  let make () =
    let s = Ntcs_sim.Sched.create () in
    let order = Buffer.create 8 in
    List.iter
      (fun name ->
        ignore (Ntcs_sim.Sched.spawn ~name s (fun () -> Buffer.add_string order name)))
      [ "a"; "b"; "c" ];
    let body () =
      Ntcs_sim.Sched.run_until_quiescent s;
      Hashtbl.replace seen (Buffer.contents order) ();
      []
    in
    (s, body)
  in
  let o = Ntcs_sim.Explore.run ~make () in
  Alcotest.(check int) "3! schedules" 6 o.Ntcs_sim.Explore.schedules;
  Alcotest.(check bool) "exhaustive" false o.Ntcs_sim.Explore.truncated;
  Alcotest.(check int) "no failures" 0 (List.length o.Ntcs_sim.Explore.failures);
  Alcotest.(check int) "all 6 orders actually ran" 6 (Hashtbl.length seen)

let test_explorer_budget_truncates () =
  let make () =
    let s = Ntcs_sim.Sched.create () in
    List.iter
      (fun name -> ignore (Ntcs_sim.Sched.spawn ~name s (fun () -> ())))
      [ "a"; "b"; "c"; "d" ];
    (s, fun () -> Ntcs_sim.Sched.run_until_quiescent s; [])
  in
  let o = Ntcs_sim.Explore.run ~max_schedules:5 ~make () in
  Alcotest.(check bool) "truncated at the budget" true o.Ntcs_sim.Explore.truncated;
  Alcotest.(check int) "ran exactly the budget" 5 o.Ntcs_sim.Explore.schedules

let test_explorer_reports_failures () =
  let make () =
    let s = Ntcs_sim.Sched.create () in
    let order = Buffer.create 8 in
    List.iter
      (fun name ->
        ignore (Ntcs_sim.Sched.spawn ~name s (fun () -> Buffer.add_string order name)))
      [ "a"; "b" ];
    let body () =
      Ntcs_sim.Sched.run_until_quiescent s;
      if Buffer.contents order = "ba" then [ "b must not beat a" ] else []
    in
    (s, body)
  in
  let o = Ntcs_sim.Explore.run ~make () in
  Alcotest.(check int) "two schedules" 2 o.Ntcs_sim.Explore.schedules;
  (match o.Ntcs_sim.Explore.failures with
   | [ (path, msg) ] ->
     Alcotest.(check string) "the violation" "b must not beat a" msg;
     Alcotest.(check (list int)) "on the swapped schedule" [ 1 ] path
   | fs -> Alcotest.failf "expected one failure, got %d" (List.length fs))

(* --- every scenario's default schedule, pinned --- *)

(* One run per scenario in its default order, checkers disarmed: the MD5
   of the whole trace dump and the violation list. A change to how the
   scenarios are written must leave both as they are. *)
let test_default_schedules_pinned () =
  let run sc =
    let w, body = sc.Check_scenarios.sc_make Check_scenarios.Mode.default in
    let violations = body () in
    let dump = Fmt.str "%a" Ntcs_sim.Trace.dump (Ntcs_sim.World.trace w) in
    (sc.Check_scenarios.sc_name, Digest.to_hex (Digest.string dump), violations)
  in
  let got = List.map run (Check_scenarios.exhaustive @ Check_scenarios.soaks) in
  List.iter2
    (fun (name, digest, violations) (want_name, want_digest) ->
      Alcotest.(check string) "scenario order" want_name name;
      Alcotest.(check string) (name ^ " trace digest") want_digest digest;
      Alcotest.(check (list string)) (name ^ " violations") [] violations)
    got
    [
      ("first-send", "97cac06e385ffb4b4630295dd106c8cf");
      ("break-ns", "a0e529c55690617d56d094dd0d734220");
      ("fault-partition-heal", "97f3e43b991e30d5d07b07ea9e4b07ce");
      ("fault-crash-restart", "68e4dc405dc84b5b5ef2b3d9242b5e23");
      ("fault-ns-partition-guard", "609a612e14a4e2ca1375af406a0e22ce");
      ("fault-ns-partition-noguard", "c9a3f51fa3cc2c4384e44fa53df5fd53");
      ("naming-stale-splice", "7093c96947481b33c0b9cfbbbb954a77");
      ("naming-shard-loss", "1d02646332020e564690ccd10a5dce6f");
      ("naming-shard-route", "94873d3d93155f80d6fe9f3a3d0b5781");
    ]

(* --- the ntcs_check pass: contracts and armed checkers --- *)

(* A window with no tie in it: the scenario runs one schedule, clean and
   untruncated, and proves nothing about interleavings. Both contracts
   must reject it. *)
let test_never_branching_fails () =
  let sc = Check_scenarios.first_send in
  let sc = { sc with Check_scenarios.sc_from = sc.Check_scenarios.sc_until } in
  List.iter
    (fun (name, contract) ->
      match Check.explore contract [ sc ] with
      | [ x ] ->
        let o = x.Check.x_outcome in
        Alcotest.(check int) (name ^ ": one schedule") 1 o.Ntcs_sim.Explore.schedules;
        Alcotest.(check bool) (name ^ ": not truncated") false o.Ntcs_sim.Explore.truncated;
        Alcotest.(check int) (name ^ ": schedule itself clean") 0
          (List.length o.Ntcs_sim.Explore.failures);
        Alcotest.(check bool) (name ^ ": fails its contract") true (Check.exploration_failed x)
      | xs -> Alcotest.failf "expected one exploration, got %d" (List.length xs))
    [ ("exhaustive", Check.exhaustive); ("soak", Check.soak) ]

(* A one-machine scenario: [plant] spawns two processes at t=0, so the
   explorer branches once, and [violations] reads the world after each
   schedule. The world is built from the mode [Check.explore] hands in,
   arming the race checker the way the real scenarios do. *)
let planted ~name ~plant ~violations =
  let make mode =
    let w = Ntcs_sim.World.create ~config:(Check_scenarios.config_of_mode mode) () in
    if mode.Check_scenarios.Mode.races then ignore (Check_race.arm w);
    let m = Ntcs_sim.World.add_machine w ~name:"m1" Ntcs_sim.Machine.Vax () in
    plant w m;
    let body () =
      Ntcs_sim.World.run w;
      violations w
    in
    (w, body)
  in
  { Check_scenarios.sc_name = name; sc_from = 0; sc_until = 1; sc_make = make }

let expect_caught sc needle =
  match Check.explore Check.exhaustive [ sc ] with
  | [ x ] ->
    let o = x.Check.x_outcome in
    Alcotest.(check int) "branched" 2 o.Ntcs_sim.Explore.schedules;
    Alcotest.(check bool) "failed" true (Check.exploration_failed x);
    Alcotest.(check bool)
      ("every schedule reports " ^ needle) true
      (List.length o.Ntcs_sim.Explore.failures = 2
      && List.for_all (fun (_, msg) -> contains msg needle) o.Ntcs_sim.Explore.failures)
  | xs -> Alcotest.failf "expected one exploration, got %d" (List.length xs)

let test_pass_arms_race_checker () =
  let violations w =
    List.map
      (fun (e : Ntcs_sim.Trace.entry) -> "race.conflict: " ^ e.detail)
      (Ntcs_sim.Trace.matching (Ntcs_sim.World.trace w) ~cat:"race.conflict")
  in
  expect_caught (planted ~name:"planted-race" ~plant:Helpers.inject_race ~violations)
    "race.conflict"

(* --- the repo itself conforms --- *)

let test_repo_conformant () =
  (* `dune build @check` enforces this too; asserting it here keeps the
     property visible in the unit suite (when run from the repo root). *)
  if Sys.file_exists "lib" && Sys.is_directory "lib" then begin
    Alcotest.(check (list string)) "no findings in lib/" []
      (diag_strings (Check.static_check [ "lib" ]));
    (* Non-vacuity: the real §6.3 loop (LCM -> fault oracle -> NSP -> LCM)
       is visible to the graph analysis — it passes because the Recursion
       guard is referenced inside the cycle, not because no cycle exists. *)
    let srcs = List.map Lint_lex.load (Lint.source_files [ "lib" ]) in
    let components = Check_graph.sccs (Check_graph.graph srcs) in
    Alcotest.(check bool) "the guarded NSP<->LCM cycle is seen" true
      (List.exists
         (fun scc ->
           List.length scc > 1
           && List.mem "Lcm_layer" scc
           && List.exists
                (fun m ->
                  match Lint_rules.rank_of m with Some r -> r >= 5 | None -> false)
                scc)
         components)
  end

let () =
  Alcotest.run "check"
    [
      ( "automaton",
        [
          Alcotest.test_case "structurally sound" `Quick test_automaton_sound;
          Alcotest.test_case "tables sized to the protocol" `Quick
            test_automaton_tables_cover_protocol;
        ] );
      ( "handlers",
        [
          Alcotest.test_case "gap detected at file:line" `Quick test_handler_gap_detected;
          Alcotest.test_case "pragma escape" `Quick test_handler_gap_pragma_escape;
          Alcotest.test_case "declaration conformance" `Quick test_decl_conformance;
          Alcotest.test_case "ns response discipline" `Quick test_ns_response_discipline;
        ] );
      ( "cycles",
        [
          Alcotest.test_case "unguarded cycle detected" `Quick test_unguarded_cycle_detected;
          Alcotest.test_case "guarded cycle passes" `Quick test_guarded_cycle_passes;
          Alcotest.test_case "hook edges resolved" `Quick test_hook_edges_exist;
        ] );
      ( "lifecycle-trace",
        [
          Alcotest.test_case "legal splice" `Quick test_trace_legal_splice;
          Alcotest.test_case "forward after close" `Quick test_trace_forward_after_close;
          Alcotest.test_case "forward before splice" `Quick test_trace_forward_before_splice;
          Alcotest.test_case "endpoint lifecycle" `Quick test_trace_endpoint_lifecycle;
        ] );
      ( "explorer",
        [
          Alcotest.test_case "enumerates all orders" `Quick test_explorer_enumerates_all_orders;
          Alcotest.test_case "budget truncates" `Quick test_explorer_budget_truncates;
          Alcotest.test_case "failures carry the path" `Quick test_explorer_reports_failures;
        ] );
      ( "pins",
        [ Alcotest.test_case "default schedules" `Quick test_default_schedules_pinned ] );
      ( "pass",
        [
          Alcotest.test_case "never-branching scenario fails" `Quick test_never_branching_fails;
          Alcotest.test_case "race checker armed" `Quick test_pass_arms_race_checker;
        ] );
      ("repo", [ Alcotest.test_case "lib/ conformant" `Quick test_repo_conformant ]);
    ]
