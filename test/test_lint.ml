(* Self-tests for the ntcs_lint static-analysis pass: the front end, one
   seeded violation per rule family (R1 layering, R2 determinism, R3 trace
   invariants, R5 copies, R8 domain safety) asserting the linter fires with
   the right file:line, and the allow-pragma escape hatch. *)

let src file text = Lint_lex.of_string ~file text

let diag_strings ds = List.map Lint_diag.to_string ds

(* --- front end --- *)

let refs text = (src "x.ml" text).Lint_lex.src_refs

(* Comments, strings and character literals cannot fake a reference, and
   every real one keeps its line. *)
let test_comments_and_strings () =
  let text =
    "let a = 1 (* note\n   Foo.bar *)\nlet s = \"Baz.qux\"\nlet c = '\"'\nlet r = Real.x\n"
  in
  Alcotest.(check (list (pair int string))) "only the real ref, on its line" [ (5, "Real") ]
    (refs text)

let test_nested_comment () =
  let text = "(* a (* nested *) still comment Foo.bar *)\nlet x = Lcm_layer.create\n" in
  Alcotest.(check (list (pair int string))) "only the real ref" [ (2, "Lcm_layer") ] (refs text)

let test_module_refs () =
  let text = "open Nsp_layer\nlet x = Ntcs_util.Pool.alloc\nlet y = Some 1\n" in
  Alcotest.(check (list (pair int string)))
    "open + head of path, constructors skipped"
    [ (1, "Nsp_layer"); (2, "Ntcs_util") ]
    (refs text)

(* Quoted strings are strings: neither a rule nor the reference graph sees
   their contents. *)
let test_quoted_strings () =
  Alcotest.(check (list string)) "no R1/R2 diagnostics" []
    (diag_strings
       (Lint.lint
          [
            src "lib/sim/sched.ml" "let s = {|Hashtbl.iter|}\n";
            src "lib/core/nd_layer.ml" "let s = {|see Lcm_layer.create|}\n";
          ]));
  Alcotest.(check (list (pair int string))) "no phantom reference" []
    (refs "let fig () =\n  print_string\n    {|\nFigure 2-4: (modules: Ali_layer, Nsp_layer)|}\n")

(* A file the compiler cannot parse is one diagnostic from both tools'
   entry points, not an exception. *)
let test_parse_error () =
  let file = Filename.temp_file "bad" ".ml" in
  Out_channel.with_open_bin file (fun oc -> output_string oc "let x = (\n");
  let expected = [ file ^ ":2: [parse] Syntax error: operator expected." ] in
  Alcotest.(check (list string)) "ntcs_lint" expected
    (diag_strings (Lint.lint (Lint.load [ file ])));
  Alcotest.(check (list string)) "ntcs_check" expected (diag_strings (Check.static_check [ file ]));
  Sys.remove file

let test_pragma_parse () =
  let text =
    "(* lint: allow layering(Commod) \xe2\x80\x94 documented exception *)\n\
     let x = 1\n\
     (* lint: allow-file determinism -- whole file *)\n"
  in
  let ps, bad = Lint_lex.pragmas (src "x.ml" text) in
  Alcotest.(check int) "no malformed" 0 (List.length bad);
  Alcotest.(check int) "two pragmas" 2 (List.length ps);
  let p1 = List.nth ps 0 and p2 = List.nth ps 1 in
  Alcotest.(check bool) "line scope" false p1.Lint_lex.p_file_scope;
  Alcotest.(check (option string)) "arg" (Some "Commod") p1.Lint_lex.p_arg;
  Alcotest.(check bool) "file scope" true p2.Lint_lex.p_file_scope;
  Alcotest.(check (option string)) "no arg" None p2.Lint_lex.p_arg;
  Alcotest.(check bool) "covers own line"
    true
    (Lint_lex.pragma_allows ps ~rule:"layering" ~arg:"Commod" ~line:1);
  Alcotest.(check bool) "covers next line"
    true
    (Lint_lex.pragma_allows ps ~rule:"layering" ~arg:"Commod" ~line:2);
  Alcotest.(check bool) "not two lines down"
    false
    (Lint_lex.pragma_allows ps ~rule:"layering" ~arg:"Commod" ~line:3);
  Alcotest.(check bool) "file scope covers everything"
    true
    (Lint_lex.pragma_allows ps ~rule:"determinism" ~arg:"Hashtbl.iter" ~line:99)

let test_pragma_malformed () =
  let text = "(* lint: allow layering(Commod) *)\n(* lint: allow determinism \xe2\x80\x94 *)\n" in
  let ps, bad = Lint_lex.pragmas (src "x.ml" text) in
  Alcotest.(check int) "none parse" 0 (List.length ps);
  Alcotest.(check (list string))
    "both reported with file:line"
    [
      "x.ml:1: [pragma] malformed pragma: missing \xe2\x80\x94 separator before the reason";
      "x.ml:2: [pragma] malformed pragma: missing reason after the separator";
    ]
    (diag_strings bad);
  (* Documentation that merely mentions the syntax is not a pragma. *)
  let doc = "(* write e.g. lint: allow layering(Foo) to suppress *)\n" in
  let ps, bad = Lint_lex.pragmas (src "x.ml" doc) in
  Alcotest.(check int) "mid-comment mention ignored" 0 (List.length ps + List.length bad)

(* A pragma must name a rule that reads pragmas: a retired rule or a typo
   would otherwise suppress nothing without saying so. *)
let unknown_rule ~line rule =
  Printf.sprintf
    "x.ml:%d: [pragma] malformed pragma: no rule `%s' reads pragmas (expected one of: \
     layering, determinism, copies, category, domsafe, lifecycle)"
    line rule

let test_pragma_retired_rule () =
  let text = "(* lint: allow escape(v) \xe2\x80\x94 inbox hand-off *)\nlet x = 1\n" in
  let ps, bad = Lint_lex.pragmas (src "x.ml" text) in
  Alcotest.(check int) "does not parse" 0 (List.length ps);
  Alcotest.(check (list string)) "reported with file:line" [ unknown_rule ~line:1 "escape" ]
    (diag_strings bad)

let test_pragma_misspelt_rule () =
  let text =
    "(* lint: allow copeis(Bytes.sub) \xe2\x80\x94 the in-flight segment *)\n\
     let seg data n = Bytes.sub data 0 n\n"
  in
  let ps, bad = Lint_lex.pragmas (src "x.ml" text) in
  Alcotest.(check int) "does not parse" 0 (List.length ps);
  Alcotest.(check (list string)) "reported with file:line" [ unknown_rule ~line:1 "copeis" ]
    (diag_strings bad);
  Alcotest.(check int) "waives nothing" 1
    (List.length (Lint_forbidden.check (src "lib/ipcs/ipcs_tcp.ml" text)))

let test_pragma_retired_rule_file_scope () =
  let text = "(* lint: allow-file ownership \xe2\x80\x94 buffers handed off below *)\n" in
  let ps, bad = Lint_lex.pragmas (src "x.ml" text) in
  Alcotest.(check int) "does not parse" 0 (List.length ps);
  Alcotest.(check (list string)) "reported with file:line" [ unknown_rule ~line:1 "ownership" ]
    (diag_strings bad)

(* --- every rule that reads pragmas honours one --- *)

(* One seeded violation per rule in [Lint_rules.pragma_rules], and the same
   source with a line pragma in front of the violating line. [waived r]
   writes the pragma for rule [r], so the fixture also shows that a
   pragma naming another live rule waives nothing. *)
type waiver = {
  w_rule : string;
  w_check : string -> Lint_diag.t list;
  w_bad : string;
  w_waived : string -> string;
}

let line_pragma rule arg =
  Printf.sprintf "(* lint: allow %s(%s) \xe2\x80\x94 fixture *)\n" rule arg

let in_front ~arg bad rule = line_pragma rule arg ^ bad

(* A Lcm_layer dispatch with an arm for every kind it handles but Pong. *)
let lcm_arms =
  List.filter_map
    (fun (k, _, handlers) ->
      if List.mem "Lcm_layer" handlers && k <> "Pong" then Some ("  | Proto." ^ k ^ " -> ()\n")
      else None)
    Check_auto.kinds
  |> String.concat ""

let waivers =
  [
    {
      w_rule = "layering";
      w_check = (fun t -> Lint_layering.check (src "lib/core/nd_layer.ml" t));
      w_bad = "let b = Lcm_layer.create\n";
      w_waived = in_front ~arg:"Lcm_layer" "let b = Lcm_layer.create\n";
    };
    {
      w_rule = "determinism";
      w_check = (fun t -> Lint_forbidden.check (src "lib/sim/sched.ml" t));
      w_bad = "let a tbl = Hashtbl.fold f tbl []\n";
      w_waived = in_front ~arg:"Hashtbl.fold" "let a tbl = Hashtbl.fold f tbl []\n";
    };
    {
      w_rule = "copies";
      w_check = (fun t -> Lint_forbidden.check (src "lib/ipcs/ipcs_tcp.ml" t));
      w_bad = "let seg data n = Bytes.sub data 0 n\n";
      w_waived = in_front ~arg:"Bytes.sub" "let seg data n = Bytes.sub data 0 n\n";
    };
    {
      w_rule = "category";
      w_check = (fun t -> Lint_categories.check (src "lib/core/lcm_layer.ml" t));
      w_bad = "let () = Trace.record t ~cat:\"fixture.unknown\" \"x\"\n";
      w_waived =
        in_front ~arg:"fixture.unknown" "let () = Trace.record t ~cat:\"fixture.unknown\" \"x\"\n";
    };
    {
      w_rule = "domsafe";
      w_check =
        (fun t ->
          Lint_domsafe.check
            [
              src "lib/sim/counter_store.ml" t;
              src "lib/core/some_layer.ml" "let bump () = incr Counter_store.counter\n";
            ]);
      w_bad = "let counter = ref 0\n";
      w_waived = in_front ~arg:"counter" "let counter = ref 0\n";
    };
    {
      w_rule = "lifecycle";
      w_check = (fun t -> Check_proto.check [ src "lib/core/lcm_layer.ml" t ]);
      w_bad = "let handle = function\n" ^ lcm_arms ^ "  | _ -> ()\n";
      (* Gaps are anchored at the first dispatch arm: the pragma sits
         just above it. *)
      w_waived =
        (fun rule -> "let handle = function\n" ^ line_pragma rule "Pong" ^ lcm_arms ^ "  | _ -> ()\n");
    };
  ]

let waiver_case w =
  let rules ds = List.sort_uniq compare (List.map (fun d -> d.Lint_diag.rule) ds) in
  let other = List.find (fun r -> r <> w.w_rule) Lint_rules.pragma_rules in
  Alcotest.test_case (w.w_rule ^ " honours its pragma") `Quick (fun () ->
      let bad = w.w_check w.w_bad in
      Alcotest.(check (list string)) "the seeded violation fires" [ w.w_rule ] (rules bad);
      Alcotest.(check (list string)) "its pragma waives it" []
        (diag_strings (w.w_check (w.w_waived w.w_rule)));
      Alcotest.(check int)
        (Printf.sprintf "a %s pragma waives nothing" other)
        (List.length bad)
        (List.length (w.w_check (w.w_waived other))))

let test_every_pragma_rule_has_a_waiver () =
  Alcotest.(check (list string)) "one fixture per rule that reads pragmas"
    Lint_rules.pragma_rules
    (List.map (fun w -> w.w_rule) waivers)

(* --- R1: layering --- *)

let test_r1_upward_reference () =
  let text = "let boot () =\n  Lcm_layer.create ()\n" in
  let ds = Lint_layering.check (src "lib/core/nd_layer.ml" text) in
  Alcotest.(check (list string))
    "upward reference reported at file:line"
    [
      "lib/core/nd_layer.ml:2: [layering] Nd_layer (ND, rank 2) references Lcm_layer (LCM, \
       rank 4): layers only call downward";
    ]
    (diag_strings ds);
  (* Downward is fine. *)
  let ds = Lint_layering.check (src "lib/core/lcm_layer.ml" "let x = Ip_layer.send\n") in
  Alcotest.(check int) "downward clean" 0 (List.length ds);
  (* The pragma silences it. *)
  let text = "(* lint: allow layering(Lcm_layer) \xe2\x80\x94 test exception *)\nlet b = Lcm_layer.create\n" in
  let ds = Lint_layering.check (src "lib/core/nd_layer.ml" text) in
  Alcotest.(check int) "pragma suppresses" 0 (List.length ds)

(* A path qualified through a record field is a reference like any other. *)
let test_r1_field_qualified () =
  Alcotest.(check (list string))
    "c.Lcm_layer.cid reported"
    [
      "lib/core/nd_layer.ml:1: [layering] Nd_layer (ND, rank 2) references Lcm_layer (LCM, \
       rank 4): layers only call downward";
    ]
    (diag_strings (Lint_layering.check (src "lib/core/nd_layer.ml" "let f c = c.Lcm_layer.cid\n")))

let test_r1_backend_naming () =
  let ds = Lint_layering.check (src "lib/core/lcm_layer.ml" "let x = Ipcs_tcp.connect\n") in
  Alcotest.(check int) "LCM may not name a backend" 1 (List.length ds);
  Alcotest.(check string) "right rule" "layering" (List.hd ds).Lint_diag.rule;
  let ds = Lint_layering.check (src "lib/core/std_if.ml" "let x = Ipcs_tcp.connect\n") in
  Alcotest.(check int) "Std_if may" 0 (List.length ds);
  let ds = Lint_layering.check (src "lib/ipcs/registry.ml" "let x = Ipcs_mbx.create\n") in
  Alcotest.(check int) "lib/ipcs may" 0 (List.length ds)

let test_r1_conversion_selection () =
  let ds = Lint_forbidden.check (src "lib/core/lcm_layer.ml" "let m = Convert.choose a b\n") in
  Alcotest.(check (list string))
    "conversion selected above IP"
    [
      "lib/core/lcm_layer.ml:1: [layering] Lcm_layer calls Convert.choose: only Ip_layer \
       selects a conversion mode (\xc2\xa75)";
    ]
    (diag_strings ds);
  let ds = Lint_forbidden.check (src "lib/core/ip_layer.ml" "let m = Convert.choose a b\n") in
  Alcotest.(check int) "Ip_layer may" 0 (List.length ds)

let test_r1_retry_discipline () =
  let text = "let backoff sched = Sched.sleep sched 50_000\n" in
  let ds = Lint_forbidden.check (src "lib/core/lcm_layer.ml" text) in
  Alcotest.(check (list string))
    "ad-hoc sleep in lib/core flagged"
    [
      "lib/core/lcm_layer.ml:1: [layering] Lcm_layer calls Sched.sleep: lib/core recovers \
       through Retry.run, not ad-hoc sleeps";
    ]
    (diag_strings ds);
  Alcotest.(check int) "Retry itself may sleep" 0
    (List.length (Lint_forbidden.check (src "lib/core/retry.ml" text)));
  Alcotest.(check int) "applications may sleep" 0
    (List.length (Lint_forbidden.check (src "lib/drts/time_service.ml" text)));
  (* Unix.sleep is a determinism violation everywhere. *)
  Alcotest.(check int) "Unix.sleep everywhere" 1
    (List.length (Lint_forbidden.check (src "lib/util/x.ml" "let () = Unix.sleep 1\n")))

(* --- R2: determinism --- *)

let test_r2_forbidden_calls () =
  let text = "let a tbl = Hashtbl.iter f tbl\nlet b () = Obj.magic 0\n" in
  let ds = Lint_forbidden.check (src "lib/core/lcm_layer.ml" text) in
  Alcotest.(check (list string))
    "both reported with file:line"
    [
      "lib/core/lcm_layer.ml:1: [determinism] Hashtbl.iter: hash-order iteration is \
       nondeterministic; use Ntcs_util.sorted_bindings";
      "lib/core/lcm_layer.ml:2: [determinism] Obj.magic: defeats the type system; never on \
       a protocol path";
    ]
    (diag_strings ds)

let test_r2_scope_and_pragma () =
  (* Hashtbl rules apply only on protocol paths... *)
  let text = "let a tbl = Hashtbl.fold f tbl []\n" in
  Alcotest.(check int) "lib/util exempt" 0
    (List.length (Lint_forbidden.check (src "lib/util/tbl.ml" text)));
  Alcotest.(check int) "protocol path flagged" 1
    (List.length (Lint_forbidden.check (src "lib/sim/sched.ml" text)));
  (* ...but the wall-clock/unsafe rules apply everywhere. *)
  Alcotest.(check int) "Unix.gettimeofday everywhere" 1
    (List.length
       (Lint_forbidden.check (src "lib/util/x.ml" "let t = Unix.gettimeofday ()\n")));
  (* Escape hatch. *)
  let text =
    "(* lint: allow determinism(Hashtbl.fold) \xe2\x80\x94 snapshot, order irrelevant *)\n\
     let a tbl = Hashtbl.fold f tbl []\n"
  in
  Alcotest.(check int) "pragma suppresses" 0
    (List.length (Lint_forbidden.check (src "lib/sim/sched.ml" text)));
  (* Word boundaries: prefixes and strings don't fire. *)
  let text = "let a = My_hashtbl.iter\nlet b = \"Hashtbl.iter\"\n" in
  Alcotest.(check int) "no false positives" 0
    (List.length (Lint_forbidden.check (src "lib/sim/sched.ml" text)))

(* --- R5: copies --- *)

let test_r5_ipcs_copies () =
  let text = "let seg data n = Bytes.sub data 0 n\nlet out b = Buffer.to_bytes b\n" in
  Alcotest.(check (list string))
    "unwaived copies in lib/ipcs reported"
    [
      "lib/ipcs/ipcs_tcp.ml:1: [copies] Bytes.sub: byte copy on a frame path \u{2014} use \
       Proto.Frame views and keep payloads in place";
      "lib/ipcs/ipcs_tcp.ml:2: [copies] Buffer.to_bytes: byte copy on a frame path \u{2014} use \
       Proto.Frame views and keep payloads in place";
    ]
    (diag_strings (Lint_forbidden.check (src "lib/ipcs/ipcs_tcp.ml" text)));
  let waived =
    "(* lint: allow copies(Bytes.sub) \xe2\x80\x94 the in-flight segment *)\n\
     let seg data n = Bytes.sub data 0 n\n"
  in
  Alcotest.(check int) "pragma waives" 0
    (List.length (Lint_forbidden.check (src "lib/ipcs/ipcs_tcp.ml" waived)));
  Alcotest.(check int) "outside the frame path" 0
    (List.length (Lint_forbidden.check (src "lib/util/pool.ml" text)))

(* --- R3: trace invariants --- *)

let e ?(at = 0) cat actor detail =
  { Ntcs_sim.Trace.at_us = at; cat; actor; detail }

let gw_world =
  [
    e "gw.addr" "gwA" "U900.1";
    e "gw.addr" "gwB" "U901.1";
    e "gw.up" "gwA" "bridging nets [0,1]";
  ]

let test_r3_gateway_peering () =
  (* Clean: a chain through gwA terminating at an application address. *)
  let clean =
    gw_world
    @ [
        e "nd.open" "gw/gwA@1" "U901.1 at mbx:ring/7";
        e "gw.splice" "gwA" "net0 label 3 <-> net1 label 4 dst=U55.9";
        e "gw.forward" "gwA" "net0 label 3 -> net1 label 4 kind=msg dst=U55.9";
      ]
  in
  Alcotest.(check int) "chain through a gateway is legal" 0
    (List.length (Lint_trace.no_gateway_peering clean));
  (* Violation: a chain terminating at a gateway address. *)
  let bad = gw_world @ [ e "gw.splice" "gwA" "net0 label 3 <-> net1 label 4 dst=U901.1" ] in
  (match Lint_trace.no_gateway_peering bad with
   | [ v ] -> Alcotest.(check string) "invariant name" "gateway-peering" v.Lint_trace.v_invariant
   | vs -> Alcotest.failf "expected 1 violation, got %d" (List.length vs));
  (* Forwarded payload toward a gateway: violation. Replies flowing back to
     a gateway-originated chain: legal. *)
  let bad = gw_world @ [ e "gw.forward" "gwA" "net0 label 3 -> net1 label 4 kind=data dst=U901.1" ] in
  Alcotest.(check int) "payload toward a gateway" 1
    (List.length (Lint_trace.no_gateway_peering bad));
  let ok = gw_world @ [ e "gw.forward" "gwA" "net0 label 3 -> net1 label 4 kind=reply dst=U901.1" ] in
  Alcotest.(check int) "replies back to a gateway-originated chain" 0
    (List.length (Lint_trace.no_gateway_peering ok));
  (* Violation: a gateway ComMod opens an IVC to another gateway. *)
  let bad = gw_world @ [ e "ip.ivc_open" "gw/gwA@0" "to U901.1 via 1 hop(s)" ] in
  Alcotest.(check int) "gateway IVC to gateway" 1
    (List.length (Lint_trace.no_gateway_peering bad));
  (* Violation: a gateway-to-gateway circuit with no chain to justify it. *)
  let bad = gw_world @ [ e "nd.open" "gw/gwA@1" "U901.1 at mbx:ring/7" ] in
  Alcotest.(check int) "chainless circuit between gateways" 1
    (List.length (Lint_trace.no_gateway_peering bad));
  (* Ordinary modules may open circuits to gateways, of course. *)
  let ok = gw_world @ [ e "nd.open" "client" "U900.1 at tcp:ether/2" ] in
  Alcotest.(check int) "apps reach gateways freely" 0
    (List.length (Lint_trace.no_gateway_peering ok))

let test_r3_recursion_depth () =
  let entries = [ e "lcm.depth" "vax1/ns" "3"; e ~at:7 "lcm.depth" "vax1/ns" "70" ] in
  (match Lint_trace.recursion_bounded ~limit:64 entries with
   | [ v ] ->
     Alcotest.(check string) "invariant" "recursion-depth" v.Lint_trace.v_invariant;
     Alcotest.(check int) "timestamped" 7 v.Lint_trace.v_at_us
   | vs -> Alcotest.failf "expected 1 violation, got %d" (List.length vs));
  Alcotest.(check int) "within bound clean" 0
    (List.length (Lint_trace.recursion_bounded ~limit:70 entries))

let test_r3_identity_conversion () =
  let ok =
    [
      e "ip.convert" "vax1/a" "mode=image local=be remote=be dst=U5.1";
      e "ip.convert" "vax1/a" "mode=packed local=be remote=le dst=U5.2";
      e "ip.convert" "vax1/a" "mode=packed local=be remote=be dst=U5.3 forced";
    ]
  in
  Alcotest.(check int) "image/equal, packed/mixed, forced all legal" 0
    (List.length (Lint_trace.no_identity_conversion ok));
  let bad =
    [
      e "ip.convert" "vax1/a" "mode=packed local=be remote=be dst=U5.1";
      e "ip.convert" "vax1/a" "mode=image local=le remote=be dst=U5.2";
    ]
  in
  Alcotest.(check int) "both degenerate modes flagged" 2
    (List.length (Lint_trace.no_identity_conversion bad));
  Alcotest.(check int) "check_all aggregates" 2
    (List.length (Lint_trace.check_all ~recursion_limit:64 bad))

(* --- R8: domain safety (shared-state ownership map) --- *)

(* A module-level ref in lib/sim, referenced from a lib/core file: the
   holder is reachable from per-machine code, so the binding is an R8
   violation — pinned at the allocating line of a multi-line RHS. *)
let test_r8_ambient_reachable () =
  let holder =
    src "lib/sim/counter_store.ml" "let counter =\n  ref 0\n\nlet peek () = !counter\n"
  in
  let user = src "lib/core/some_layer.ml" "let bump () = incr Counter_store.counter\n" in
  Alcotest.(check (list string))
    "flagged at the ref, not the let"
    [
      "lib/sim/counter_store.ml:2: [domsafe] module-level mutable binding 'counter' \
       (ref) is ambient-global and reachable from per-machine code; move it into \
       World/Node state or add `lint: allow domsafe(counter)` with the migration story";
    ]
    (diag_strings (Lint_domsafe.check [ holder; user ]))

(* A library root's [module Rng = Rng] alias is an edge: lib/core reaching
   Ntcs_util.Rng reaches rng.ml's globals. *)
let test_r8_through_alias () =
  let ds =
    Lint_domsafe.check
      [
        src "lib/util/rng.ml" "let draws = ref 0\n";
        src "lib/util/ntcs_util.ml" "module Rng = Rng\n";
        src "lib/core/some_layer.ml" "let seed r = Ntcs_util.Rng.split r\n";
      ]
  in
  Alcotest.(check (list string)) "one domsafe diagnostic" [ "domsafe" ]
    (List.map (fun d -> d.Lint_diag.rule) ds)

(* Functions and closure-captured state are per-call / per-value, not
   module-level: none of these are bindings. *)
let test_r8_functions_skipped () =
  let holder =
    src "lib/sim/counter_store.ml"
      "let lookup tbl k = Hashtbl.find_opt tbl k\n\n\
       let make () = ref 0\n\n\
       let scenario =\n\
      \  let cell = ref 0 in\n\
      \  fun () -> incr cell\n"
  in
  let user = src "lib/core/some_layer.ml" "let go () = Counter_store.scenario ()\n" in
  Alcotest.(check (list string)) "no module-level mutable bindings" []
    (diag_strings (Lint_domsafe.check [ holder; user ]));
  Alcotest.(check int) "inventory agrees: zero binding entries" 0
    (List.length
       (List.filter
          (fun e -> e.Lint_domsafe.d_scope = Lint_domsafe.Binding)
          (Lint_domsafe.inventory [ holder; user ])))

(* Unreferenced from any per-machine module: still inventoried as
   ambient-global, but not a violation. *)
let test_r8_unreachable_inventoried () =
  let holder = src "lib/sim/counter_store.ml" "let counter = ref 0\n" in
  Alcotest.(check (list string)) "no diagnostics" []
    (diag_strings (Lint_domsafe.check [ holder ]));
  match Lint_domsafe.inventory [ holder ] with
  | [ e ] ->
    Alcotest.(check string) "class" "ambient-global"
      (Lint_domsafe.class_name e.Lint_domsafe.d_class);
    Alcotest.(check bool) "not reachable" false e.Lint_domsafe.d_reachable
  | es -> Alcotest.failf "expected one inventory entry, got %d" (List.length es)

(* The resolved call graph is injected by the driver (ntcs_lint passes
   Check_graph's hook-aware edges): an edge from a ranked module makes
   the holder reachable even with no reference in the sources. *)
let test_r8_resolved_graph_override () =
  let holder = src "lib/sim/counter_store.ml" "let counter = ref 0\n" in
  Alcotest.(check int) "edge from Lcm_layer makes it a violation" 1
    (List.length
       (Lint_domsafe.check ~graph:[ ("Lcm_layer", "Counter_store") ] [ holder ]));
  Alcotest.(check int) "no edge, no violation" 0
    (List.length (Lint_domsafe.check ~graph:[] [ holder ]))

let test_r8_pragma_waives () =
  let holder =
    src "lib/sim/counter_store.ml"
      "(* lint: allow domsafe(counter) \xe2\x80\x94 sharded per domain at spawn *)\n\
       let counter = ref 0\n"
  in
  let user = src "lib/core/some_layer.ml" "let bump () = incr Counter_store.counter\n" in
  Alcotest.(check (list string)) "waived" []
    (diag_strings (Lint_domsafe.check [ holder; user ]));
  match Lint_domsafe.inventory [ holder; user ] with
  | [ e ] ->
    Alcotest.(check (option string))
      "reason recorded in the inventory"
      (Some "sharded per domain at spawn") e.Lint_domsafe.d_waived
  | es -> Alcotest.failf "expected one inventory entry, got %d" (List.length es)

(* Mutable record fields are the state the refactor threads through
   domains: classified by holder path, never violations. *)
let test_r8_fields_classified () =
  let machine = src "lib/core/some_layer.ml" "type t = { mutable seq : int }\n" in
  let world =
    src "lib/sim/counter_store.ml" "type 'a cell = {\n  mutable value : 'a;\n}\n"
  in
  Alcotest.(check (list string)) "fields never fire R8" []
    (diag_strings (Lint_domsafe.check [ machine; world ]));
  let render e =
    Printf.sprintf "%s:%d %s %s" e.Lint_domsafe.d_file e.Lint_domsafe.d_line
      e.Lint_domsafe.d_name
      (Lint_domsafe.class_name e.Lint_domsafe.d_class)
  in
  Alcotest.(check (list string))
    "field lines, names and classes"
    [
      "lib/core/some_layer.ml:1 t.seq machine-local";
      "lib/sim/counter_store.ml:2 cell.value world-local";
    ]
    (List.sort compare (List.map render (Lint_domsafe.inventory [ machine; world ])))

let test_r8_map_json () =
  let holder =
    src "lib/sim/counter_store.ml"
      "let counter = ref 0\n\ntype t = { mutable hits : int }\n"
  in
  Alcotest.(check string) "ownership-map schema"
    "{\"schema\":\"ntcs.lint.ownership-map/1\",\"entries\":[{\"file\":\"lib/sim/counter_store.ml\",\"line\":1,\"module\":\"Counter_store\",\"name\":\"counter\",\"ctor\":\"ref\",\"scope\":\"binding\",\"class\":\"ambient-global\",\"reachable\":false,\"waived\":null},{\"file\":\"lib/sim/counter_store.ml\",\"line\":3,\"module\":\"Counter_store\",\"name\":\"t.hits\",\"ctor\":\"mutable\",\"scope\":\"field\",\"class\":\"world-local\",\"reachable\":false,\"waived\":null}]}"
    (Lint_domsafe.map_to_json (Lint_domsafe.inventory [ holder ]))

(* --- the repo itself stays clean --- *)

let test_repo_sources_clean () =
  (* `dune build @lint` enforces this too; asserting it here keeps the
     property visible in the unit suite (and exercises lint_paths against
     the real tree when run from the repo root). *)
  if Sys.file_exists "lib" && Sys.is_directory "lib" then
    Alcotest.(check (list string)) "no violations in lib/" []
      (diag_strings (Lint.lint (Lint.load [ "lib" ])))

let () =
  Alcotest.run "lint"
    [
      ( "lexer",
        [
          Alcotest.test_case "blanking" `Quick test_comments_and_strings;
          Alcotest.test_case "nested comments" `Quick test_nested_comment;
          Alcotest.test_case "module refs" `Quick test_module_refs;
          Alcotest.test_case "quoted strings" `Quick test_quoted_strings;
          Alcotest.test_case "parse error" `Quick test_parse_error;
          Alcotest.test_case "pragma parse" `Quick test_pragma_parse;
          Alcotest.test_case "pragma malformed" `Quick test_pragma_malformed;
          Alcotest.test_case "pragma retired rule" `Quick test_pragma_retired_rule;
          Alcotest.test_case "pragma misspelt rule" `Quick test_pragma_misspelt_rule;
          Alcotest.test_case "pragma retired rule, file scope" `Quick
            test_pragma_retired_rule_file_scope;
        ] );
      ( "pragma-rules",
        List.map waiver_case waivers
        @ [
            Alcotest.test_case "every rule has a fixture" `Quick
              test_every_pragma_rule_has_a_waiver;
          ] );
      ( "r1-layering",
        [
          Alcotest.test_case "upward reference" `Quick test_r1_upward_reference;
          Alcotest.test_case "field-qualified reference" `Quick test_r1_field_qualified;
          Alcotest.test_case "backend naming" `Quick test_r1_backend_naming;
          Alcotest.test_case "conversion selection" `Quick test_r1_conversion_selection;
          Alcotest.test_case "retry discipline" `Quick test_r1_retry_discipline;
        ] );
      ( "r2-determinism",
        [
          Alcotest.test_case "forbidden calls" `Quick test_r2_forbidden_calls;
          Alcotest.test_case "scope + pragma" `Quick test_r2_scope_and_pragma;
        ] );
      ( "r3-trace",
        [
          Alcotest.test_case "gateway peering" `Quick test_r3_gateway_peering;
          Alcotest.test_case "recursion depth" `Quick test_r3_recursion_depth;
          Alcotest.test_case "identity conversion" `Quick test_r3_identity_conversion;
        ] );
      ("r5-copies", [ Alcotest.test_case "lib/ipcs copies" `Quick test_r5_ipcs_copies ]);
      ( "r8-domsafe",
        [
          Alcotest.test_case "ambient + reachable" `Quick test_r8_ambient_reachable;
          Alcotest.test_case "reachable through an alias" `Quick test_r8_through_alias;
          Alcotest.test_case "functions skipped" `Quick test_r8_functions_skipped;
          Alcotest.test_case "unreachable inventoried" `Quick
            test_r8_unreachable_inventoried;
          Alcotest.test_case "resolved graph override" `Quick
            test_r8_resolved_graph_override;
          Alcotest.test_case "pragma waives" `Quick test_r8_pragma_waives;
          Alcotest.test_case "fields classified" `Quick test_r8_fields_classified;
          Alcotest.test_case "ownership map json" `Quick test_r8_map_json;
        ] );
      ("repo", [ Alcotest.test_case "lib/ clean" `Quick test_repo_sources_clean ]);
    ]
