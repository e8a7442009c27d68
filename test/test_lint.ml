(* Self-tests for the ntcs_lint static-analysis pass: the front end, one
   seeded violation per rule family (R1 layering, R2 determinism, R3 trace
   invariants, R5 copies, R8 domain safety) asserting the linter fires with
   the right file:line, and the allow-pragma escape hatch. *)

let src file text = Lint_lex.of_string ~file text

let diag_strings ds = List.map (Fmt.str "%a" Lint_diag.pp) ds

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
      w_check = (fun t -> Lint_domsafe.check (src "lib/sim/counter_store.ml" t));
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

(* --- R8: domain safety (no ambient mutable state) --- *)

let domsafe file text = diag_strings (Lint_domsafe.check (src file text))

(* A module-level ref is a finding on its own: no referrer is needed.
   Pinned at the allocating line of a multi-line RHS. *)
let test_r8_ambient () =
  Alcotest.(check (list string))
    "flagged at the ref, not the let"
    [
      "lib/sim/counter_store.ml:2: [domsafe] module-level mutable binding 'counter' \
       (ref) is ambient state every domain would share; move it into World/Node \
       state or add `lint: allow domsafe(counter)` with the reason";
    ]
    (domsafe "lib/sim/counter_store.ml" "let counter =\n  ref 0\n\nlet peek () = !counter\n")

(* A global behind a library root's [module Rng = Rng] alias is flagged
   where it is allocated; the alias and its users are clean. *)
let test_r8_behind_alias () =
  let ds =
    Lint.lint
      [
        src "lib/util/rng.ml" "let draws = ref 0\n";
        src "lib/util/ntcs_util.ml" "module Rng = Rng\n";
        src "lib/core/some_layer.ml" "let seed r = Ntcs_util.Rng.split r\n";
      ]
  in
  Alcotest.(check (list (pair string string)))
    "one domsafe diagnostic, in rng.ml"
    [ ("lib/util/rng.ml", "domsafe") ]
    (List.map (fun d -> (d.Lint_diag.file, d.Lint_diag.rule)) ds)

(* Functions and closure-captured state are per-call / per-value, not
   module-level: none of these are bindings. *)
let test_r8_functions_skipped () =
  Alcotest.(check (list string)) "no module-level mutable bindings" []
    (domsafe "lib/sim/counter_store.ml"
       "let lookup tbl k = Hashtbl.find_opt tbl k\n\n\
        let make () = ref 0\n\n\
        let scenario =\n\
       \  let cell = ref 0 in\n\
       \  fun () -> incr cell\n")

(* The checker modules run on concurrent domains too (Check_par.replicate
   runs Check_trace.check at 1, 2 and 4 domains), so a table at the top
   of a lib/check module is a finding though no per-machine code names
   it. *)
let test_r8_checker_table () =
  Alcotest.(check (list string)) "flagged by Lint.lint"
    [ "lib/check/check_trace.ml:1" ]
    (List.map
       (fun d -> Printf.sprintf "%s:%d" d.Lint_diag.file d.Lint_diag.line)
       (Lint.lint
          [
            src "lib/check/check_trace.ml"
              "let seen : (string, int) Hashtbl.t = Hashtbl.create 8\n\n\
               let check evs = Hashtbl.reset seen; evs\n";
          ]))

let test_r8_pragma_waives () =
  Alcotest.(check (list string)) "waived" []
    (domsafe "lib/sim/counter_store.ml"
       "(* lint: allow domsafe(counter) \xe2\x80\x94 sharded per domain at spawn *)\n\
        let counter = ref 0\n")

(* A mutable record field belongs to whoever holds the record. *)
let test_r8_fields_never_fire () =
  Alcotest.(check (list string)) "fields never fire R8" []
    (domsafe "lib/core/some_layer.ml"
       "type t = { mutable seq : int }\ntype 'a cell = {\n  mutable value : 'a;\n}\n")

(* One "line name ctor" string per finding, in order. *)
let r8_findings file text =
  List.map
    (fun d ->
      Scanf.sscanf d.Lint_diag.msg "module-level mutable binding '%s@' (%s@)" (fun name ctor ->
          Printf.sprintf "%d %s %s" d.Lint_diag.line name ctor))
    (Lint_domsafe.check (src file text))

(* No other module names this ref. The reachability version only
   inventoried such a binding; the per-file rule flags it. *)
let test_r8_unreachable_flagged () =
  Alcotest.(check (list (pair string string)))
    "one domsafe diagnostic"
    [ ("lib/sim/counter_store.ml", "domsafe") ]
    (List.map
       (fun d -> (d.Lint_diag.file, d.Lint_diag.rule))
       (Lint.lint [ src "lib/sim/counter_store.ml" "let counter = ref 0\n" ]))

let test_r8_every_ctor () =
  List.iter
    (fun ctor ->
      Alcotest.(check (list string)) ctor [ "1 state " ^ ctor ]
        (r8_findings "lib/util/x.ml" (Printf.sprintf "let state = %s 8 0\n" ctor)))
    Lint_rules.mutable_ctors

(* A right-hand side allocating twice is one finding, named by the
   allocation that comes first in the source. *)
let test_r8_earliest_ctor () =
  Alcotest.(check (list string)) "the first allocation names it" [ "2 pair Buffer.create" ]
    (r8_findings "lib/util/x.ml" "let pair =\n  (Buffer.create 16,\n   ref 0)\n")

let test_r8_and_bindings () =
  Alcotest.(check (list string)) "one finding per allocating binding"
    [ "1 a ref"; "3 c Queue.create" ]
    (r8_findings "lib/util/x.ml" "let a = ref 0\nand b = 1\nand c = Queue.create ()\n")

let test_r8_tuple_pattern () =
  Alcotest.(check (list string)) "named by its first variable" [ "1 hits ref" ]
    (r8_findings "lib/util/x.ml" "let hits, misses = (ref 0, ref 0)\n")

let test_r8_annotated_pattern () =
  Alcotest.(check (list string)) "constraint seen through" [ "1 cache Hashtbl.create" ]
    (r8_findings "lib/util/x.ml" "let (cache : (int, int) Hashtbl.t) = Hashtbl.create 8\n")

(* A lazy value is forced once and then shared by every domain. *)
let test_r8_lazy_table () =
  Alcotest.(check (list string)) "lazy is not a closure" [ "1 table Hashtbl.create" ]
    (r8_findings "lib/util/x.ml" "let table = lazy (Hashtbl.create 8)\n")

(* Nothing is bound, so nothing is kept. *)
let test_r8_unit_and_wildcard () =
  Alcotest.(check (list string)) "no names, no findings" []
    (r8_findings "lib/util/x.ml" "let () = ignore (ref 0)\nlet _ = Hashtbl.create 8\n")

let test_r8_pragma_other_name () =
  Alcotest.(check (list string)) "a waiver names its binding" [ "2 counter ref" ]
    (r8_findings "lib/sim/counter_store.ml"
       "(* lint: allow domsafe(other) \xe2\x80\x94 not this one *)\nlet counter = ref 0\n")

let test_r8_file_pragma () =
  Alcotest.(check (list string)) "allow-file covers every binding" []
    (r8_findings "lib/sim/counter_store.ml"
       "(* lint: allow-file domsafe \xe2\x80\x94 one instance per process *)\n\
        let a = ref 0\n\n\
        let b = Hashtbl.create 8\n")

let test_r8_interfaces_never_fire () =
  Alcotest.(check (list string)) "declarations allocate nothing" []
    (r8_findings "lib/sim/counter_store.mli" "val counter : int ref\nval table : (int, int) Hashtbl.t\n")

(* [ntcs_lint --json]: a clean tree prints [], a finding one object. *)
let test_json_report () =
  Alcotest.(check string) "clean" "[]" (Lint_diag.list_to_json []);
  Alcotest.(check string) "one finding"
    "[{\"file\":\"lib/util/x.ml\",\"line\":3,\"rule\":\"domsafe\",\"msg\":\"say \\\"hi\\\"\"}]"
    (Lint_diag.list_to_json
       [ Lint_diag.make ~file:"lib/util/x.ml" ~line:3 ~rule:"domsafe" "say \"hi\"" ])

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
      ("r5-copies", [ Alcotest.test_case "lib/ipcs copies" `Quick test_r5_ipcs_copies ]);
      ( "r8-domsafe",
        [
          Alcotest.test_case "ambient at its allocating line" `Quick test_r8_ambient;
          Alcotest.test_case "global behind an alias" `Quick test_r8_behind_alias;
          Alcotest.test_case "functions skipped" `Quick test_r8_functions_skipped;
          Alcotest.test_case "lib/check table" `Quick test_r8_checker_table;
          Alcotest.test_case "pragma waives" `Quick test_r8_pragma_waives;
          Alcotest.test_case "fields never fire" `Quick test_r8_fields_never_fire;
          Alcotest.test_case "unreachable, still flagged" `Quick test_r8_unreachable_flagged;
          Alcotest.test_case "every mutable constructor" `Quick test_r8_every_ctor;
          Alcotest.test_case "earliest constructor names it" `Quick test_r8_earliest_ctor;
          Alcotest.test_case "let ... and ..." `Quick test_r8_and_bindings;
          Alcotest.test_case "tuple pattern" `Quick test_r8_tuple_pattern;
          Alcotest.test_case "annotated pattern" `Quick test_r8_annotated_pattern;
          Alcotest.test_case "lazy table" `Quick test_r8_lazy_table;
          Alcotest.test_case "unit and wildcard" `Quick test_r8_unit_and_wildcard;
          Alcotest.test_case "pragma for another name" `Quick test_r8_pragma_other_name;
          Alcotest.test_case "file pragma" `Quick test_r8_file_pragma;
          Alcotest.test_case "interfaces never fire" `Quick test_r8_interfaces_never_fire;
        ] );
      ("report", [ Alcotest.test_case "json" `Quick test_json_report ]);
      ("repo", [ Alcotest.test_case "lib/ clean" `Quick test_repo_sources_clean ]);
    ]
