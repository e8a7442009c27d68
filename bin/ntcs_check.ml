(* ntcs_check: circuit-lifecycle conformance and recursion-cycle analysis.

   Usage: ntcs_check [PATH]...               static analyses (default: lib)
          ntcs_check --json [PATH]...        same, JSON report on stdout
          ntcs_check --static-only [PATH]... skip schedule exploration
          ntcs_check --budget N              schedule cap per scenario
          ntcs_check --faults                fault-plane soak scenarios only
          ntcs_check --naming                sharded naming-plane scenarios only
          ntcs_check --sanitize              arm the pool sanitizer in scenarios
          ntcs_check --races                 arm the happens-before race checker
          ntcs_check --par N                 domain-parallel validation pass

   Static half: the lifecycle automaton's handler-exhaustiveness check
   against proto.ml/ns_proto.ml, and the cross-module recursion-cycle
   analysis (§6.3). Dynamic half: exhaustive small-schedule exploration of
   the bounded scenarios, asserting the automaton and the R3 trace
   invariants on every interleaving. Exit 0 when clean, 1 on any finding.
   Wired into `dune build @check` (and through it `dune runtest`). *)

open Cmdliner

let check_paths paths =
  let paths = if paths = [] then [ "lib" ] else paths in
  match List.filter (fun p -> not (Sys.file_exists p)) paths with
  | m :: _ ->
    Format.eprintf "ntcs_check: no such path: %s@." m;
    Error 2
  | [] -> Ok paths

(* A soak (`@faults`, `@naming`): explore [scenarios] under a budget.
   Truncation is expected (retry timers breed ties forever); each scenario
   must instead complete at least [min_schedules] failure-free schedules.
   The naming scenarios (DESIGN.md §15: shard routing, relocation vs cached
   lookups, shard loss) also check cache coherence on every schedule. *)
let run_soak ~key ~label scenarios json budget min_schedules sanitize races =
  let explorations = Check.explore ~max_schedules:budget ~sanitize ~races scenarios in
  let bad = List.exists (Check.fault_exploration_failed ~min_schedules) explorations in
  if json then
    Format.printf "{\"%s\":%s}@." key (Check.exploration_to_json explorations)
  else begin
    List.iter (Check.report_exploration Format.std_formatter) explorations;
    if bad then Format.printf "ntcs_check: %s soak failures@." label
    else
      Format.printf "ntcs_check: %s soak clean (>= %d schedules per scenario)@."
        label min_schedules
  end;
  if bad then 1 else 0

(* Domain-parallel validation (DESIGN.md §14): every bounded scenario and
   fault soak replicated on [n] concurrent domains (byte-identical traces
   required), plus the coupled barrier soak on an [n]-shard world run
   under the 1/2/4-worker matrix. *)
let run_par json n =
  let scenarios = Check_scenarios.all @ Check_scenarios.faults in
  let reps = List.map (Check_par.replicate ~replicas:n) scenarios in
  let soak = Check_par.par_soak ~domains:n () in
  let bad =
    List.exists Check_par.replication_failed reps || Check_par.par_soak_failed soak
  in
  if json then
    Format.printf
      "{\"par\":{\"domains\":%d,\"replications\":%d,\"divergent\":%d,\
       \"soak_epochs\":%d,\"soak_messages\":%d,\"soak_failed\":%b}}@."
      n (List.length reps)
      (List.length (List.filter Check_par.replication_failed reps))
      soak.Check_par.pr_epochs soak.Check_par.pr_messages
      (Check_par.par_soak_failed soak)
  else begin
    List.iter (Check_par.report_replication Format.std_formatter) reps;
    Check_par.report_par Format.std_formatter soak;
    if bad then Format.printf "ntcs_check: parallel validation failures@."
    else
      Format.printf
        "ntcs_check: parallel validation clean (%d domain(s), worker matrix 1/2/4)@." n
  end;
  if bad then 1 else 0

let run static_only faults naming json budget min_schedules sanitize races par paths =
  let soak ~key ~label scenarios =
    run_soak ~key ~label scenarios json budget min_schedules sanitize races
  in
  if par > 0 then run_par json par
  else if naming then soak ~key:"naming" ~label:"naming" Check_scenarios.naming
  else if faults then soak ~key:"faults" ~label:"fault" Check_scenarios.faults
  else
    match check_paths paths with
    | Error c -> c
    | Ok paths ->
      let diags = Check.static_check paths in
      let explorations =
        if static_only then []
        else Check.explore ~max_schedules:budget ~sanitize ~races Check_scenarios.all
      in
      let dynamic_bad = List.exists Check.exploration_failed explorations in
      if json then begin
        Format.printf "{\"static\":%s,\"dynamic\":%s}@."
          (Lint_diag.list_to_json diags)
          (Check.exploration_to_json explorations)
      end
      else begin
        Check.report Format.std_formatter diags;
        List.iter (Check.report_exploration Format.std_formatter) explorations;
        if diags = [] && not dynamic_bad then
          Format.printf "ntcs_check: %d file(s) conformant%s@."
            (List.length (Lint.source_files paths))
            (if static_only then "" else ", all explored schedules clean")
        else Format.printf "ntcs_check: %d static finding(s)%s@." (List.length diags)
            (if dynamic_bad then ", exploration failures" else "")
      end;
      if diags = [] && not dynamic_bad then 0 else 1

let paths_arg =
  Arg.(value & pos_all string [] & info [] ~docv:"PATH" ~doc:"Files or directories to check.")

let json_arg =
  Arg.(value & flag & info [ "json" ] ~doc:"Emit the report as JSON on stdout.")

let static_arg =
  Arg.(
    value & flag
    & info [ "static-only" ]
        ~doc:"Run only the source-level analyses; skip schedule exploration.")

let faults_arg =
  Arg.(
    value & flag
    & info [ "faults" ]
        ~doc:
          "Run only the fault-injection soak scenarios (deterministic \
           fault plane armed). Truncation at the budget is acceptable; \
           each scenario must instead complete the minimum number of \
           failure-free schedules.")

let naming_arg =
  Arg.(
    value & flag
    & info [ "naming" ]
        ~doc:
          "Run only the sharded naming-plane scenarios (DESIGN.md §15): \
           shard routing with all owners alive, §3.5 relocation racing \
           cached lookups, and shard loss with failover through the \
           surviving replicas. Every schedule is additionally checked for \
           lookup-cache coherence. Same soak contract as $(b,--faults). \
           The `@naming` dune alias runs this.")

let budget_arg =
  Arg.(
    value & opt int 4000
    & info [ "budget" ] ~docv:"N"
        ~doc:
          "Maximum schedules to explore per scenario. Without $(b,--faults), \
           hitting the cap counts as a failure (the exploration must be \
           exhaustive).")

let sanitize_arg =
  Arg.(
    value & flag
    & info [ "sanitize" ]
        ~doc:
          "Arm the buffer-pool sanitizer in every scenario world: poison \
           canaries, generation-tagged hand-outs, double/foreign-release \
           detection. Aliasing violations fail the schedule; leaks at \
           teardown are reported as trace events only. The `@sanitize` \
           dune alias runs the fault soaks this way.")

let races_arg =
  Arg.(
    value & flag
    & info [ "races" ]
        ~doc:
          "Arm the happens-before race checker in every scenario world: \
           vector clocks over the scheduler's owner-tagged events, plus \
           access hooks on the registered shared cells. Any conflicting \
           access pair unordered by happens-before — a would-be race under \
           domain-parallel world execution — fails the schedule. The \
           `@race` dune alias runs the scenarios and fault soaks this way.")

let par_arg =
  Arg.(
    value & opt int 0
    & info [ "par" ] ~docv:"N"
        ~doc:
          "Run the domain-parallel validation pass instead: every bounded \
           scenario and fault soak replicated on $(docv) concurrent domains \
           (traces must be byte-identical to the solo run), plus the \
           coupled $(docv)-shard barrier soak under the 1/2/4-worker \
           matrix — byte-identical merged logs, clean spans, zero race \
           conflicts, and a choice-log record/replay round trip. The \
           `@par` dune alias runs this for 1, 2 and 4 domains.")

let min_schedules_arg =
  Arg.(
    value & opt int 100
    & info [ "min-schedules" ] ~docv:"N"
        ~doc:
          "With $(b,--faults): the minimum failure-free schedules each soak \
           scenario must complete.")

let cmd =
  let doc = "check circuit-lifecycle conformance and recursion cycles" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Verifies that every module the lifecycle automaton names handles \
         every protocol constructor it is responsible for, that no \
         cross-module recursion cycle re-enters the LCM without the \
         Recursion guard, and that the bounded scenarios satisfy the \
         automaton and the R3 trace invariants on every schedule the \
         simulator could produce.";
    ]
  in
  Cmd.v
    (Cmd.info "ntcs_check" ~doc ~man)
    Term.(
      const run $ static_arg $ faults_arg $ naming_arg $ json_arg $ budget_arg
      $ min_schedules_arg $ sanitize_arg $ races_arg $ par_arg $ paths_arg)

let () = exit (Cmd.eval' cmd)
