(* ntcs_check: circuit-lifecycle conformance and recursion-cycle analysis.

   Usage: ntcs_check [--json] [--static-only] [PATH]...   (default PATH: lib)

   One pass, three parts. Static: the lifecycle automaton's
   handler-exhaustiveness check against proto.ml/ns_proto.ml, and the
   cross-module recursion-cycle analysis (§6.3). Dynamic: every scenario
   explored once with the race checker armed — the bounded scenarios and
   the three finite fault soaks exhaustively (cap 4000, hitting it fails),
   the other fault and naming soaks under the soak contract (cap 150, at
   least 100 schedules) — asserting
   the automaton, the R3 trace invariants and each scenario's own outcome
   on every interleaving. Parallel: every scenario
   replicated on 1, 2 and 4 domains (byte-identical to the solo run) plus
   the coupled barrier soak at each width. [--static-only] skips the last
   two. Exit 0 when clean, 1 on any finding, 2 on a missing path. Wired
   into `dune build @check` (and through it `dune runtest`). *)

open Cmdliner

let check_paths paths =
  let paths = if paths = [] then [ "lib" ] else paths in
  match List.filter (fun p -> not (Sys.file_exists p)) paths with
  | m :: _ ->
    Format.eprintf "ntcs_check: no such path: %s@." m;
    Error 2
  | [] -> Ok paths

(* Domain-parallel validation (DESIGN.md §14) at one width [n]. *)
let par_domains = [ 1; 2; 4 ]

let validate_par n =
  let reps =
    List.map (Check_par.replicate ~replicas:n)
      (Check_scenarios.exhaustive @ Check_scenarios.soaks)
  in
  (n, reps, Check_par.par_soak ~domains:n ())

let par_failed (_, reps, soak) =
  List.exists Check_par.replication_failed reps || Check_par.par_soak_failed soak

let par_to_json (n, reps, soak) =
  Printf.sprintf
    "{\"domains\":%d,\"replications\":%d,\"divergent\":%d,\"soak_epochs\":%d,\
     \"soak_messages\":%d,\"soak_failed\":%b}"
    n (List.length reps)
    (List.length (List.filter Check_par.replication_failed reps))
    soak.Check_par.pr_epochs soak.Check_par.pr_messages (Check_par.par_soak_failed soak)

let run static_only json paths =
  match check_paths paths with
  | Error c -> c
  | Ok paths ->
    let diags = Check.static_check paths in
    let explorations = if static_only then [] else Check.explore_all () in
    let par = if static_only then [] else List.map validate_par par_domains in
    let dynamic_bad = List.exists Check.exploration_failed explorations in
    let par_bad = List.exists par_failed par in
    if json then
      Format.printf "{\"static\":%s,\"dynamic\":%s,\"par\":[%s]}@."
        (Lint_diag.list_to_json diags)
        (Check.exploration_to_json explorations)
        (String.concat "," (List.map par_to_json par))
    else begin
      Check.report Format.std_formatter diags;
      List.iter (Check.report_exploration Format.std_formatter) explorations;
      (* Replications are reported one line per width; only a failed one
         gets its own lines, so each scenario is named once when clean. *)
      List.iter
        (fun (n, reps, soak) ->
          let bad = List.filter Check_par.replication_failed reps in
          List.iter (Check_par.report_replication Format.std_formatter) bad;
          Format.printf "par: %d scenario(s) x %d replica(s) on domains: %s@."
            (List.length reps) n
            (if bad = [] then "byte-identical, clean"
             else Printf.sprintf "%d failed" (List.length bad));
          Check_par.report_par Format.std_formatter soak)
        par;
      if diags = [] && not (dynamic_bad || par_bad) then
        Format.printf "ntcs_check: %d file(s) conformant%s@."
          (List.length (Lint.source_files paths))
          (if static_only then ""
           else
             Printf.sprintf
               ", %d scenario(s) explored with race checker armed, all schedules \
                clean, parallel validation clean at 1/2/4 domain(s)"
               (List.length explorations))
      else
        Format.printf "ntcs_check: %d static finding(s)%s%s@." (List.length diags)
          (if dynamic_bad then ", exploration failures" else "")
          (if par_bad then ", parallel validation failures" else "")
    end;
    if diags = [] && not (dynamic_bad || par_bad) then 0 else 1

let paths_arg =
  Arg.(value & pos_all string [] & info [] ~docv:"PATH" ~doc:"Files or directories to check.")

let json_arg =
  Arg.(value & flag & info [ "json" ] ~doc:"Emit the report as JSON on stdout.")

let static_arg =
  Arg.(
    value & flag
    & info [ "static-only" ]
        ~doc:
          "Run only the source-level analyses; skip schedule exploration and the \
           parallel validation.")

let cmd =
  let doc = "check circuit-lifecycle conformance and recursion cycles" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Verifies that every module the lifecycle automaton names handles \
         every protocol constructor it is responsible for, and that no \
         cross-module recursion cycle re-enters the LCM without the \
         Recursion guard. Then explores every scenario once, with the \
         happens-before race checker armed on every world: the bounded \
         scenarios and the three finite fault soaks (partition-heal and the \
         name-server partition with the guard on and off) exhaustively (at \
         most 4000 schedules each), the other fault and naming soaks for 150 \
         schedules each (at least 100 required). Each scenario's line ends \
         its counts with exhaustive or [truncated]. Every \
         schedule must satisfy the automaton, the R3 trace invariants and \
         the scenario's own outcome. Finally \
         every scenario is replicated on 1, 2 and 4 domains, and the coupled \
         barrier soak runs at each width; all output must be byte-identical.";
    ]
  in
  Cmd.v (Cmd.info "ntcs_check" ~doc ~man) Term.(const run $ static_arg $ json_arg $ paths_arg)

let () = exit (Cmd.eval' cmd)
