(* ntcs_lint: layer-discipline and determinism linter for the NTCS tree.

   Usage: ntcs_lint [PATH]...               lint (default: lib)
          ntcs_lint --json [PATH]...        same, JSON report on stdout
          ntcs_lint --pragmas [PATH]...     audit every active allow pragma
          ntcs_lint --ownership-map [PATH]  the R8 shared-state inventory

   Exit 0 when clean, 1 when any rule fires (2: bad path). Wired into
   `dune build @lint` (and through it `dune runtest`) from the root dune
   file. *)

open Cmdliner

let check_paths paths =
  let paths = if paths = [] then [ "lib" ] else paths in
  match List.filter (fun p -> not (Sys.file_exists p)) paths with
  | m :: _ ->
    Format.eprintf "ntcs_lint: no such path: %s@." m;
    Error 2
  | [] -> Ok paths

(* R8 reachability runs on the resolved reference graph from the check
   library (hook/callback edges included), not just the lexical one the
   lint library can build for itself — the lint library cannot depend on
   ntcs_check (the dependency points the other way), but this driver
   links both. *)
let resolved_graph paths =
  List.map
    (fun (e : Check_graph.edge) -> (e.e_src, e.e_dst))
    (Check_graph.graph (List.map Lint_lex.load (Lint.source_files paths)))

let run_lint json paths =
  let diags = Lint.lint_paths ~graph:(resolved_graph paths) paths in
  if json then begin
    print_endline (Lint_diag.list_to_json diags);
    if diags = [] then 0 else 1
  end
  else if diags = [] then begin
    Format.printf "ntcs_lint: %d file(s) clean@." (List.length (Lint.source_files paths));
    0
  end
  else begin
    Lint.report Format.std_formatter diags;
    Format.printf "ntcs_lint: %d violation(s)@." (List.length diags);
    1
  end

let run_pragmas json paths =
  let entries = Lint.pragmas_in_paths paths in
  if json then print_endline (Lint.pragmas_to_json entries)
  else begin
    Lint.report_pragmas Format.std_formatter entries;
    Format.printf "ntcs_lint: %d active pragma(s)@." (List.length entries)
  end;
  0

let run_ownership_map json paths =
  let entries = Lint.ownership_map ~graph:(resolved_graph paths) paths in
  if json then print_endline (Lint_domsafe.map_to_json entries)
  else begin
    List.iter
      (fun e -> Format.printf "%a@." Lint_domsafe.pp_entry e)
      entries;
    Format.printf "ntcs_lint: %d mutable binding(s)/field(s) classified@."
      (List.length entries)
  end;
  0

let run pragmas ownership_map json paths =
  match check_paths paths with
  | Error c -> c
  | Ok paths ->
    if pragmas then run_pragmas json paths
    else if ownership_map then run_ownership_map json paths
    else run_lint json paths

let paths_arg =
  Arg.(value & pos_all string [] & info [] ~docv:"PATH" ~doc:"Files or directories to lint.")

let json_arg =
  Arg.(value & flag & info [ "json" ] ~doc:"Emit the report as a JSON array on stdout.")

let pragmas_arg =
  Arg.(
    value & flag
    & info [ "pragmas" ]
        ~doc:
          "Instead of linting, list every active (* lint: allow ... *) escape hatch \
           with its scope and reason, so suppressions stay auditable.")

let ownership_map_arg =
  Arg.(
    value & flag
    & info [ "ownership-map" ]
        ~doc:
          "Instead of linting, emit the R8 shared-state inventory: every \
           module-level mutable binding and mutable record field under the \
           given paths, classified world-local / machine-local / \
           ambient-global, with reachability from per-machine code and any \
           covering waiver. With $(b,--json), the machine-readable \
           $(b,ntcs.lint.ownership-map/1) document the parallel-world \
           refactor consumes as its work list.")

let cmd =
  let doc = "check NTCS layer, determinism, copy and domain-safety rules" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Scans OCaml sources and enforces downward-only layer references, \
         IPCS-backend and conversion-mode allowlists, the ban on wall \
         clocks, unseeded randomness and hash-order iteration in protocol \
         paths, registered trace categories, and the zero-copy frame \
         pipeline (R5, $(b,copies)): no byte copies in lib/core or \
         lib/ipcs outside Proto. R8 ($(b,domsafe)) flags \
         module-level mutable state reachable from per-machine code — \
         ambient globals the domain-parallel world refactor cannot shard \
         ($(b,--ownership-map) emits the full classification). Suppress a \
         finding with a \
         comment: (* lint: allow <rule>(<arg>) \xe2\x80\x94 <reason> *), \
         where <rule> is one of $(b,layering), $(b,determinism), \
         $(b,copies), $(b,category), $(b,domsafe) or $(b,lifecycle); any \
         other rule name is a malformed pragma. \
         $(b,--pragmas) lists every active suppression.";
    ]
  in
  Cmd.v (Cmd.info "ntcs_lint" ~doc ~man)
    Term.(const run $ pragmas_arg $ ownership_map_arg $ json_arg $ paths_arg)

let () = exit (Cmd.eval' cmd)
