(* ntcs_lint: layer-discipline and determinism linter for the NTCS tree.

   Usage: ntcs_lint [PATH]...               lint (default: lib)
          ntcs_lint --json [PATH]...        same, JSON report on stdout
          ntcs_lint --pragmas [PATH]...     audit every active allow pragma

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

let run_lint json srcs =
  let diags = Lint.lint srcs in
  if json then begin
    print_endline (Lint_diag.list_to_json diags);
    if diags = [] then 0 else 1
  end
  else if diags = [] then begin
    Format.printf "ntcs_lint: %d file(s) clean@." (List.length srcs);
    0
  end
  else begin
    Lint.report Format.std_formatter diags;
    Format.printf "ntcs_lint: %d violation(s)@." (List.length diags);
    1
  end

let run_pragmas json srcs =
  let entries = Lint.pragmas srcs in
  if json then print_endline (Lint.pragmas_to_json entries)
  else begin
    Lint.report_pragmas Format.std_formatter entries;
    Format.printf "ntcs_lint: %d active pragma(s)@." (List.length entries)
  end;
  0

let run pragmas json paths =
  match check_paths paths with
  | Error c -> c
  | Ok paths ->
    let srcs = Lint.load paths in
    if pragmas then run_pragmas json srcs else run_lint json srcs

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
         module-level mutable state in any file — ambient globals every \
         domain running a world would share. Suppress a finding with a \
         comment: (* lint: allow <rule>(<arg>) \xe2\x80\x94 <reason> *), \
         where <rule> is one of $(b,layering), $(b,determinism), \
         $(b,copies), $(b,category), $(b,domsafe) or $(b,lifecycle); any \
         other rule name is a malformed pragma. \
         $(b,--pragmas) lists every active suppression.";
    ]
  in
  Cmd.v (Cmd.info "ntcs_lint" ~doc ~man)
    Term.(const run $ pragmas_arg $ json_arg $ paths_arg)

let () = exit (Cmd.eval' cmd)
