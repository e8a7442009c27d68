(* The static-analysis driver: walk source trees, run every rule family on
   every .ml/.mli, aggregate sorted diagnostics. Malformed pragmas are
   diagnostics too — a suppression that silently fails to parse would be
   worse than no suppression at all. *)

let is_source file =
  Filename.check_suffix file ".ml" || Filename.check_suffix file ".mli"

let hidden name = String.length name = 0 || name.[0] = '.' || name.[0] = '_'

(* Deterministic directory walk (sorted readdir). *)
let rec walk path acc =
  if Sys.is_directory path then
    Array.to_list (Sys.readdir path)
    |> List.filter (fun name -> not (hidden name))
    |> List.sort String.compare
    |> List.fold_left (fun acc name -> walk (Filename.concat path name) acc) acc
  else if is_source path then path :: acc
  else acc

let source_files paths = List.rev (List.fold_left (fun acc p -> walk p acc) [] paths)

(* Every source under the paths, each parsed once: the rules, R8's graph
   and the pragma audit all read these. *)
let load paths = List.map Lint_lex.load (source_files paths)

let check_source (src : Lint_lex.source) =
  src.src_syntax @ src.src_malformed @ Lint_layering.check src @ Lint_forbidden.check src
  @ Lint_categories.check src

(* Tree-level pass: check each file, and run R8 over the whole set (it
   needs the module-reference graph). [graph] lets the caller substitute
   resolved reference edges — ntcs_lint passes Check_graph's hook-aware
   graph. *)
let lint ?graph srcs =
  Lint_diag.sort (List.concat_map check_source srcs @ Lint_domsafe.check ?graph srcs)

let report ppf diags =
  List.iter (fun d -> Format.fprintf ppf "%a@." Lint_diag.pp d) diags

(* --- pragma audit (--pragmas) --- *)

(* Every active escape hatch, in (file, line) order: suppressions must stay
   auditable, or the allowlist quietly becomes the rule. *)
let pragmas srcs =
  List.concat_map
    (fun (src : Lint_lex.source) -> List.map (fun p -> (src.src_file, p)) src.src_pragmas)
    srcs

let pp_pragma ppf (file, (p : Lint_lex.pragma)) =
  Format.fprintf ppf "%s:%d: allow%s %s%s \xe2\x80\x94 %s" file p.Lint_lex.p_line
    (if p.Lint_lex.p_file_scope then "-file" else "")
    p.Lint_lex.p_rule
    (match p.Lint_lex.p_arg with Some a -> "(" ^ a ^ ")" | None -> "")
    p.Lint_lex.p_reason

let report_pragmas ppf entries =
  List.iter (fun e -> Format.fprintf ppf "%a@." pp_pragma e) entries

let pragmas_to_json entries =
  let one (file, (p : Lint_lex.pragma)) =
    Printf.sprintf
      "{\"file\":\"%s\",\"line\":%d,\"scope\":\"%s\",\"rule\":\"%s\",\"arg\":%s,\"reason\":\"%s\"}"
      (Lint_diag.json_escape file) p.Lint_lex.p_line
      (if p.Lint_lex.p_file_scope then "file" else "line")
      (Lint_diag.json_escape p.Lint_lex.p_rule)
      (match p.Lint_lex.p_arg with
       | Some a -> "\"" ^ Lint_diag.json_escape a ^ "\""
       | None -> "null")
      (Lint_diag.json_escape p.Lint_lex.p_reason)
  in
  "[" ^ String.concat "," (List.map one entries) ^ "]"
