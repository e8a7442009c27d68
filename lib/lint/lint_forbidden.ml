(* One table-driven check for four policies: every path occurrence is
   looked up in Lint_rules.forbidden, and a hit in a file where the entry
   applies is a finding unless a pragma for that rule and path covers it. *)

let check (src : Lint_lex.source) =
  let file = src.src_file in
  let self = Lint_rules.module_of_file file in
  let rules =
    List.filter (fun (f : Lint_rules.forbidden) -> f.f_applies file) Lint_rules.forbidden
  in
  List.concat_map
    (fun (line, path) ->
      List.filter_map
        (fun (f : Lint_rules.forbidden) ->
          if String.equal f.f_path path
             && not (Lint_lex.pragma_allows src.src_pragmas ~rule:f.f_rule ~arg:path ~line)
          then Some (Lint_diag.make ~file ~line ~rule:f.f_rule (f.f_msg self))
          else None)
        rules)
    src.src_paths
  |> Lint_diag.sort
