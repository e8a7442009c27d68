(* R1: layer discipline, over the head-of-path module references:

   - references must point downward (or sideways) in the layer ranking;
   - only the ND layer, STD-IF and lib/ipcs may name an IPCS backend.

   Both suppressible with `lint: allow layering(<module>) — reason`. *)

let rule = "layering"

let check (src : Lint_lex.source) =
  let file = src.src_file in
  let self = Lint_rules.module_of_file file in
  let may_name_backend = Lint_rules.may_name_ipcs_backend file in
  List.filter_map
    (fun (line, m) ->
      let msg =
        match (Lint_rules.rank_of self, Lint_rules.rank_of m) with
        | Some r_self, Some r_ref when r_ref > r_self && not (String.equal m self) ->
          Some
            (Printf.sprintf
               "%s (%s, rank %d) references %s (%s, rank %d): layers only call downward" self
               (Lint_rules.layer_name r_self) r_self m (Lint_rules.layer_name r_ref) r_ref)
        | _ when List.mem m Lint_rules.ipcs_backends && not may_name_backend ->
          Some
            (Printf.sprintf
               "%s names IPCS backend %s: only lib/ipcs, Std_if and Nd_layer may (portability, §2.1)"
               self m)
        | _ -> None
      in
      match msg with
      | Some msg when not (Lint_lex.pragma_allows src.src_pragmas ~rule ~arg:m ~line) ->
        Some (Lint_diag.make ~file ~line ~rule msg)
      | _ -> None)
    src.src_refs
  |> Lint_diag.sort
