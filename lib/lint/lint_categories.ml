(* R4: trace-category discipline. Every literal category passed to a
   [~cat:"..."] argument (Trace.record and its wrappers) must appear in the
   registered manifest ([Ntcs_obs.Manifest]), which is what the exporters,
   the demo's category listing and the ntcs_stat timeline reader key off.
   A category invented at a call site would silently fall outside every
   report; fail the build instead. Suppress with
   `lint: allow category(<cat>) — reason`. *)

let rule = "category"

(* [(line, category)] for every string constant passed as [~cat]. *)
let literal_sites src =
  let sites = ref [] in
  let super = Ast_iterator.default_iterator in
  let expr it (e : Parsetree.expression) =
    (match e.pexp_desc with
     | Pexp_apply (_, args) ->
       List.iter
         (fun (label, (arg : Parsetree.expression)) ->
           match (label, arg.pexp_desc) with
           | Asttypes.Labelled "cat", Pexp_constant (Pconst_string (cat, _, _)) ->
             sites := (Lint_lex.line arg.pexp_loc, cat) :: !sites
           | _ -> ())
         args
     | _ -> ());
    super.expr it e
  in
  Lint_lex.walk src { super with expr };
  !sites

let check (src : Lint_lex.source) =
  let file = src.src_file in
  List.filter_map
    (fun (line, cat) ->
      if Ntcs_obs.Manifest.known cat
         || Lint_lex.pragma_allows src.src_pragmas ~rule ~arg:cat ~line
      then None
      else
        Some
          (Lint_diag.make ~file ~line ~rule
             (Printf.sprintf
                "%S is not in the registered category manifest (Ntcs_obs.Manifest) \
                 — add it there with one line of documentation"
                cat)))
    (literal_sites src)
  |> Lint_diag.sort
