(* R8 [domsafe]: no ambient mutable state. Static half of the
   domain-safety pass (dynamic half: Check_race in the check library).

   World.Par runs whole worlds on separate domains and Check_par.replicate
   runs every checker scenario, its checker modules included, on several
   domains at once. That is only sound while each World owns all of its
   state, so a [let] at module scope whose right-hand side allocates a
   [ref], a table ([Hashtbl]/[Tbl]/[Lru]), a [Pool], a queue, … is a
   finding in any file: one instance every domain would share. A
   sanctioned global carries a reasoned pragma:
   [lint: allow domsafe(<name>) — <reason>].

   Module level means a top-level [let] of the file. What a function or a
   nested [let] allocates is per-call, not ambient, so neither counts; nor
   does a [mutable] record field, which belongs to whoever holds the
   record. *)

(* The earliest mutable constructor a right-hand side names outside any
   closure or nested binding, with its line. *)
let first_ctor rhs =
  let hits = ref [] in
  let super = Ast_iterator.default_iterator in
  let expr it (e : Parsetree.expression) =
    match e.pexp_desc with
    | Pexp_let _ | Pexp_fun _ | Pexp_function _ | Pexp_letmodule _ | Pexp_letop _ -> ()
    | Pexp_ident { txt; loc } when List.mem (Lint_lex.name txt) Lint_rules.mutable_ctors ->
      hits := (loc.loc_start.pos_cnum, Lint_lex.line loc, Lint_lex.name txt) :: !hits
    | _ -> super.expr it e
  in
  expr { super with expr } rhs;
  match List.sort compare !hits with [] -> None | (_, line, ctor) :: _ -> Some (line, ctor)

(* The variables a pattern binds: [let a, b = …] allocates state under
   both names, and the first one names the finding. *)
let bound_names p =
  let names = ref [] in
  let super = Ast_iterator.default_iterator in
  let pat it (p : Parsetree.pattern) =
    (match p.ppat_desc with
     | Ppat_var { txt; _ } | Ppat_alias (_, { txt; _ }) -> names := txt :: !names
     | _ -> ());
    super.pat it p
  in
  pat { super with pat } p;
  List.rev !names

let check (src : Lint_lex.source) =
  let binding (vb : Parsetree.value_binding) =
    match (bound_names vb.pvb_pat, first_ctor vb.pvb_expr) with
    | name :: _, Some (line, ctor)
      when not (Lint_lex.pragma_allows src.src_pragmas ~rule:"domsafe" ~arg:name ~line) ->
      Some
        (Lint_diag.make ~file:src.src_file ~line ~rule:"domsafe"
           (Printf.sprintf
              "module-level mutable binding '%s' (%s) is ambient state every \
               domain would share; move it into World/Node state or add `lint: \
               allow domsafe(%s)` with the reason"
              name ctor name))
    | _ -> None
  in
  match src.src_ast with
  | Intf _ -> []
  | Impl items ->
    List.concat_map
      (fun (item : Parsetree.structure_item) ->
        match item.pstr_desc with Pstr_value (_, vbs) -> List.filter_map binding vbs | _ -> [])
      items
