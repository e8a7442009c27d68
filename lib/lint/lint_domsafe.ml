(* R8 [domsafe]: the shared-state ownership map, and the rule that keeps
   it honest. Static half of the domain-safety pass (dynamic half:
   Check_race in the check library).

   The ROADMAP-2 refactor — one OCaml 5 domain per machine group, worlds
   advancing through virtual-time barriers — is only safe if every piece
   of mutable state has a known owner. This pass classifies every
   module-level mutable binding in the tree:

   - a [let] at module scope whose right-hand side allocates a [ref], a
     table ([Hashtbl]/[Tbl]/[Lru]), a [Pool], a queue, … is
     *ambient-global*: one instance shared by every domain. If any
     per-machine code (lib/core, lib/ipcs, lib/drts, lib/ursa) can reach
     the module holding it — directly or transitively through the
     resolved reference graph — that is an R8 violation: the refactor
     cannot shard it. Sanctioned globals carry a reasoned pragma:
     [lint: allow domsafe(<name>) — <reason>].

   - a [mutable] record field is owned by whoever holds the record
     instance: *machine-local* when the record is declared in per-machine
     code, *world-local* otherwise. Fields are inventory, not violations
     — they are exactly the state the refactor will thread through
     domains, and `ntcs_lint --ownership-map` emits them all as the
     refactor's work list.

   Module level means a top-level [let] of the file. What a function or a
   nested [let] allocates is per-call, not ambient, so neither counts. *)

type scope = Binding | Field
type cls = World_local | Machine_local | Ambient_global

type entry = {
  d_file : string;
  d_line : int;  (* the allocating line (binding) / the field's line *)
  d_module : string;
  d_name : string;  (* binding name, or [type.field] *)
  d_ctor : string;  (* which mutable constructor, or ["mutable"] *)
  d_scope : scope;
  d_class : cls;
  d_reachable : bool;  (* can per-machine code reach the holder module? *)
  d_waived : string option;  (* reason of the covering pragma, if any *)
}

let scope_name = function Binding -> "binding" | Field -> "field"

let class_name = function
  | World_local -> "world-local"
  | Machine_local -> "machine-local"
  | Ambient_global -> "ambient-global"

(* ----- reachability over the module-reference graph ----- *)

let reachable_modules ~graph ~roots =
  let adj = Hashtbl.create 64 in
  List.iter
    (fun (src, dst) ->
      let l = match Hashtbl.find_opt adj src with Some l -> l | None -> [] in
      Hashtbl.replace adj src (dst :: l))
    graph;
  let seen = Hashtbl.create 64 in
  let rec visit m =
    if not (Hashtbl.mem seen m) then begin
      Hashtbl.replace seen m ();
      List.iter visit (match Hashtbl.find_opt adj m with Some l -> l | None -> [])
    end
  in
  List.iter visit roots;
  seen

(* ----- the inventory ----- *)

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

let bindings_of_source (src : Lint_lex.source) =
  let binding (vb : Parsetree.value_binding) =
    match (vb.pvb_pat.ppat_desc, first_ctor vb.pvb_expr) with
    | ( ( Ppat_var { txt = name; _ }
        | Ppat_constraint ({ ppat_desc = Ppat_var { txt = name; _ }; _ }, _) ),
        Some (line, ctor) ) ->
      let waiver = Lint_lex.covering src.src_pragmas ~rule:"domsafe" ~arg:name ~line in
      Some (name, line, ctor, Option.map (fun (p : Lint_lex.pragma) -> p.p_reason) waiver)
    | _ -> None
  in
  match src.src_ast with
  | Intf _ -> []
  | Impl items ->
    List.concat_map
      (fun (item : Parsetree.structure_item) ->
        match item.pstr_desc with Pstr_value (_, vbs) -> List.filter_map binding vbs | _ -> [])
      items

(* Every mutable record field, inline records included, named
   [type.field]. *)
let fields_of_source src =
  let fields = ref [] in
  let super = Ast_iterator.default_iterator in
  let type_declaration it (td : Parsetree.type_declaration) =
    let field (ld : Parsetree.label_declaration) =
      if ld.pld_mutable = Mutable then
        fields := (Lint_lex.line ld.pld_loc, td.ptype_name.txt ^ "." ^ ld.pld_name.txt) :: !fields
    in
    (match td.ptype_kind with
     | Ptype_record lds -> List.iter field lds
     | Ptype_variant cds ->
       List.iter
         (fun (cd : Parsetree.constructor_declaration) ->
           match cd.pcd_args with Pcstr_record lds -> List.iter field lds | _ -> ())
         cds
     | _ -> ());
    super.type_declaration it td
  in
  Lint_lex.walk src { super with type_declaration };
  List.rev !fields

let default_graph srcs =
  List.concat_map
    (fun (src : Lint_lex.source) ->
      let m = Lint_rules.module_of_file src.src_file in
      List.map (fun (_, dst) -> (m, dst)) src.src_refs)
    srcs

let inventory ?graph srcs =
  (* Interfaces restate the implementation's fields; inventory the .ml. *)
  let mls =
    List.filter
      (fun (s : Lint_lex.source) -> not (Filename.check_suffix s.src_file ".mli"))
      srcs
  in
  let graph = match graph with Some g -> g | None -> default_graph mls in
  let roots =
    List.filter_map
      (fun (s : Lint_lex.source) ->
        if Lint_rules.machine_path s.src_file then
          Some (Lint_rules.module_of_file s.src_file)
        else None)
      mls
    @ List.filter_map
        (fun (m, _) -> if Lint_rules.rank_of m <> None then Some m else None)
        graph
  in
  let reach = reachable_modules ~graph ~roots in
  List.concat_map
    (fun (src : Lint_lex.source) ->
      let m = Lint_rules.module_of_file src.src_file in
      let reachable = Hashtbl.mem reach m in
      let bindings =
        List.map
          (fun (name, line, ctor, waived) ->
            { d_file = src.src_file; d_line = line; d_module = m; d_name = name;
              d_ctor = ctor; d_scope = Binding; d_class = Ambient_global;
              d_reachable = reachable; d_waived = waived })
          (bindings_of_source src)
      in
      let fields =
        List.map
          (fun (line, name) ->
            let cls =
              match Lint_rules.field_scope src.src_file with
              | `Machine_local -> Machine_local
              | `World_local -> World_local
            in
            { d_file = src.src_file; d_line = line; d_module = m; d_name = name;
              d_ctor = "mutable"; d_scope = Field; d_class = cls;
              d_reachable = reachable; d_waived = None })
          (fields_of_source src)
      in
      bindings @ fields)
    mls

let check ?graph srcs =
  List.filter_map
    (fun e ->
      if e.d_scope = Binding && e.d_reachable && e.d_waived = None then
        Some
          (Lint_diag.make ~file:e.d_file ~line:e.d_line ~rule:"domsafe"
             (Printf.sprintf
                "module-level mutable binding '%s' (%s) is ambient-global and \
                 reachable from per-machine code; move it into World/Node \
                 state or add `lint: allow domsafe(%s)` with the migration \
                 story"
                e.d_name e.d_ctor e.d_name))
      else None)
    (inventory ?graph srcs)

let pp_entry ppf e =
  Fmt.pf ppf "%s:%d: %s %s.%s (%s) %s%s%s" e.d_file e.d_line (scope_name e.d_scope)
    e.d_module e.d_name e.d_ctor (class_name e.d_class)
    (if e.d_reachable then " reachable" else "")
    (match e.d_waived with Some r -> " waived: " ^ r | None -> "")

let map_to_json entries =
  let one e =
    Printf.sprintf
      "{\"file\":\"%s\",\"line\":%d,\"module\":\"%s\",\"name\":\"%s\",\
       \"ctor\":\"%s\",\"scope\":\"%s\",\"class\":\"%s\",\"reachable\":%b,\
       \"waived\":%s}"
      (Lint_diag.json_escape e.d_file) e.d_line
      (Lint_diag.json_escape e.d_module)
      (Lint_diag.json_escape e.d_name)
      (Lint_diag.json_escape e.d_ctor) (scope_name e.d_scope)
      (class_name e.d_class) e.d_reachable
      (match e.d_waived with
       | Some r -> "\"" ^ Lint_diag.json_escape r ^ "\""
       | None -> "null")
  in
  let entries =
    List.sort
      (fun a b ->
        match String.compare a.d_file b.d_file with
        | 0 -> compare (a.d_line, a.d_name) (b.d_line, b.d_name)
        | c -> c)
      entries
  in
  Printf.sprintf "{\"schema\":\"ntcs.lint.ownership-map/1\",\"entries\":[%s]}"
    (String.concat "," (List.map one entries))
