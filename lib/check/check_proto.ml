(* Handler exhaustiveness against the protocol constructors.

   Two directions, both anchored in Check_auto's single declaration:

   1. Declaration conformance — the variant constructors of proto.ml /
      ns_proto.ml, as the parser sees them, must match the automaton's
      tables, in order. Adding a message kind without teaching the
      automaton about it is a diagnostic on the new constructor's own line.

   2. Dispatch exhaustiveness — every module the table names must mention
      every constructor it is responsible for (a match arm names
      `Proto.Data`, so an occurrence of that path is "there is an arm for
      it"). A module may opt out of one (state, kind) pair only with an
      explicit, reasoned pragma: (* lint: allow lifecycle(Kind) — reason *). Requests follow the
      request/response discipline instead: whoever issues Ns_proto.X must
      dispatch on its response and on R_error. *)

let rule = "lifecycle"

(* --- constructor extraction --- *)

(* The first declaration of variant type [ty]: its line and its
   [(line, constructor)] list. *)
let declaration (src : Lint_lex.source) ~ty =
  let found = ref None in
  let super = Ast_iterator.default_iterator in
  let type_declaration it (td : Parsetree.type_declaration) =
    (match td.ptype_kind with
     | Ptype_variant cds when td.ptype_name.txt = ty && !found = None ->
       found :=
         Some
           ( Lint_lex.line td.ptype_loc,
             List.map
               (fun (cd : Parsetree.constructor_declaration) ->
                 (Lint_lex.line cd.pcd_name.loc, cd.pcd_name.txt))
               cds )
     | _ -> ());
    super.type_declaration it td
  in
  Lint_lex.walk src { super with type_declaration };
  match !found with Some d -> d | None -> (1, [])

(* --- declaration conformance --- *)

let diag ~src ~line fmt =
  Printf.ksprintf
    (fun msg -> Lint_diag.make ~file:src.Lint_lex.src_file ~line ~rule msg)
    fmt

let check_decl src ~ty ~declared =
  let decl_line, parsed = declaration src ~ty in
  let parsed_names = List.map snd parsed in
  let missing = List.filter (fun d -> not (List.mem d parsed_names)) declared in
  let extra = List.filter (fun (_, p) -> not (List.mem p declared)) parsed in
  let order_drift =
    missing = [] && extra = [] && parsed_names <> declared
  in
  List.map
    (fun d ->
      diag ~src ~line:decl_line
        "lifecycle automaton declares constructor %s, but type %s does not define it" d ty)
    missing
  @ List.map
      (fun (line, p) ->
        diag ~src ~line
          "constructor %s of type %s is not covered by the lifecycle automaton \
           (extend Check_auto and the handler modules)"
          p ty)
      extra
  @
  if order_drift then
    [
      diag ~src ~line:decl_line
        "type %s declares its constructors in a different order than the lifecycle \
         automaton (wire tags are positional: keep them aligned)"
        ty;
    ]
  else []

(* --- dispatch exhaustiveness --- *)

let has_token (src : Lint_lex.source) tok =
  List.exists (fun (_, p) -> String.equal p tok) src.src_paths

(* The line where a family is dispatched: the first line naming any of its
   constructors — gap diagnostics point at the match that is missing the
   arm, not at the top of the file. *)
let anchor (src : Lint_lex.source) tokens =
  match List.find_opt (fun (_, p) -> List.mem p tokens) src.src_paths with
  | Some (line, _) -> line
  | None -> 1

let is_ml src = Filename.check_suffix src.Lint_lex.src_file ".ml"

let module_of src = Lint_rules.module_of_file src.Lint_lex.src_file

(* Proto.kind dispatch: every module the automaton table names must carry
   an arm for every constructor assigned to it. *)
let check_kind_dispatch src =
  let m = module_of src in
  let required =
    List.filter_map
      (fun (k, input, handlers) -> if List.mem m handlers then Some (k, input) else None)
      Check_auto.kinds
  in
  if required = [] || not (is_ml src) then []
  else begin
    let all_tokens = List.map (fun (k, _) -> "Proto." ^ k) required in
    let anchor_line = anchor src all_tokens in
    List.filter_map
      (fun (k, input) ->
        if has_token src ("Proto." ^ k) then None
        else if Lint_lex.pragma_allows src.src_pragmas ~rule ~arg:k ~line:anchor_line then None
        else
          Some
            (diag ~src ~line:anchor_line
               "%s does not handle Proto.%s (automaton input: %s) — add a match arm or \
                an explicit reject"
               m k
               (Check_auto.input_to_string input)))
      required
  end

(* Gateway event dispatch: Gw_open / Gw_frame / Gw_down. *)
let check_gw_dispatch src =
  let m = module_of src in
  if not (List.mem m Check_auto.gw_modules) || not (is_ml src) then []
  else begin
    let anchor_line = anchor src Check_auto.gw_events in
    List.filter_map
      (fun ev ->
        if has_token src ev then None
        else
          Some
            (diag ~src ~line:anchor_line
               "%s does not handle %s — a gateway must dispatch every splice event" m ev))
      Check_auto.gw_events
  end

(* Naming-protocol discipline. The server dispatches every request; every
   issuer of a request dispatches its response and R_error. *)
let check_ns_discipline src =
  let m = module_of src in
  if m = "Ns_proto" || not (is_ml src) then []
  else begin
    let is_server = List.mem m Check_auto.ns_servers in
    let issued =
      List.filter (fun (req, _) -> has_token src ("Ns_proto." ^ req)) Check_auto.ns_requests
    in
    let req_tokens = List.map (fun (r, _) -> "Ns_proto." ^ r) Check_auto.ns_requests in
    let anchor_line = anchor src req_tokens in
    let server_gaps =
      if not is_server then []
      else
        List.filter_map
          (fun (req, _) ->
            if has_token src ("Ns_proto." ^ req) then None
            else
              Some
                (diag ~src ~line:anchor_line
                   "%s is a naming-service server but does not handle Ns_proto.%s" m req))
          Check_auto.ns_requests
    in
    let response_gaps =
      if issued = [] then []
      else begin
        let wanted =
          List.sort_uniq compare (List.map snd issued @ [ "R_error" ])
        in
        List.filter_map
          (fun resp ->
            if has_token src ("Ns_proto." ^ resp) then None
            else
              Some
                (diag ~src ~line:anchor_line
                   "%s issues a request answered by Ns_proto.%s but never dispatches on it \
                    (unhandled response = silent drop)"
                   m resp))
          wanted
      end
    in
    server_gaps @ response_gaps
  end

(* --- entry points --- *)

let check_source src =
  let decls =
    match module_of src with
    | "Proto" when is_ml src -> check_decl src ~ty:"kind" ~declared:Check_auto.kind_names
    | "Ns_proto" when is_ml src ->
      check_decl src ~ty:"request" ~declared:(List.map fst Check_auto.ns_requests)
      @ check_decl src ~ty:"response" ~declared:Check_auto.ns_responses
    | _ -> []
  in
  Lint_diag.sort
    (decls @ check_kind_dispatch src @ check_gw_dispatch src @ check_ns_discipline src)

let check srcs = Lint_diag.sort (List.concat_map check_source srcs)
