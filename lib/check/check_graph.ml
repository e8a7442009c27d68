(* Resolved cross-module call graph over lib/, hunting the §6.3 bug class:
   a recursion cycle that crosses the NSP→LCM boundary without passing
   through the Recursion guard.

   The shape of the bug: LCM needs a route, asks the resolver; the resolver
   is NSP code, which sends a message; sending a message re-enters LCM.
   Direct references alone miss it because the back edge is an *installed
   callback* (a closure stored in a hook field), so in addition to
   head-of-path references we add edges for the known hook installers:
   installing a callback into module S gives S an edge to the installing
   module and to everything the installed closure — the installer's
   argument expression — references.

   A strongly connected component that (a) contains Lcm_layer, (b) reaches
   rank ≥ 5 (NSP or above), and (c) nowhere references the Recursion guard
   is exactly an unbounded cross-boundary recursion — the depth bound that
   keeps resolver re-entry finite has been lost. *)

let rule = "cycle"

type edge = {
  e_src : string;  (** caller module *)
  e_dst : string;  (** callee module *)
  e_file : string;  (** where the edge was observed *)
  e_line : int;
  e_via : string;  (** "reference" or the installer pattern *)
}

(* Hook installers: calling one of these functions, filling one of these
   record fields or assigning one of these mutable fields stores a closure
   inside the module on the right, giving that module edges back into the
   caller's world. *)
let hook_installers =
  [
    ("Lcm_layer.set_fault_oracle", "Lcm_layer");
    ("Nd_layer.set_upcall", "Nd_layer");
    ("Ip_layer.set_plan_oracle", "Ip_layer");
    ("Ip_layer.set_gateway_handler", "Ip_layer");
    ("rv_resolve", "Router");
    ("rv_forward", "Router");
    ("rv_gateways", "Router");
    ("on_event <-", "Lcm_layer");
    ("timestamp <-", "Lcm_layer");
  ]

let is_ml src = Filename.check_suffix src.Lint_lex.src_file ".ml"
let module_of src = Lint_rules.module_of_file src.Lint_lex.src_file

(* [(line, installer, target, closures)] for every hook installed in
   [src]: the arguments of an installer call, or the value given to an
   installer field. *)
let installs src =
  let out = ref [] in
  let hook pat loc closures =
    match List.assoc_opt pat hook_installers with
    | Some target -> out := (Lint_lex.line loc, pat, target, closures) :: !out
    | None -> ()
  in
  let super = Ast_iterator.default_iterator in
  let expr it (e : Parsetree.expression) =
    (match e.pexp_desc with
     | Pexp_apply ({ pexp_desc = Pexp_ident { txt; loc }; _ }, args) ->
       hook (Lint_lex.name txt) loc (List.map snd args)
     | Pexp_record (fields, _) ->
       List.iter (fun ({ Location.txt; loc }, v) -> hook (Longident.last txt) loc [ v ]) fields
     | Pexp_setfield (_, { txt; loc }, v) -> hook (Longident.last txt ^ " <-") loc [ v ]
     | _ -> ());
    super.expr it e
  in
  Lint_lex.walk src { super with expr };
  List.rev !out

let edges_of_source known src =
  if not (is_ml src) then []
  else begin
    let m = module_of src in
    let edge ~line ~via e_src e_dst =
      { e_src; e_dst; e_file = src.Lint_lex.src_file; e_line = line; e_via = via }
    in
    let direct =
      List.filter_map
        (fun (line, r) ->
          if r <> m && List.mem r known then Some (edge ~line ~via:"reference" m r) else None)
        src.Lint_lex.src_refs
    in
    let hook_edges =
      List.concat_map
        (fun (line, pat, target, closures) ->
          if not (List.mem target known) then []
          else
            List.concat_map (fun e -> List.map snd (Lint_lex.refs_of_expr e)) closures
            |> List.filter (fun r -> List.mem r known)
            |> List.cons m |> List.sort_uniq compare
            |> List.filter_map (fun callee ->
                   if callee = target then None else Some (edge ~line ~via:pat target callee)))
        (installs src)
    in
    direct @ hook_edges
  end

let graph srcs =
  let known = List.sort_uniq compare (List.map module_of (List.filter is_ml srcs)) in
  List.concat_map (edges_of_source known) srcs

(* --- Tarjan SCC --- *)

let sccs edges =
  let nodes =
    List.sort_uniq compare (List.concat_map (fun e -> [ e.e_src; e.e_dst ]) edges)
  in
  let succ n =
    List.sort_uniq compare (List.filter_map (fun e -> if e.e_src = n then Some e.e_dst else None) edges)
  in
  let index = Hashtbl.create 16 in
  let lowlink = Hashtbl.create 16 in
  let on_stack = Hashtbl.create 16 in
  let stack = ref [] in
  let counter = ref 0 in
  let out = ref [] in
  let rec strongconnect v =
    Hashtbl.replace index v !counter;
    Hashtbl.replace lowlink v !counter;
    incr counter;
    stack := v :: !stack;
    Hashtbl.replace on_stack v ();
    List.iter
      (fun w ->
        if not (Hashtbl.mem index w) then begin
          strongconnect w;
          Hashtbl.replace lowlink v (min (Hashtbl.find lowlink v) (Hashtbl.find lowlink w))
        end
        else if Hashtbl.mem on_stack w then
          Hashtbl.replace lowlink v (min (Hashtbl.find lowlink v) (Hashtbl.find index w)))
      (succ v);
    if Hashtbl.find lowlink v = Hashtbl.find index v then begin
      let rec pop acc =
        match !stack with
        | [] -> acc
        | w :: rest ->
          stack := rest;
          Hashtbl.remove on_stack w;
          if w = v then w :: acc else pop (w :: acc)
      in
      out := List.sort compare (pop []) :: !out
    end
  in
  List.iter (fun n -> if not (Hashtbl.mem index n) then strongconnect n) nodes;
  List.sort compare !out

(* --- the §6.3 rule --- *)

let references_recursion srcs scc =
  List.exists
    (fun src ->
      List.mem (module_of src) scc
      && List.exists (fun (_, r) -> r = "Recursion") src.Lint_lex.src_refs)
    srcs

let crosses_boundary scc =
  List.mem "Lcm_layer" scc
  && List.exists
       (fun m -> match Lint_rules.rank_of m with Some r -> r >= 5 | None -> false)
       scc

let check srcs =
  let edges = graph srcs in
  let components = List.filter (fun c -> List.length c > 1) (sccs edges) in
  let diags =
    List.filter_map
      (fun scc ->
        if crosses_boundary scc && not (references_recursion srcs scc) then begin
          (* Anchor at the first edge re-entering LCM from inside the cycle. *)
          let into_lcm =
            List.filter (fun e -> e.e_dst = "Lcm_layer" && List.mem e.e_src scc) edges
          in
          let anchor =
            match
              List.sort (fun a b -> compare (a.e_file, a.e_line) (b.e_file, b.e_line)) into_lcm
            with
            | e :: _ -> e
            | [] -> { e_src = "?"; e_dst = "Lcm_layer"; e_file = "?"; e_line = 1; e_via = "?" }
          in
          Some
            (Lint_diag.make ~file:anchor.e_file ~line:anchor.e_line ~rule
               (Printf.sprintf
                  "recursion cycle %s re-enters LCM across the NSP boundary with no \
                   Recursion guard in the cycle (%s via %s) — unbounded resolver \
                   re-entry (§6.3)"
                  (String.concat " -> " (scc @ [ List.hd scc ]))
                  anchor.e_src anchor.e_via))
        end
        else None)
      components
  in
  Lint_diag.sort diags
