(* The one front end of the static analyses. Each file is parsed once by
   the compiler's own parser; the compiler lexer keeps the comments, which
   carry the `lint:` pragmas; and one AST walk collects every path the
   rules look up. Nothing here scans OCaml text by hand. *)

type ast = Impl of Parsetree.structure | Intf of Parsetree.signature

type pragma = {
  p_line : int;
  p_file_scope : bool;
  p_rule : string;
  p_arg : string option;
  p_reason : string;
}

type source = {
  src_file : string;
  src_ast : ast;
  src_syntax : Lint_diag.t list;
  src_pragmas : pragma list;
  src_malformed : Lint_diag.t list;
  src_paths : (int * string) list;
  src_refs : (int * string) list;
}

let rec name = function
  | Longident.Lident s -> s
  | Ldot (p, s) -> name p ^ "." ^ s
  | Lapply (p, _) -> name p

let rec head = function Longident.Lident s -> s | Ldot (p, _) | Lapply (p, _) -> head p

let line (loc : Location.t) = loc.loc_start.pos_lnum

(* --- pragmas --- *)

let em_dash = "\xe2\x80\x94"

let starts_with ~prefix s pos =
  let pl = String.length prefix in
  pos + pl <= String.length s && String.sub s pos pl = prefix

(* Parse one pragma starting right after "lint: allow[-file]". Returns
   either the pragma or a malformed-pragma message. *)
let parse_tail ~file_scope ~line ~file rest =
  let n = String.length rest in
  let pos = ref 0 in
  let skip_spaces () =
    while !pos < n && (rest.[!pos] = ' ' || rest.[!pos] = '\t') do
      incr pos
    done
  in
  skip_spaces ();
  let rule_start = !pos in
  while !pos < n && ((rest.[!pos] >= 'a' && rest.[!pos] <= 'z') || rest.[!pos] = '-') do
    incr pos
  done;
  let rule = String.sub rest rule_start (!pos - rule_start) in
  if rule = "" then
    Error (Lint_diag.make ~file ~line ~rule:"pragma" "malformed pragma: missing rule name")
  else if not (List.mem rule Lint_rules.pragma_rules) then
    Error
      (Lint_diag.make ~file ~line ~rule:"pragma"
         (Printf.sprintf "malformed pragma: no rule `%s' reads pragmas (expected one of: %s)"
            rule
            (String.concat ", " Lint_rules.pragma_rules)))
  else begin
    let arg =
      if !pos < n && rest.[!pos] = '(' then begin
        let close = try String.index_from rest !pos ')' with Not_found -> -1 in
        if close < 0 then None
        else begin
          let a = String.sub rest (!pos + 1) (close - !pos - 1) in
          pos := close + 1;
          Some (String.trim a)
        end
      end
      else None
    in
    skip_spaces ();
    let sep_ok =
      if starts_with ~prefix:em_dash rest !pos then begin
        pos := !pos + String.length em_dash;
        true
      end
      else if starts_with ~prefix:"--" rest !pos then begin
        pos := !pos + 2;
        true
      end
      else if !pos < n && rest.[!pos] = '-' then begin
        incr pos;
        true
      end
      else false
    in
    if not sep_ok then
      Error
        (Lint_diag.make ~file ~line ~rule:"pragma"
           "malformed pragma: missing \xe2\x80\x94 separator before the reason")
    else begin
      let reason = String.sub rest !pos (n - !pos) in
      (* The comment may close on this line; the reason may also continue on
         the next line — only require something non-empty here. *)
      let reason =
        match String.index_opt reason '*' with
        | Some star when star + 1 < String.length reason && reason.[star + 1] = ')' ->
          String.sub reason 0 star
        | _ -> reason
      in
      if String.trim reason = "" then
        Error
          (Lint_diag.make ~file ~line ~rule:"pragma"
             "malformed pragma: missing reason after the separator")
      else
        Ok
          {
            p_line = line;
            p_file_scope = file_scope;
            p_rule = rule;
            p_arg = arg;
            p_reason = String.trim reason;
          }
    end
  end

(* A pragma is a comment whose text BEGINS with "lint:". Mentions of the
   syntax mid-comment (documentation) or in string literals are not
   pragmas and are never flagged as malformed. *)
let parse_pragmas ~file comments =
  let ps = ref [] and bad = ref [] in
  List.iter
    (fun (body, loc) ->
      let lineno = line loc in
      let body = String.trim body in
      if starts_with ~prefix:"lint:" body 0 then begin
        let after_tag = String.sub body 5 (String.length body - 5) in
        let after_tag = String.trim after_tag in
        if starts_with ~prefix:"allow" after_tag 0 then begin
          let after = String.length "allow" in
          let file_scope = starts_with ~prefix:"-file" after_tag after in
          let after = if file_scope then after + 5 else after in
          let rest = String.sub after_tag after (String.length after_tag - after) in
          (* Only the first line of the comment is parsed; the reason may
             spill onto following lines. *)
          let rest = List.hd (String.split_on_char '\n' rest) in
          match parse_tail ~file_scope ~line:lineno ~file rest with
          | Ok p -> ps := p :: !ps
          | Error d -> bad := d :: !bad
        end
        else
          bad :=
            Lint_diag.make ~file ~line:lineno ~rule:"pragma"
              "malformed pragma: expected `lint: allow' or `lint: allow-file'"
            :: !bad
      end)
    comments;
  (List.rev !ps, List.rev !bad)

let pragmas src = (src.src_pragmas, src.src_malformed)

let pragma_allows pragmas ~rule ~arg ~line =
  List.exists
    (fun p ->
      String.equal p.p_rule rule
      && (match p.p_arg with None -> true | Some a -> String.equal a arg)
      && (p.p_file_scope || p.p_line = line || p.p_line = line - 1))
    pragmas

(* --- path occurrences --- *)

(* One walk over whatever [run] hands the iterator. A qualified path of any
   kind references its head module; a module path references its head even
   unqualified ([open Foo]). Ghost locations are the parser's own
   desugaring ([a.(i)] is [Array.get]), not source text. *)
let occurrences run =
  let paths = ref [] and refs = ref [] in
  let path { Location.txt; loc } =
    if not loc.Location.loc_ghost then begin
      paths := (line loc, name txt) :: !paths;
      match txt with Longident.Lident _ -> () | _ -> refs := (line loc, head txt) :: !refs
    end
  in
  let modpath { Location.txt; loc } =
    if not loc.Location.loc_ghost then refs := (line loc, head txt) :: !refs
  in
  let open Parsetree in
  let super = Ast_iterator.default_iterator in
  let it =
    {
      super with
      expr =
        (fun it e ->
          (match e.pexp_desc with
           | Pexp_ident p | Pexp_construct (p, _) | Pexp_field (_, p) | Pexp_setfield (_, p, _)
           | Pexp_new p ->
             path p
           | Pexp_record (fields, _) -> List.iter (fun (p, _) -> path p) fields
           | _ -> ());
          super.expr it e);
      pat =
        (fun it p ->
          (match p.ppat_desc with
           | Ppat_construct (c, _) | Ppat_type c -> path c
           | Ppat_record (fields, _) -> List.iter (fun (f, _) -> path f) fields
           | _ -> ());
          super.pat it p);
      typ =
        (fun it t ->
          (match t.ptyp_desc with
           | Ptyp_constr (p, _) | Ptyp_class (p, _) | Ptyp_package (p, _) -> path p
           | _ -> ());
          super.typ it t);
      module_expr =
        (fun it m ->
          (match m.pmod_desc with Pmod_ident p -> modpath p | _ -> ());
          super.module_expr it m);
      module_type =
        (fun it m ->
          (match m.pmty_desc with
           | Pmty_ident p -> path p
           | Pmty_alias p -> modpath p
           | _ -> ());
          super.module_type it m);
      open_description =
        (fun it o ->
          modpath o.popen_expr;
          super.open_description it o);
    }
  in
  run it;
  (List.sort_uniq compare !paths, List.sort_uniq compare !refs)

let walk_ast ast (it : Ast_iterator.iterator) =
  match ast with Impl s -> it.structure it s | Intf s -> it.signature it s

let walk src it = walk_ast src.src_ast it

let refs_of_expr e = snd (occurrences (fun it -> it.expr it e))

(* --- loading --- *)

(* A file the compiler cannot parse is a diagnostic, not a crash: it has no
   AST, and the rules see an empty file. *)
let parse ~file text =
  let lexbuf = Lexing.from_string text in
  Location.init lexbuf file;
  let intf = Filename.check_suffix file ".mli" in
  try ((if intf then Intf (Parse.interface lexbuf) else Impl (Parse.implementation lexbuf)), [])
  with exn -> (
    match Location.error_of_exn exn with
    | Some (`Ok { main; _ }) ->
      let msg = Format.asprintf "%t" main.txt in
      let empty = if intf then Intf [] else Impl [] in
      (empty, [ Lint_diag.make ~file ~line:(line main.loc) ~rule:"parse" msg ])
    | _ -> raise exn)

let of_string ~file text =
  let ast, syntax = parse ~file text in
  let src_pragmas, src_malformed = parse_pragmas ~file (Lexer.comments ()) in
  let src_paths, src_refs = occurrences (walk_ast ast) in
  { src_file = file; src_ast = ast; src_syntax = syntax; src_pragmas; src_malformed;
    src_paths; src_refs }

let load file =
  let ic = open_in_bin file in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  of_string ~file text
