(* A deliberately small lexical front end: enough OCaml lexing to blank out
   comments, strings and character literals (preserving newlines, so every
   byte keeps its line number), to harvest `lint:` pragmas from comments,
   and to extract head-of-path module references. It is not a parser — the
   rules it feeds are lexical by design, like ocamldep's approximation. *)

type source = { src_file : string; src_text : string; src_blank : string }

let is_ident_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = '\''

(* Replace the contents of comments (including delimiters), string literals
   (keeping the quotes) and character literals with spaces. Newlines inside
   them survive. Nested comments nest; strings inside comments do not close
   the comment (same quirk as the real lexer). *)
let blank text =
  let n = String.length text in
  let out = Bytes.of_string text in
  let blank_at i = if Bytes.get out i <> '\n' then Bytes.set out i ' ' in
  let i = ref 0 in
  let blank_string_body ~blank_quotes () =
    (* !i is just past the opening quote, already blanked or kept. *)
    let fin = ref false in
    while (not !fin) && !i < n do
      match text.[!i] with
      | '\\' when !i + 1 < n ->
        blank_at !i;
        blank_at (!i + 1);
        i := !i + 2
      | '"' ->
        if blank_quotes then blank_at !i;
        incr i;
        fin := true
      | _ ->
        blank_at !i;
        incr i
    done
  in
  while !i < n do
    let c = text.[!i] in
    if c = '(' && !i + 1 < n && text.[!i + 1] = '*' then begin
      let depth = ref 1 in
      blank_at !i;
      blank_at (!i + 1);
      i := !i + 2;
      while !depth > 0 && !i < n do
        if text.[!i] = '(' && !i + 1 < n && text.[!i + 1] = '*' then begin
          incr depth;
          blank_at !i;
          blank_at (!i + 1);
          i := !i + 2
        end
        else if text.[!i] = '*' && !i + 1 < n && text.[!i + 1] = ')' then begin
          decr depth;
          blank_at !i;
          blank_at (!i + 1);
          i := !i + 2
        end
        else if text.[!i] = '"' then begin
          blank_at !i;
          incr i;
          blank_string_body ~blank_quotes:true ()
        end
        else begin
          blank_at !i;
          incr i
        end
      done
    end
    else if c = '"' then begin
      incr i;
      blank_string_body ~blank_quotes:false ()
    end
    else if c = '\'' then begin
      if !i + 2 < n && text.[!i + 2] = '\'' && text.[!i + 1] <> '\\' && text.[!i + 1] <> '\''
      then begin
        (* plain char literal 'x' *)
        blank_at (!i + 1);
        i := !i + 3
      end
      else if !i + 1 < n && text.[!i + 1] = '\\' then begin
        (* escaped char literal: '\n' '\\' '\'' '\123' '\x41' — the char
           right after the backslash is always part of the escape. *)
        let j = ref (!i + 3) in
        while !j < n && text.[!j] <> '\'' && text.[!j] <> '\n' do
          incr j
        done;
        if !j < n && text.[!j] = '\'' then begin
          for k = !i + 1 to !j - 1 do
            blank_at k
          done;
          i := !j + 1
        end
        else incr i
      end
      else incr i (* type variable 'a, or part of an identifier *)
    end
    else incr i
  done;
  Bytes.to_string out

let of_string ~file text = { src_file = file; src_text = text; src_blank = blank text }

let load file =
  let ic = open_in_bin file in
  let len = in_channel_length ic in
  let text = really_input_string ic len in
  close_in ic;
  of_string ~file text

let lines s = String.split_on_char '\n' s

(* Word-bounded occurrence of a dotted pattern (e.g. "Hashtbl.fold") in one
   line: the character before must not extend an identifier or path, the
   character after must not extend an identifier. *)
let line_has_token line pat =
  let n = String.length line and m = String.length pat in
  let rec go i =
    if i > n - m then false
    else if
      String.sub line i m = pat
      && (i = 0 || not (is_ident_char line.[i - 1] || line.[i - 1] = '.'))
      && (i + m >= n || not (is_ident_char line.[i + m]))
    then true
    else go (i + 1)
  in
  m > 0 && go 0

(* --- pragmas --- *)

type pragma = {
  p_line : int;
  p_file_scope : bool;
  p_rule : string;
  p_arg : string option;
  p_reason : string;
}

let em_dash = "\xe2\x80\x94"

let starts_with ~prefix s pos =
  let pl = String.length prefix in
  pos + pl <= String.length s && String.sub s pos pl = prefix

(* Top-level comments with the line each one opens on. Same scanner shape
   as [blank]; strings (inside and outside comments) are handled so their
   contents can never look like a comment. *)
let comments text =
  let n = String.length text in
  let line = ref 1 in
  let out = ref [] in
  let i = ref 0 in
  let bump c = if c = '\n' then incr line in
  let skip_string () =
    (* !i just past the opening quote *)
    let fin = ref false in
    while (not !fin) && !i < n do
      (match text.[!i] with
       | '\\' when !i + 1 < n ->
         bump text.[!i + 1];
         i := !i + 2
       | '"' ->
         incr i;
         fin := true
       | c ->
         bump c;
         incr i)
    done
  in
  while !i < n do
    let c = text.[!i] in
    if c = '(' && !i + 1 < n && text.[!i + 1] = '*' then begin
      let open_line = !line in
      let buf = Buffer.create 64 in
      let depth = ref 1 in
      i := !i + 2;
      while !depth > 0 && !i < n do
        if text.[!i] = '(' && !i + 1 < n && text.[!i + 1] = '*' then begin
          incr depth;
          Buffer.add_string buf "(*";
          i := !i + 2
        end
        else if text.[!i] = '*' && !i + 1 < n && text.[!i + 1] = ')' then begin
          decr depth;
          if !depth > 0 then Buffer.add_string buf "*)";
          i := !i + 2
        end
        else if text.[!i] = '"' then begin
          Buffer.add_char buf '"';
          incr i;
          let start = !i in
          skip_string ();
          Buffer.add_string buf (String.sub text start (!i - start))
        end
        else begin
          bump text.[!i];
          Buffer.add_char buf text.[!i];
          incr i
        end
      done;
      out := (open_line, Buffer.contents buf) :: !out
    end
    else if c = '"' then begin
      incr i;
      skip_string ()
    end
    else if c = '\'' && !i + 2 < n && text.[!i + 2] = '\'' && text.[!i + 1] <> '\\'
            && text.[!i + 1] <> '\'' then begin
      bump text.[!i + 1];
      i := !i + 3
    end
    else begin
      bump c;
      incr i
    end
  done;
  List.rev !out

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
let pragmas src =
  let ps = ref [] and bad = ref [] in
  List.iter
    (fun (lineno, body) ->
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
          let rest = List.hd (lines rest) in
          match parse_tail ~file_scope ~line:lineno ~file:src.src_file rest with
          | Ok p -> ps := p :: !ps
          | Error d -> bad := d :: !bad
        end
        else
          bad :=
            Lint_diag.make ~file:src.src_file ~line:lineno ~rule:"pragma"
              "malformed pragma: expected `lint: allow' or `lint: allow-file'"
            :: !bad
      end)
    (comments src.src_text);
  (List.rev !ps, List.rev !bad)

let pragma_allows pragmas ~rule ~arg ~line =
  List.exists
    (fun p ->
      String.equal p.p_rule rule
      && (match p.p_arg with None -> true | Some a -> String.equal a arg)
      && (p.p_file_scope || p.p_line = line || p.p_line = line - 1))
    pragmas

(* --- module references --- *)

(* Head-of-path module references: an uppercase identifier not preceded by
   an identifier character or a dot, and either immediately followed by a
   dot ([Foo.bar]) or preceded by the [open]/[include] keyword. Works on
   the blanked text so comments and strings cannot fake references. *)
let module_refs src =
  let refs = ref [] in
  List.iteri
    (fun idx line ->
      let lineno = idx + 1 in
      let n = String.length line in
      let preceded_by_keyword pos =
        (* scan back over spaces, then over the previous word *)
        let j = ref (pos - 1) in
        while !j >= 0 && (line.[!j] = ' ' || line.[!j] = '\t') do
          decr j
        done;
        let word_end = !j in
        while !j >= 0 && is_ident_char line.[!j] do
          decr j
        done;
        let w = String.sub line (!j + 1) (word_end - !j) in
        String.equal w "open" || String.equal w "include"
      in
      let i = ref 0 in
      while !i < n do
        let c = line.[!i] in
        if c >= 'A' && c <= 'Z' && (!i = 0 || (not (is_ident_char line.[!i - 1]) && line.[!i - 1] <> '.'))
        then begin
          let j = ref (!i + 1) in
          while !j < n && is_ident_char line.[!j] do
            incr j
          done;
          let name = String.sub line !i (!j - !i) in
          let is_ref = (!j < n && line.[!j] = '.') || preceded_by_keyword !i in
          if is_ref && not (List.mem (lineno, name) !refs) then refs := (lineno, name) :: !refs;
          i := !j
        end
        else incr i
      done)
    (lines src.src_blank);
  List.rev !refs
