(* A single linter finding, pinned to a source location so editors and CI
   logs can jump straight to it. *)

type t = { file : string; line : int; rule : string; msg : string }

let make ~file ~line ~rule msg = { file; line; rule; msg }

let compare a b =
  match String.compare a.file b.file with
  | 0 -> (
    match Int.compare a.line b.line with
    | 0 -> (
      match String.compare a.rule b.rule with
      | 0 -> String.compare a.msg b.msg
      | c -> c)
    | c -> c)
  | c -> c

let sort ds = List.sort_uniq compare ds

let pp ppf d = Format.fprintf ppf "%s:%d: [%s] %s" d.file d.line d.rule d.msg

(* Minimal JSON string escaping: enough for paths, rule names and messages
   (which may quote source text). *)
let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_json d =
  Printf.sprintf "{\"file\":\"%s\",\"line\":%d,\"rule\":\"%s\",\"msg\":\"%s\"}"
    (json_escape d.file) d.line (json_escape d.rule) (json_escape d.msg)

(* The whole report as one JSON array, sorted: stable output for CI diffing. *)
let list_to_json ds =
  "[" ^ String.concat "," (List.map to_json (sort ds)) ^ "]"
