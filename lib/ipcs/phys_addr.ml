(* Network-dependent physical addresses — the lowest of the paper's three
   addressing levels (§2.3). A TCP address is host:port; an MBX address is a
   mailbox pathname. The naming service stores these uninterpreted (as
   strings); only the ND-layer ever takes them apart. *)

type t =
  | Tcp of { host : string; port : int }
  | Mbx of { path : string }

let tcp ~host ~port = Tcp { host; port }
let mbx ~path = Mbx { path }

type kind = K_tcp | K_mbx

let kind = function Tcp _ -> K_tcp | Mbx _ -> K_mbx

let kind_to_string = function K_tcp -> "tcp" | K_mbx -> "mbx"

let to_string = function
  | Tcp { host; port } -> Printf.sprintf "tcp://%s:%d" host port
  | Mbx { path } -> Printf.sprintf "mbx:%s" path

(* Inverse of [to_string]; used when addresses come back out of the naming
   service, which stores them as opaque strings. *)
let of_string s =
  let tcp_prefix = "tcp://" and mbx_prefix = "mbx:" in
  let has_prefix p =
    String.length s >= String.length p && String.sub s 0 (String.length p) = p
  in
  if has_prefix tcp_prefix then begin
    let rest = String.sub s 6 (String.length s - 6) in
    match String.rindex_opt rest ':' with
    | None -> None
    | Some i -> (
      let host = String.sub rest 0 i in
      let port_s = String.sub rest (i + 1) (String.length rest - i - 1) in
      match int_of_string_opt port_s with
      | Some port when host <> "" -> Some (Tcp { host; port })
      | Some _ | None -> None)
  end
  else if has_prefix mbx_prefix then begin
    let path = String.sub s 4 (String.length s - 4) in
    if path = "" then None else Some (Mbx { path })
  end
  else None
