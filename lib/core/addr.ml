(* The NTCS internal address space (§2.3, §3.4).

   UAdds are flat, network- and location-independent unique addresses,
   assigned by the naming service (a counter, plus a name-server identifier
   so that replicated name servers never collide). TAdds are identical in
   form but only locally unique to the module that assigned them; they exist
   so the internal protocols work before the naming service has assigned a
   real UAdd, and they are purged from all tables within the first
   communications with the name server. *)

type space =
  | Unique of int (* name-server id that assigned it *)
  | Temporary of int (* assigner tag: locally unique only *)

type t = { space : space; value : int }

let unique ~server_id ~value =
  if server_id < 0 || server_id > 0x3FFFFFFF then invalid_arg "Addr.unique: bad server id";
  { space = Unique server_id; value }

let temporary ~assigner ~value =
  if assigner < 0 || assigner > 0x3FFFFFFF then invalid_arg "Addr.temporary: bad assigner";
  { space = Temporary assigner; value }

let is_temporary t = match t.space with Temporary _ -> true | Unique _ -> false
let is_unique t = not (is_temporary t)

let equal a b = a = b
let compare = Stdlib.compare

let to_string t =
  match t.space with
  | Unique sid -> Printf.sprintf "U%d.%d" sid t.value
  | Temporary a -> Printf.sprintf "T%d.%d" a t.value

(* Two shift-mode words: word0 = temp flag (1 bit) | space tag (31 bits),
   word1 = value. UAdds must therefore keep their counters within 32 bits,
   which a simulation never exhausts. *)
let space_word t =
  match t.space with
  | Unique sid -> sid land 0x7FFFFFFF
  | Temporary a -> 0x80000000 lor (a land 0x7FFFFFFF)

let value_word t = t.value land 0xFFFFFFFF

let of_words w0 w1 =
  let space =
    if w0 land 0x80000000 <> 0 then Temporary (w0 land 0x7FFFFFFF)
    else Unique (w0 land 0x7FFFFFFF)
  in
  { space; value = w1 }

(* A per-module generator of TAdds: the module assigns itself one at start,
   and each Nucleus layer assigns its own TAdd to each incoming connection
   from a TAdd source (§3.4). *)
module Tadd_gen = struct
  type gen = { assigner : int; mutable next : int }

  let create ~assigner = { assigner; next = 1 }

  let fresh g =
    let v = g.next in
    g.next <- v + 1;
    temporary ~assigner:g.assigner ~value:v
end
