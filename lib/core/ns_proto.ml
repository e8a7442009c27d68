(* The naming-service request/response protocol. These messages ride the
   ordinary Nucleus primitives as packed-mode payloads with a reserved
   application tag — "for all practical purposes, the naming service is
   nothing more than an application built on the Nucleus" (§2.4).

   There is one protocol for every deployment: lookups and resolves are
   always versioned (DESIGN.md §15). An unsharded server is a one-shard
   plane that answers every one of them with shard 0, generation 0, so a
   client's cache floors never move. A versioned answer also carries the
   names its shard's last [change_log_length] generations changed, so a
   client retires only the cached entries for those names. Each union
   case is declared once, as a [Packed.case]. *)

open Ntcs_wire

(* Application tag reserved for naming-service traffic. *)
let app_tag = 9005

(* K: how many generations of changed names a versioned answer carries.
   A client whose last observation is further behind falls back to
   retiring the whole shard. *)
let change_log_length = 8

(* A name is one word: the ns.* trace details are space-separated, so a
   name holding whitespace, or none at all, could not be read back. *)
let valid_name name =
  name <> ""
  && not (String.exists (function ' ' | '\t' | '\n' | '\r' | '\011' | '\012' -> true | _ -> false) name)

type entry = {
  e_name : string;
  e_addr : Addr.t;
  e_phys : string list; (* physical addresses, uninterpreted strings (§3.2) *)
  e_nets : int list; (* logical network identifiers *)
  e_order : int; (* machine representation tag (Proto.order_to_int) *)
  e_attrs : (string * string) list; (* attribute-based naming (§7) *)
  e_alive : bool;
}

type request =
  | Register of {
      r_name : string;
      r_phys : string list;
      r_nets : int list;
      r_order : int;
      r_attrs : (string * string) list;
    }
  | Lookup_v of string * int
  (* Logical name -> UAdd, shard-routed: [name, hops]. A non-owner shard
     forwards it name-to-name to the owner with [hops+1] (Internames
     style); [hops >= 1] means "answer locally" so the chain is at most
     one hop long even if shard maps ever disagreed. Answered with
     [R_addr_v], which piggybacks the owner's invalidation generation for
     the client's cache. *)
  | Lookup_attrs of (string * string) list (* attribute query -> entries *)
  | Resolve_v of Addr.t (* UAdd -> full entry, answered with [R_entry_v] *)
  | Forward of Addr.t (* address fault: find replacement (§3.5) *)
  | Deregister of Addr.t
  | List_gateways (* topology: all registered gateway ComMods *)
  | Sync_push of (int * entry) list (* replication: peer pushes fresh entries *)

type response =
  | R_registered of Addr.t
  | R_addr_v of Addr.t * int * int * string list
  (* [addr, shard, gen, changed]: the answer plus the answering
     authority's shard index and invalidation generation, and the names
     that generations gen, gen - 1, ... changed, newest first, at most
     [change_log_length] of them. [gen = 0] marks an unversioned answer
     (an unsharded server, or a surviving replica's backup copy while the
     owner is down): cacheable, it carries no names, and it never raises
     the client's generation floor. *)
  | R_entry_v of entry * int * int * string list
  (* [entry, shard, gen, changed] — as [R_addr_v] *)
  | R_entries of entry list
  | R_forward of Addr.t option (* Some = replacement; None = original still alive *)
  | R_ok
  | R_error of string (* Errors.to_string form *)

(* The minting server's id *is* the owning shard of a UAdd in a sharded
   plane; well-known addresses (gateways, the servers themselves) fall
   outside the map. *)
let shard_of_addr m (addr : Addr.t) =
  match addr.Addr.space with
  | Addr.Unique sid when sid >= 0 && sid < Ntcs_naming.Shard_map.nshards m -> Some sid
  | Addr.Unique _ | Addr.Temporary _ -> None

(* --- codecs --- *)

let addr_codec = Proto.addr_codec

let attrs_codec = Packed.list (Packed.pair Packed.string Packed.string)

let entry_codec =
  Packed.(
    iso
      ~fwd:(fun ((e_name, e_addr, e_phys), (e_nets, e_order, e_attrs), e_alive) ->
        { e_name; e_addr; e_phys; e_nets; e_order; e_attrs; e_alive })
      ~bwd:(fun e ->
        ((e.e_name, e.e_addr, e.e_phys), (e.e_nets, e.e_order, e.e_attrs), e.e_alive))
      (triple (triple string addr_codec (list string)) (triple (list int) int attrs_codec) bool))

(* [shard, gen], then the change list on a versioned answer (gen > 0)
   only: an unversioned answer carries no names, so an unsharded server's
   answers keep the bytes they had before names rode on answers. *)
let stamp_codec : (int * int * string list) Packed.t =
  let names = Packed.(list ~max:change_log_length string) in
  {
    Packed.pack =
      (fun buf (shard, gen, changed) ->
        Packed.int.pack buf shard;
        Packed.int.pack buf gen;
        if gen > 0 then names.Packed.pack buf changed);
    unpack =
      (fun cur ->
        let shard = Packed.int.unpack cur in
        let gen = Packed.int.unpack cur in
        (shard, gen, if gen > 0 then names.Packed.unpack cur else []));
  }

let request_codec : request Packed.t =
  let open Packed in
  tagged
    [
      case "reg"
        (pair (triple string (list string) (list int)) (pair int attrs_codec))
        (fun ((r_name, r_phys, r_nets), (r_order, r_attrs)) ->
          Register { r_name; r_phys; r_nets; r_order; r_attrs })
        (function
          | Register r -> Some ((r.r_name, r.r_phys, r.r_nets), (r.r_order, r.r_attrs))
          | _ -> None);
      case "lkv" (pair string int)
        (fun (n, hops) -> Lookup_v (n, hops))
        (function Lookup_v (n, hops) -> Some (n, hops) | _ -> None);
      case "lka" attrs_codec
        (fun a -> Lookup_attrs a)
        (function Lookup_attrs a -> Some a | _ -> None);
      case "rsv" addr_codec (fun a -> Resolve_v a) (function Resolve_v a -> Some a | _ -> None);
      case "fwd" addr_codec (fun a -> Forward a) (function Forward a -> Some a | _ -> None);
      case "der" addr_codec (fun a -> Deregister a) (function Deregister a -> Some a | _ -> None);
      case "gws" unit (fun () -> List_gateways) (function List_gateways -> Some () | _ -> None);
      case "syp" (list (pair int entry_codec))
        (fun es -> Sync_push es)
        (function Sync_push es -> Some es | _ -> None);
    ]

let response_codec : response Packed.t =
  let open Packed in
  tagged
    [
      case "rgd" addr_codec
        (fun a -> R_registered a)
        (function R_registered a -> Some a | _ -> None);
      case "adv" (pair addr_codec stamp_codec)
        (fun (a, (shard, gen, ch)) -> R_addr_v (a, shard, gen, ch))
        (function R_addr_v (a, shard, gen, ch) -> Some (a, (shard, gen, ch)) | _ -> None);
      case "env" (pair entry_codec stamp_codec)
        (fun (e, (shard, gen, ch)) -> R_entry_v (e, shard, gen, ch))
        (function R_entry_v (e, shard, gen, ch) -> Some (e, (shard, gen, ch)) | _ -> None);
      case "ens" (list entry_codec)
        (fun es -> R_entries es)
        (function R_entries es -> Some es | _ -> None);
      case "fwr" (option addr_codec)
        (fun a -> R_forward a)
        (function R_forward a -> Some a | _ -> None);
      case "ok_" unit (fun () -> R_ok) (function R_ok -> Some () | _ -> None);
      case "err" string (fun m -> R_error m) (function R_error m -> Some m | _ -> None);
    ]

let pack_request r = Packed.run_pack request_codec r
let unpack_request b = Packed.run_unpack_result request_codec b
let pack_response r = Packed.run_pack response_codec r
let unpack_response b = Packed.run_unpack_result response_codec b
