(* The repo-specific policy tables: which module sits on which layer, which
   files may name which restricted modules, and which calls threaten
   determinism. Everything else in the linter is generic machinery. *)

(* Layer ranks, following the paper's stack (§2): application-level modules
   on top, IPCS backends at the bottom. A ranked module may reference ranked
   modules at its own rank or below; references upward violate R1.

     7  applications (Name Server, DRTS services, URSA)
     6  ALI-Layer / ComMod assembly
     5  NSP-Layer
     4  LCM-Layer
     3  IP-Layer / Gateway / Router
     2  ND-Layer
     1  STD-IF
     0  IPCS backends

   Unranked modules (Addr, Proto, Node, Errors, the sim, the wire codecs,
   Ntcs_util, ...) are common substrate and carry no constraint. *)
let rank_of = function
  | "Name_server" | "Monitor" | "Time_service" | "Error_log" | "Process_ctl" | "Host"
  | "Servers" ->
    Some 7
  | "Ali_layer" | "Commod" -> Some 6
  | "Nsp_layer" -> Some 5
  | "Lcm_layer" -> Some 4
  | "Ip_layer" | "Gateway" | "Router" -> Some 3
  | "Nd_layer" -> Some 2
  | "Std_if" -> Some 1
  | "Ipcs_tcp" | "Ipcs_mbx" | "Registry" | "Phys_addr" | "Ipcs_error" -> Some 0
  | _ -> None

let layer_name = function
  | 7 -> "application"
  | 6 -> "ALI/ComMod"
  | 5 -> "NSP"
  | 4 -> "LCM"
  | 3 -> "IP/Gateway"
  | 2 -> "ND"
  | 1 -> "STD-IF"
  | 0 -> "IPCS"
  | _ -> "?"

(* Windows never happens here, but normalise anyway so path predicates are
   simple substring checks on '/'-separated paths. *)
let norm path = String.map (fun c -> if c = '\\' then '/' else c) path

let has_sub ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let basename path =
  match String.rindex_opt (norm path) '/' with
  | Some i -> String.sub path (i + 1) (String.length path - i - 1)
  | None -> path

(* The module a file defines: basename, extension stripped, capitalised. *)
let module_of_file path =
  let b = basename path in
  let stem = match String.index_opt b '.' with Some i -> String.sub b 0 i | None -> b in
  if stem = "" then stem else String.capitalize_ascii stem

(* Directories whose code is on the message path: hash-order iteration there
   is a reproducibility bug, not a style nit. lib/util and lib/wire are pure
   leaf libraries and exempt. *)
let protocol_path path =
  let p = norm path in
  List.exists
    (fun d -> has_sub ~sub:d p)
    [ "lib/core"; "lib/ipcs"; "lib/sim"; "lib/drts"; "lib/ursa"; "lib/naming" ]

(* Only the ND layer, the STD-IF shim and the IPCS library itself may name a
   concrete IPCS backend: everything above must stay backend-agnostic
   (that is the portability claim of §2.1/§5). *)
let may_name_ipcs_backend path =
  let p = norm path in
  has_sub ~sub:"lib/ipcs/" p
  || List.mem (module_of_file p) [ "Std_if"; "Nd_layer" ]

let ipcs_backends = [ "Ipcs_tcp"; "Ipcs_mbx" ]

(* The rule IDs a [lint: allow] pragma may name: exactly the rules that
   read pragmas, Check_proto's [lifecycle] included. A pragma naming
   anything else — a retired rule, a typo — would suppress nothing without
   saying so, so Lint_lex reports it as malformed. *)
let pragma_rules = [ "layering"; "determinism"; "copies"; "category"; "domsafe"; "lifecycle" ]

(* R8: domain safety. A module-level [let] whose right-hand side allocates
   one of these is ambient mutable state: every domain in the planned
   parallel-world execution (ROADMAP 2) would share the one instance. The
   same constructors inside a function or stored in a record field are
   fine — that state hangs off whoever holds the value. *)
let mutable_ctors =
  [
    "ref"; "Hashtbl.create"; "Tbl.create"; "Lru.create"; "Pool.create";
    "Queue.create"; "Stack.create"; "Buffer.create"; "Bytes.create";
    "Array.make"; "Atomic.make";
  ]

(* Per-machine code: what becomes a domain work item when worlds go
   parallel. An ambient global is a violation exactly when code here can
   reach it — directly or through anything it calls (the sim substrate
   included: the protocol stack runs on [Sched]). *)
let machine_path path =
  let p = norm path in
  List.exists
    (fun d -> has_sub ~sub:d p)
    [ "lib/core"; "lib/ipcs"; "lib/drts"; "lib/ursa"; "lib/naming" ]

(* Inventory scope for mutable record fields: instances of records declared
   in per-machine directories are owned by a machine's stack; everything
   else (sim, util, obs, wire, the analysis tooling itself) is owned by the
   world — or the tool — that created the instance. *)
let field_scope path = if machine_path path then `Machine_local else `World_local

(* Forbidden paths: naming [f_path] in a file where [f_applies] holds
   violates [f_rule]. Four policies share the one table:

   - R1, conversion: only the IP layer selects a conversion mode for
     traffic (§5); lib/wire owns the mechanism, ip_layer.ml the policy.
   - R1, retry discipline: the ComMod layers (lib/core) recover through the
     one [Retry] policy module. A bare [Sched.sleep] anywhere else in
     lib/core is a hand-rolled backoff loop waiting to drift from the
     policy. Applications, services and the sim itself may sleep freely.
   - R2, determinism: the simulation's repeatability rests on nothing
     consulting wall clocks, unseeded randomness or, on a protocol path,
     hash-table layout.
   - R5, copies: the zero-copy frame pipeline keeps payload bytes in place
     from the IPCS through receive, forward and send; a stray
     Bytes.cat/sub/copy or Buffer.to_bytes in lib/core or lib/ipcs is a
     hot-path copy creeping back in. Proto owns the sanctioned
     materialisation points (Frame.payload_bytes, to_bytes,
     encode_frame). *)
type forbidden = {
  f_rule : string;
  f_path : string;
  f_applies : string -> bool;
  f_msg : string -> string;
}

let forbidden =
  let in_file m path = String.equal (module_of_file path) m in
  let layering applies why path =
    { f_rule = "layering"; f_path = path; f_applies = applies;
      f_msg = (fun self -> Printf.sprintf "%s calls %s: %s" self path why) }
  in
  let selects_conversion path =
    not (has_sub ~sub:"lib/wire/" (norm path) || in_file "Ip_layer" path)
  in
  let core_sleeps path = has_sub ~sub:"lib/core/" (norm path) && not (in_file "Retry" path) in
  let det ?(applies = fun _ -> true) path why =
    { f_rule = "determinism"; f_path = path; f_applies = applies;
      f_msg = (fun _ -> path ^ ": " ^ why) }
  in
  let frame_path path =
    let p = norm path in
    (has_sub ~sub:"lib/core/" p || has_sub ~sub:"lib/ipcs/" p) && not (in_file "Proto" path)
  in
  let copy path =
    { f_rule = "copies"; f_path = path; f_applies = frame_path;
      f_msg =
        (fun _ ->
          path ^ ": byte copy on a frame path \xe2\x80\x94 use Proto.Frame views and keep \
                  payloads in place") }
  in
  let wall = "blocks the host thread outside virtual time; use Retry.run or Sched.sleep" in
  let hash_order = "hash-order iteration is nondeterministic; use Ntcs_util.sorted_bindings" in
  List.map (layering selects_conversion "only Ip_layer selects a conversion mode (\xc2\xa75)")
    [ "Convert.choose"; "Convert.force" ]
  @ [
      layering core_sleeps "lib/core recovers through Retry.run, not ad-hoc sleeps" "Sched.sleep";
      det "Random.self_init" "nondeterministic seed; use the world's seeded Rng";
      det "Unix.gettimeofday" "wall-clock time; use virtual time (Node.now)";
      det "Sys.time" "process time; use virtual time (Node.now)";
      det "Obj.magic" "defeats the type system; never on a protocol path";
      det "Unix.sleep" wall;
      det "Unix.sleepf" wall;
      det ~applies:protocol_path "Hashtbl.iter" hash_order;
      det ~applies:protocol_path "Hashtbl.fold" hash_order;
    ]
  @ List.map copy [ "Bytes.cat"; "Bytes.sub"; "Bytes.copy"; "Buffer.to_bytes" ]
