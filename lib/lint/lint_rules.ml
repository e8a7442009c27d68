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

(* Only the IP layer selects a conversion mode for traffic (§5): lib/wire
   owns the mechanism, ip_layer.ml the policy. *)
let may_select_conversion path =
  let p = norm path in
  has_sub ~sub:"lib/wire/" p || String.equal (module_of_file p) "Ip_layer"

let conversion_selectors = [ "Convert.choose"; "Convert.force" ]

(* Retry discipline: the ComMod layers (lib/core) recover through the one
   [Retry] policy module. A bare [Sched.sleep] anywhere else in lib/core is
   a hand-rolled backoff loop waiting to drift from the policy — bounded
   differently, jittered differently, or not at all. Applications, services
   and the sim itself may sleep freely. *)
let may_sleep path =
  let p = norm path in
  (not (has_sub ~sub:"lib/core/" p)) || String.equal (module_of_file p) "Retry"

let sleep_calls = [ "Sched.sleep" ]

(* R5: copy discipline. The zero-copy frame pipeline keeps payload bytes in
   place from the IPCS through receive, forward and send; a stray
   Bytes.cat/sub/copy or Buffer.to_bytes in lib/core or lib/ipcs is a
   hot-path copy creeping back in. Proto owns the sanctioned
   materialisation points (Frame.payload_bytes, to_bytes, encode_frame);
   everything else must either stay on views or carry a pragma naming its
   reason. *)
let copy_calls = [ "Bytes.cat"; "Bytes.sub"; "Bytes.copy"; "Buffer.to_bytes" ]

let may_copy_frames path =
  let p = norm path in
  not (has_sub ~sub:"lib/core/" p || has_sub ~sub:"lib/ipcs/" p)
  || String.equal (module_of_file p) "Proto"

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

type det_rule = {
  d_pat : string;  (** dotted path to match, word-bounded *)
  d_why : string;
  d_everywhere : bool;  (** false: only in [protocol_path] files *)
}

let det_rules =
  [
    { d_pat = "Random.self_init"; d_why = "nondeterministic seed; use the world's seeded Rng";
      d_everywhere = true };
    { d_pat = "Unix.gettimeofday"; d_why = "wall-clock time; use virtual time (Node.now)";
      d_everywhere = true };
    { d_pat = "Sys.time"; d_why = "process time; use virtual time (Node.now)";
      d_everywhere = true };
    { d_pat = "Obj.magic"; d_why = "defeats the type system; never on a protocol path";
      d_everywhere = true };
    { d_pat = "Unix.sleep";
      d_why = "blocks the host thread outside virtual time; use Retry.run or Sched.sleep";
      d_everywhere = true };
    { d_pat = "Unix.sleepf";
      d_why = "blocks the host thread outside virtual time; use Retry.run or Sched.sleep";
      d_everywhere = true };
    { d_pat = "Hashtbl.iter";
      d_why = "hash-order iteration is nondeterministic; use Ntcs_util.sorted_bindings";
      d_everywhere = false };
    { d_pat = "Hashtbl.fold";
      d_why = "hash-order iteration is nondeterministic; use Ntcs_util.sorted_bindings";
      d_everywhere = false };
  ]
