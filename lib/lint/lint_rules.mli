(** The repo-specific lint policy: layer ranks, restricted-module
    allowlists, and determinism-threatening call patterns. *)

val rank_of : string -> int option
(** Layer rank of a module name, following the paper's stack: 7
    applications, 6 ALI/ComMod, 5 NSP, 4 LCM, 3 IP/Gateway/Router, 2 ND,
    1 STD-IF, 0 IPCS backends. [None] = common substrate, unconstrained. *)

val layer_name : int -> string

val module_of_file : string -> string
(** ["lib/core/lcm_layer.ml"] -> ["Lcm_layer"]. *)

val protocol_path : string -> bool
(** Is this file on the message path (lib/core, lib/ipcs, lib/sim,
    lib/drts, lib/ursa)? Hash-order iteration is forbidden there. *)

val may_name_ipcs_backend : string -> bool
(** May this file name [Ipcs_tcp]/[Ipcs_mbx]? True for lib/ipcs itself,
    [Std_if] and [Nd_layer]. *)

val ipcs_backends : string list

val may_select_conversion : string -> bool
(** May this file call [Convert.choose]/[Convert.force]? True for lib/wire
    (mechanism) and [Ip_layer] (policy, §5). *)

val conversion_selectors : string list

val may_sleep : string -> bool
(** May this file call [Sched.sleep] directly? False only inside lib/core,
    where all backoff belongs to the [Retry] policy module. *)

val sleep_calls : string list

val may_copy_frames : string -> bool
(** May this file call a {!copy_calls} function? False inside lib/core and
    lib/ipcs — the frame pipeline is zero-copy — except for [Proto], which
    owns the sanctioned materialisation points. *)

val copy_calls : string list

val pragma_rules : string list
(** Rule IDs a [lint: allow] pragma may name: the rules that read
    pragmas. Any other name makes the pragma malformed. *)

val mutable_ctors : string list
(** Constructors whose result, bound by a module-level [let], is ambient
    mutable state (R8): [ref], the table/pool/queue makers, … *)

val machine_path : string -> bool
(** Is this file per-machine code (lib/core, lib/ipcs, lib/drts,
    lib/ursa) — a domain work item under parallel-world execution? An
    ambient global is an R8 violation exactly when reachable from here. *)

val field_scope : string -> [ `Machine_local | `World_local ]
(** Ownership class of a mutable record field declared in this file:
    instances of per-machine records belong to a machine's stack,
    everything else to the world (or tool) holding the instance. *)

type det_rule = { d_pat : string; d_why : string; d_everywhere : bool }

val det_rules : det_rule list
