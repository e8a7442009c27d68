(** The repo-specific lint policy: layer ranks, restricted-module
    allowlists, and determinism-threatening call patterns. *)

val rank_of : string -> int option
(** Layer rank of a module name, following the paper's stack: 7
    applications, 6 ALI/ComMod, 5 NSP, 4 LCM, 3 IP/Gateway/Router, 2 ND,
    1 STD-IF, 0 IPCS backends. [None] = common substrate, unconstrained. *)

val layer_name : int -> string

val module_of_file : string -> string
(** ["lib/core/lcm_layer.ml"] -> ["Lcm_layer"]. *)

val may_name_ipcs_backend : string -> bool
(** May this file name [Ipcs_tcp]/[Ipcs_mbx]? True for lib/ipcs itself,
    [Std_if] and [Nd_layer]. *)

val ipcs_backends : string list

val pragma_rules : string list
(** Rule IDs a [lint: allow] pragma may name: the rules that read
    pragmas. Any other name makes the pragma malformed. *)

val mutable_ctors : string list
(** Constructors whose result, bound by a module-level [let], is ambient
    mutable state (R8): [ref], the table/pool/queue makers, … *)

type forbidden = {
  f_rule : string;  (** ["layering"], ["determinism"] or ["copies"] *)
  f_path : string;  (** dotted path, matched exactly, e.g. [Hashtbl.iter] *)
  f_applies : string -> bool;  (** is the path forbidden in this file? *)
  f_msg : string -> string;  (** the message, given the file's module *)
}

val forbidden : forbidden list
(** Paths a file may not name outside their scope: conversion-mode
    selection outside [Ip_layer] and lib/wire and [Sched.sleep] in lib/core
    outside [Retry] (R1); wall clocks, unseeded randomness, [Obj.magic]
    and, on protocol paths, hash-order iteration (R2); byte copies in
    lib/core and lib/ipcs outside [Proto] (R5). *)
