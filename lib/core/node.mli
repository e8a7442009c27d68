(** Per-process NTCS context: everything a ComMod (or a gateway's several
    ComMods) needs to come up on a machine — the simulated world, the native
    IPCS stacks, configuration, and the well-known address table that solves
    the §3.4 bootstrap problem. *)

open Ntcs_sim

type well_known = {
  wk_name : string;  (** ["name-server/0"], ["prime-gw/<g>@<net>"] *)
  wk_addr : Addr.t;  (** pre-assigned UAdd, loaded into the address tables *)
  wk_phys : Ntcs_ipcs.Phys_addr.t list;  (** where to reach it *)
  wk_nets : Net.id list;  (** the networks this entry serves *)
  wk_all_nets : Net.id list;  (** for a gateway: every network it bridges *)
  wk_is_name_server : bool;
  wk_is_gateway : bool;
}

type config = {
  ns_fault_guard : bool;
      (** The §6.3 patch: the LCM address-fault handler special-cases the
          name server so a broken NS circuit cannot recurse through the
          NSP-layer. Disable to reproduce the paper's bug. *)
  recursion_limit : int;  (** simulated stack bound, per ComMod *)
  monitoring : bool;  (** LCM reports events to the monitor hook *)
  timestamps : bool;  (** monitor records use the (DRTS) time hook *)
  force_packed : bool;
      (** Ablation switch: always convert, never byte-copy (A1). *)
  ns_cache_ttl_us : int;  (** NSP-layer cache lifetime; 0 = no caching *)
  ns_shards : Addr.t array;
      (** pinned shard map of the naming plane: [ns_shards.(k)] is the
          well-known address of the name server owning shard [k]; empty =
          the classic single (or fully replicated) name server *)
  well_known : well_known list;
}

val default_config : config

val default_timeout_us : int
(** 3 s: the single default deadline for every ALI/LCM primitive and NSP
    request — a synchronous call's reply wait, an asynchronous send's
    retry/backoff budget. Explicit [?timeout_us] overrides per call. *)

(** DRTS hooks. Defaults are self-contained; the DRTS services replace them,
    at which point the NTCS uses services built on the NTCS — §6.1. *)
type hooks = {
  mutable timestamp : unit -> int;  (** corrected time for monitor records *)
  mutable on_event : (string -> string -> unit) option;  (** kind, detail *)
}

type t = {
  world : World.t;
  ipcs : Ntcs_ipcs.Registry.t;
  machine : Machine.t;
  config : config;
  hooks : hooks;
}

val make :
  ?config:config -> world:World.t -> ipcs:Ntcs_ipcs.Registry.t -> machine:Machine.t ->
  unit -> t

val world : t -> World.t
val sched : t -> Sched.t
val metrics : t -> Ntcs_obs.Registry.t
val machine : t -> Machine.t
val now : t -> int
val note : t -> cat:string -> actor:string -> Ntcs_obs.Span.detail -> unit
val record : t -> cat:string -> actor:string -> string -> unit

val my_order : t -> Ntcs_wire.Endian.order
(** This machine's native byte order. *)

val my_nets : t -> Net.id list
