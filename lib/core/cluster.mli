(** Deployment builder: a declarative description of machines, networks and
    infrastructure becomes a running NTCS installation — name server(s) up,
    prime gateways bridging networks, and a shared node configuration whose
    well-known table (§3.4) lets every later module bootstrap. The
    "hypothetical machine configuration" of the paper's figures, as a
    library. *)

open Ntcs_sim

type t

val build :
  ?world:World.t ->
  ?config:World.Config.t ->
  ?tweak:(Node.config -> Node.config) ->
  nets:(string * Net.kind) list ->
  machines:(string * Machine.mtype * string list) list ->
  ?clocks:(string * float * int) list ->
  ?gateways:(string * string * string list) list ->
  ns:string ->
  ?ns_replicas:string list ->
  unit ->
  t
(** [build ~nets ~machines ~ns ()] creates the world and spawns the
    infrastructure.
    - [machines]: (name, type, attached network names);
    - [clocks]: per-machine (name, drift ppm, offset µs);
    - [gateways]: (gateway name, hosting machine, bridged network names) —
      all prime (well-known);
    - [ns] / [ns_replicas]: machines hosting the name server(s);
    - [tweak] adjusts the node configuration (guards, timeouts, ablations);
    - [config] is the full {!World.Config} (seed, fault plane, chooser,
      …), default {!World.Config.default};
    - [world] hosts the cluster on an existing world — a {!World.Par}
      shard, typically — and then [config] is ignored.

    Call {!settle} afterwards to let the infrastructure boot. *)

(** {1 Accessors} *)

val world : t -> World.t
val config : t -> Node.config
val metrics : t -> Ntcs_obs.Registry.t
val sched : t -> Sched.t
val net : t -> string -> Net.t
val machine : t -> string -> Machine.t
val net_id : t -> string -> Net.id
val name_servers : t -> Name_server.t list
val primary_ns : t -> Name_server.t
val gateway_list : t -> Gateway.t list

(** {1 Application modules} *)

val spawn :
  ?config:Node.config -> t -> machine:string -> name:string -> (Node.t -> unit) -> Sched.pid
(** Spawn an application process; the body receives a fresh Node. *)

(** {1 Running and failure injection} *)

val settle : ?dt:int -> t -> unit
(** Advance virtual time by [dt] µs (default 2 s), executing everything
    due. *)

val crash : t -> string -> unit
(** Crash a machine: mark it down and kill its processes. *)

val partition : t -> string -> unit
(** Take a network down. *)

val heal : t -> string -> unit

val gateway_phys :
  t -> Machine.t -> idx:int -> net:Net.id -> Ntcs_ipcs.Phys_addr.t list
(** The fixed listening resources of a (gateway, network) pair — exposed for
    tests that construct gateways manually. *)
