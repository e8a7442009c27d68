(** The communication module (§2.1): "Each application process must bind
    with a passive communication module (ComMod), which is the only aspect
    of the NTCS visible to the application. To the application, the ComMod
    is the NTCS."

    {!bind} assembles the layers bottom-up (ND → IP → LCM → NSP), wires the
    recursive couplings (the routing and fault oracles go through the
    NSP-layer, which itself sends through the LCM-layer), preloads the
    well-known address tables (§3.4), registers the module's name and
    upgrades the self-assigned TAdd to the returned UAdd.

    The Name Server binds with {!bind_with_resolver}, supplying a resolver
    backed by its own database: the naming service is an application on the
    Nucleus, used by the Nucleus. *)

open Ntcs_sim

type t

(** {1 Construction} *)

val bind :
  ?attrs:(string * string) list ->
  ?allowed_nets:Net.id list ->
  ?fixed:Ntcs_ipcs.Phys_addr.t list ->
  ?register_name:bool ->
  Node.t ->
  name:string ->
  (t, Errors.t) result
(** Assemble and (unless [register_name:false]) register. Must run inside
    the owning process; module death automatically aborts its circuits. *)

val bind_with_resolver :
  ?allowed_nets:Net.id list ->
  ?fixed:Ntcs_ipcs.Phys_addr.t list ->
  Node.t ->
  name:string ->
  resolver:Router.resolver ->
  t

val register : t -> attrs:(string * string) list -> (Addr.t, Errors.t) result
(** The §3.2 registration step, for ComMods bound without it. *)

val close : t -> unit
(** Deregister (when registered) and shut the layer stack down. *)

(** {1 Accessors} *)

val node : t -> Node.t
val nd : t -> Nd_layer.t
val ip : t -> Ip_layer.t
val lcm : t -> Lcm_layer.t
val name : t -> string
val resolver : t -> Router.resolver

val nsp_exn : t -> Nsp_layer.t
(** Raises [Invalid_argument] on a resolver-bound ComMod (the name
    server's). *)

val my_addr : t -> Addr.t
(** Current self-address: a TAdd before registration, the UAdd after. *)
