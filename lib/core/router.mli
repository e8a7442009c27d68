(** Route planning for the IP-layer (§4.2): "decentralize the circuit
    routing and establishment, while centralizing the topological
    information in the naming service".

    The topology is the bipartite graph of networks and gateways; gateway
    ComMods register their attachments as naming-service attributes (§4.1).
    Prime gateways and the name server come from the well-known table so the
    naming service itself is reachable before anything has registered. *)

open Ntcs_sim
open Ntcs_ipcs

(** How a ComMod resolves addressing questions: ordinary modules answer
    through the NSP-layer, the Name Server from its own database. *)
type resolver = {
  rv_resolve : Addr.t -> (Ns_proto.entry, Errors.t) result;
  rv_gateways : unit -> (Ns_proto.entry list, Errors.t) result;
  rv_forward : Addr.t -> (Addr.t option, Errors.t) result;
}

(** {1 Gateway registration attributes} *)

val attr_gateway : string
val attr_net : string
val attr_spans : string

type gw_edge = {
  ge_addr : Addr.t;  (** the gateway ComMod's UAdd on the ingress network *)
  ge_phys : Phys_addr.t list;
  ge_in : Net.id;
  ge_spans : Net.id list;
}

val edge_of_entry : Ns_proto.entry -> gw_edge option

val routes :
  edges:gw_edge list -> from_nets:Net.id list -> to_nets:Net.id list -> gw_edge list list
(** All usable routes, one per distinct first-hop gateway ComMod, shortest
    continuation each, shortest overall first — the alternatives are what
    survive a dead first-choice bridge. *)

val locate :
  Node.t -> resolver -> Addr.t -> (Phys_addr.t list * Net.id list, Errors.t) result
(** Destination information: well-known table first (§3.4 bootstrap),
    resolver otherwise. *)

val plan :
  Node.t -> Nd_layer.t -> resolver -> dst:Addr.t -> (Ip_layer.target list, Errors.t) result
(** The IP-layer's oracle. Routes to well-known destinations use prime
    edges only: asking the naming service for the gateway list requires a
    route to the naming service — the recursion the well-known table exists
    to break. *)
