(** The Gateway module (§4): one portable piece of code bridging any set of
    networks.

    "The same Gateway module [can] be used for all networks and machines.
    The ability for each Gateway module to communicate with different
    networks is handled by the independent ComMods with which it binds."

    Gateways splice circuit legs by label, never talk to each other outside
    the chains (§4.2), and get all topology knowledge from the naming
    service, with which non-prime gateways register like any module (§4.1).
    Prime gateways adopt pre-assigned well-known addresses instead (§3.4). *)

(* lint: allow-file layering(Commod) — gateways bind full ComMods (§4.1). *)

open Ntcs_sim
open Ntcs_ipcs

type t

val create :
  Node.t ->
  name:string ->
  nets:Net.id list ->
  ?prime_addrs:(Net.id * Addr.t) list ->
  ?prime_phys:(Net.id * Phys_addr.t list) list ->
  unit ->
  t
(** A gateway for [nets]. Prime gateways pass their pre-assigned per-network
    addresses and fixed listening resources. *)

val serve : t -> unit -> unit
(** The gateway process body: bind one ComMod per network, adopt or
    register addresses, then park. Forwarding runs in the event of the ND
    reader that received the frame; opens run in worker processes. Spawn
    with [World.spawn]. *)
