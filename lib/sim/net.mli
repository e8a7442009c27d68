(** Simulated networks.

    Each network has a kind (constraining which native IPCS can run over
    it), a latency model, and an up/down flag for partition experiments.
    Networks are deliberately disjoint: crossing them requires an NTCS
    gateway, as in the paper. *)

type kind =
  | Tcp_lan  (** Ethernet-style LAN carrying Unix TCP *)
  | Mbx_ring  (** Apollo ring carrying MBX *)
  | Tcp_longhaul  (** slow wide-area TCP link *)

type id = int

type t = {
  id : id;
  name : string;
  kind : kind;
  latency_base_us : int;
  latency_per_kb_us : int;
  jitter_us : int;
  mutable up : bool;
  rng : Ntcs_util.Rng.t;
}

val make :
  id:id -> name:string -> kind:kind -> ?latency:int * int * int -> ?seed:int -> unit -> t

val latency : t -> size:int -> int option
(** Transit time for [size] bytes, or [None] when partitioned. Draws
    deterministic jitter from the network's own stream. *)
