(* Simulated networks. Each network has a kind (which constrains the native
   IPCS that can run over it), a latency model and an up/down flag for
   partition experiments. Networks are deliberately disjoint: crossing them
   requires an NTCS gateway, exactly as in the paper. *)

type kind =
  | Tcp_lan (* Ethernet-style LAN carrying Unix TCP *)
  | Mbx_ring (* Apollo ring carrying MBX *)
  | Tcp_longhaul (* slow wide-area TCP link *)

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

let default_latency = function
  | Tcp_lan -> (300, 80, 60)
  | Mbx_ring -> (150, 40, 20)
  | Tcp_longhaul -> (20_000, 400, 4_000)

let make ~id ~name ~kind ?latency ?(seed = 7) () =
  let base, per_kb, jitter =
    match latency with Some l -> l | None -> default_latency kind
  in
  {
    id;
    name;
    kind;
    latency_base_us = base;
    latency_per_kb_us = per_kb;
    jitter_us = jitter;
    up = true;
    rng = Ntcs_util.Rng.create (seed + id);
  }

(* Transit time for [size] bytes, or None when the network is partitioned. *)
let latency t ~size =
  if not t.up then None
  else begin
    let jitter = if t.jitter_us = 0 then 0 else Ntcs_util.Rng.int t.rng (t.jitter_us + 1) in
    Some (t.latency_base_us + (size * t.latency_per_kb_us / 1024) + jitter)
  end
