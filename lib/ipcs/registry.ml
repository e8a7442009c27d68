(* One instance of each native IPCS per simulated world. The NTCS node
   bootstrap hands the right stack to each ND-layer instance based on the
   physical address kind it must speak. *)

type t = {
  world : Ntcs_sim.World.t;
  tcp : Ipcs_tcp.t;
  mbx : Ipcs_mbx.t;
  mutable next_port : int;
  mutable next_mbx_id : int;
  mutable next_label : int;
}

let create world =
  { world; tcp = Ipcs_tcp.create world; mbx = Ipcs_mbx.create world;
    next_port = 5000; next_mbx_id = 1; next_label = 1 }

(* World-unique small integers for internet-virtual-circuit leg labels (a
   real implementation would negotiate per-channel label spaces; a global
   counter gives the same guarantee with none of the bookkeeping). *)
let fresh_label t =
  let l = t.next_label in
  t.next_label <- l + 1;
  l

(* World-wide allocators for communication resources, so no two modules ever
   collide on a port or mailbox pathname. *)
let fresh_port t =
  let p = t.next_port in
  t.next_port <- p + 1;
  p

let fresh_mbx_path t ~(machine : Ntcs_sim.Machine.t) ~hint =
  let id = t.next_mbx_id in
  t.next_mbx_id <- id + 1;
  Printf.sprintf "//%s/node_data/mbx/%s.%d" machine.name hint id

let tcp t = t.tcp
let mbx t = t.mbx
