(* Deployment builder: turns a declarative description of machines, networks
   and infrastructure modules into a running simulated NTCS installation —
   name server(s) up, prime gateways bridging networks, and a shared node
   configuration whose well-known table (§3.4) lets every later module
   bootstrap. This is the "hypothetical machine configuration" of the
   paper's figures, as a library. *)

open Ntcs_sim
open Ntcs_ipcs

type t = {
  world : World.t;
  ipcs : Registry.t;
  mutable config : Node.config;
  nets_by_name : (string, Net.t) Hashtbl.t;
  machines_by_name : (string, Machine.t) Hashtbl.t;
  mutable name_servers : Name_server.t list;
  mutable gateways : Gateway.t list;
  mutable ns_pids : Sched.pid list;
  mutable gw_pids : Sched.pid list;
}

let world t = t.world
let config t = t.config
let metrics t = World.obs t.world
let sched t = World.sched t.world

let net t name =
  match Hashtbl.find_opt t.nets_by_name name with
  | Some n -> n
  | None -> invalid_arg ("Cluster: unknown network " ^ name)

let machine t name =
  match Hashtbl.find_opt t.machines_by_name name with
  | Some m -> m
  | None -> invalid_arg ("Cluster: unknown machine " ^ name)

let net_id t name = (net t name).Net.id

(* Fixed resources for well-known module number [idx] on [machine]: one per
   IPCS kind the machine can speak. Ports/paths are pre-agreed constants —
   the operational reality behind "well known addresses". *)
let well_known_phys t (m : Machine.t) ~idx =
  let kinds =
    World.nets_of_machine t.world m.Machine.id
    |> List.map (fun nid ->
           match (World.net t.world nid).Net.kind with
           | Net.Tcp_lan | Net.Tcp_longhaul -> Phys_addr.K_tcp
           | Net.Mbx_ring -> Phys_addr.K_mbx)
    |> List.sort_uniq compare
  in
  List.map
    (fun kind ->
      match kind with
      | Phys_addr.K_tcp -> Phys_addr.tcp ~host:m.Machine.name ~port:(4000 + idx)
      | Phys_addr.K_mbx ->
        Phys_addr.mbx ~path:(Printf.sprintf "//%s/node_data/mbx/wk.%d" m.Machine.name idx))
    kinds

(* Fixed resource for one gateway ComMod: distinct per (gateway, network) —
   a gateway's ComMods each need their own listening resource even when two
   of its networks share an IPCS kind. *)
let gateway_phys t (m : Machine.t) ~idx ~net:nid =
  let net = World.net t.world nid in
  match net.Net.kind with
  | Net.Tcp_lan | Net.Tcp_longhaul ->
    [ Phys_addr.tcp ~host:m.Machine.name ~port:(4500 + (idx * 10) + nid) ]
  | Net.Mbx_ring ->
    [ Phys_addr.mbx
        ~path:(Printf.sprintf "//%s/node_data/mbx/gw.%d.net%d" m.Machine.name idx nid) ]

type gateway_spec = {
  gw_spec_name : string;
  gw_machine : string;
  gw_nets : string list;
}

let build ?world ?(config = World.Config.default) ?(tweak = fun c -> c) ~nets ~machines
    ?(clocks = []) ?(gateways = []) ~ns ?(ns_replicas = []) () =
  (* [world] hosts the cluster on an existing world — a [World.Par] shard,
     typically — and then [config] is ignored. *)
  let world = match world with Some w -> w | None -> World.create ~config () in
  let ipcs = Registry.create world in
  let t =
    {
      world;
      ipcs;
      config = Node.default_config;
      nets_by_name = Hashtbl.create 8;
      machines_by_name = Hashtbl.create 16;
      name_servers = [];
      gateways = [];
      ns_pids = [];
      gw_pids = [];
    }
  in
  List.iter
    (fun (name, kind) ->
      Hashtbl.replace t.nets_by_name name (World.add_net world ~name kind ()))
    nets;
  List.iter
    (fun (name, mtype, net_names) ->
      let drift_ppm, offset_us =
        match List.find_opt (fun (n, _, _) -> n = name) clocks with
        | Some (_, d, o) -> (d, o)
        | None -> (0., 0)
      in
      let m = World.add_machine world ~name mtype ~drift_ppm ~offset_us () in
      Hashtbl.replace t.machines_by_name name m;
      List.iter (fun nn -> World.attach world m (net t nn)) net_names)
    machines;
  (* Well-known table: name servers first, then prime gateways.

     The world's naming arm decides the shape of the naming plane: with
     [naming.shards > 1] the plane runs that many name servers — hosted
     round-robin over the given ns machines — under a pinned shard map
     where server [k] owns shard [k] (DESIGN.md §15). *)
  let naming = (World.config world).World.Config.naming in
  let ns_machines =
    let given = ns :: ns_replicas in
    let n = List.length given in
    if naming.World.Config.shards <= n then given
    else
      List.init naming.World.Config.shards (fun i -> List.nth given (i mod n))
  in
  let ns_entries =
    List.mapi
      (fun i mname ->
        let m = machine t mname in
        let addr = Addr.unique ~server_id:i ~value:0 in
        let phys = well_known_phys t m ~idx:i in
        let nets = World.nets_of_machine world m.Machine.id in
        ( i, m, addr, phys,
          {
            Node.wk_name = Printf.sprintf "name-server/%d" i;
            wk_addr = addr;
            wk_phys = phys;
            wk_nets = nets;
            wk_all_nets = nets;
            wk_is_name_server = true;
            wk_is_gateway = false;
          } ))
      ns_machines
  in
  let gw_specs =
    List.mapi
      (fun j (gname, gmachine, gnets) ->
        (j, { gw_spec_name = gname; gw_machine = gmachine; gw_nets = gnets }))
      gateways
  in
  let gw_entries =
    List.concat_map
      (fun (j, spec) ->
        let m = machine t spec.gw_machine in
        let all_net_ids = List.map (net_id t) spec.gw_nets in
        List.map
          (fun nname ->
            let nid = net_id t nname in
            let addr = Addr.unique ~server_id:(900 + j) ~value:nid in
            {
              Node.wk_name = Printf.sprintf "prime-gw/%s@%d" spec.gw_spec_name nid;
              wk_addr = addr;
              wk_phys = gateway_phys t m ~idx:j ~net:nid;
              wk_nets = [ nid ];
              wk_all_nets = all_net_ids;
              wk_is_name_server = false;
              wk_is_gateway = true;
            })
          spec.gw_nets)
      gw_specs
  in
  let well_known = List.map (fun (_, _, _, _, wk) -> wk) ns_entries @ gw_entries in
  let all_ns_addrs = List.map (fun (_, _, addr, _, _) -> addr) ns_entries in
  (* The pinned shard map every ComMod and every server agrees on: entry
     [k] is the well-known address of the server owning shard [k]. *)
  let ns_shards =
    if naming.World.Config.shards > 1 then Array.of_list all_ns_addrs else [||]
  in
  let shard_map =
    if naming.World.Config.shards > 1 then
      Some (Ntcs_naming.Shard_map.make ~version:1 (Array.of_list all_ns_addrs))
    else None
  in
  t.config <-
    tweak
      {
        Node.default_config with
        Node.well_known;
        ns_shards;
      };
  (* Spawn name servers. *)
  List.iter
    (fun (i, m, addr, phys, _) ->
      let node = Node.make ~config:t.config ~world ~ipcs ~machine:m () in
      let server =
        Name_server.create node ~server_id:i ~wk_addr:addr
          ~peers:(List.filter (fun a -> not (Addr.equal a addr)) all_ns_addrs)
          ?shard_map ()
      in
      t.name_servers <- t.name_servers @ [ server ];
      let pid =
        World.spawn world ~machine:m ~name:(Printf.sprintf "name-server/%d" i)
          (Name_server.serve ~fixed:phys server)
      in
      t.ns_pids <- t.ns_pids @ [ pid ])
    ns_entries;
  (* Spawn prime gateways. *)
  List.iter
    (fun (j, spec) ->
      let m = machine t spec.gw_machine in
      let node = Node.make ~config:t.config ~world ~ipcs ~machine:m () in
      let net_ids = List.map (net_id t) spec.gw_nets in
      let prime_addrs =
        List.map (fun nid -> (nid, Addr.unique ~server_id:(900 + j) ~value:nid)) net_ids
      in
      let prime_phys = List.map (fun nid -> (nid, gateway_phys t m ~idx:j ~net:nid)) net_ids in
      let gw = Gateway.create node ~name:spec.gw_spec_name ~nets:net_ids ~prime_addrs
                 ~prime_phys () in
      t.gateways <- t.gateways @ [ gw ];
      let pid =
        World.spawn world ~machine:m ~name:("gw/" ^ spec.gw_spec_name) (Gateway.serve gw)
      in
      t.gw_pids <- t.gw_pids @ [ pid ])
    gw_specs;
  t

(* Fresh per-process NTCS context on a machine. *)
let node_on ?config t machine_name =
  let config = match config with Some c -> c | None -> t.config in
  Node.make ~config ~world:t.world ~ipcs:t.ipcs ~machine:(machine t machine_name) ()

(* Spawn an application process; the body receives a fresh Node. *)
let spawn ?config t ~machine:machine_name ~name f =
  let node = node_on ?config t machine_name in
  World.spawn t.world ~machine:(machine t machine_name) ~name (fun () -> f node)

(* Advance virtual time by [dt] microseconds, executing everything due. *)
let settle ?(dt = 2_000_000) t = World.run ~until:(World.now t.world + dt) t.world

let name_servers t = t.name_servers
let primary_ns t = List.nth t.name_servers 0
let gateway_list t = t.gateways

let crash t machine_name = World.crash_machine t.world (machine t machine_name)
let partition t net_name = (net t net_name).Net.up <- false
let heal t net_name = (net t net_name).Net.up <- true
