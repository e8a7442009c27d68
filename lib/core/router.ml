(* Route planning for the IP-layer (§4.2).

   "Our solution combines ideas from both centralized and decentralized
   internet schemes. The compromise was to decentralize the circuit routing
   and establishment, while centralizing the topological information in the
   naming service."

   The topology is the bipartite graph of networks and gateways; gateway
   ComMods register themselves with the naming service like any application
   module, carrying their network attachments as attributes ("while Gateways
   exist below, and *support* the naming service, their logical name and
   connected networks are *registered with* the naming service", §4.1).
   Prime gateways and the name server come from the well-known table so the
   naming service itself can be reached before any registration exists. *)

open Ntcs_sim
open Ntcs_ipcs

(* How the ComMod resolves addressing questions. Ordinary modules answer
   through the NSP-layer; the Name Server answers from its own database
   (it can hardly ask itself over the network). *)
type resolver = {
  rv_resolve : Addr.t -> (Ns_proto.entry, Errors.t) result;
  rv_gateways : unit -> (Ns_proto.entry list, Errors.t) result;
  rv_forward : Addr.t -> (Addr.t option, Errors.t) result;
}

(* Attribute keys under which gateway ComMods register. *)
let attr_gateway = "gateway"
let attr_net = "net" (* the network this ComMod serves *)
let attr_spans = "spans" (* every network the whole gateway bridges, csv *)

let parse_csv_ints s =
  String.split_on_char ',' s
  |> List.filter_map (fun x -> int_of_string_opt (String.trim x))

type gw_edge = {
  ge_addr : Addr.t; (* the gateway ComMod's UAdd on the ingress network *)
  ge_phys : Phys_addr.t list;
  ge_in : Net.id;
  ge_spans : Net.id list;
}

let edge_of_wk (wk : Node.well_known) =
  match wk.Node.wk_nets with
  | [] -> None
  | ingress :: _ ->
    Some
      {
        ge_addr = wk.Node.wk_addr;
        ge_phys = wk.Node.wk_phys;
        ge_in = ingress;
        ge_spans = wk.Node.wk_all_nets;
      }

let edge_of_entry (e : Ns_proto.entry) =
  match
    ( List.assoc_opt attr_net e.Ns_proto.e_attrs,
      List.assoc_opt attr_spans e.Ns_proto.e_attrs )
  with
  | Some net_s, Some spans_s -> (
    match int_of_string_opt net_s with
    | None -> None
    | Some ingress ->
      Some
        {
          ge_addr = e.Ns_proto.e_addr;
          ge_phys = List.filter_map Phys_addr.of_string e.Ns_proto.e_phys;
          ge_in = ingress;
          ge_spans = parse_csv_ints spans_s;
        })
  | _ -> None

(* Breadth-first search over networks from [seed_paths] (each a net and the
   gateway hops, newest first, that reached it), never entering a net in
   [seed_visited]. Returns the gateway hops to any of [to_nets]. *)
let bfs ~seed_visited ~seed_paths ~edges ~to_nets =
  let module S = Set.Make (Int) in
  let targets = S.of_list to_nets in
  let visited = ref (S.of_list seed_visited) in
  let q = Queue.create () in
  List.iter (fun (n, path) -> Queue.push (n, path) q) seed_paths;
  let result = ref None in
  (try
     while not (Queue.is_empty q) do
       let net, path = Queue.pop q in
       if S.mem net targets then begin
         result := Some (List.rev path);
         raise Exit
       end;
       List.iter
         (fun e ->
           if e.ge_in = net then
             List.iter
               (fun next ->
                 if next <> net && not (S.mem next !visited) then begin
                   visited := S.add next !visited;
                   Queue.push (next, e :: path) q
                 end)
               e.ge_spans)
         edges
     done
   with Exit -> ());
  !result

(* All usable routes, one per distinct first-hop gateway ComMod, shortest
   continuation each, shortest overall first. Alternatives matter for
   resilience: a dead first-choice gateway must not strand the module when a
   parallel bridge exists. *)
let routes ~edges ~from_nets ~to_nets =
  let firsts = List.filter (fun e -> List.mem e.ge_in from_nets) edges in
  let candidate (first : gw_edge) =
    if List.exists (fun n -> List.mem n to_nets) first.ge_spans then Some [ first ]
    else
      let entry_nets = List.filter (fun n -> n <> first.ge_in) first.ge_spans in
      bfs
        ~seed_visited:(first.ge_in :: from_nets)
        ~seed_paths:(List.map (fun n -> (n, [ first ])) entry_nets)
        ~edges ~to_nets
  in
  List.filter_map candidate firsts
  |> List.sort_uniq (fun a b ->
         match compare (List.length a) (List.length b) with
         | 0 -> compare (List.map (fun e -> e.ge_addr) a) (List.map (fun e -> e.ge_addr) b)
         | c -> c)

(* Information about a destination: from the well-known table first (the
   §3.4 bootstrap), from the resolver otherwise. *)
let locate node resolver dst =
  match
    List.find_opt (fun wk -> Addr.equal wk.Node.wk_addr dst) node.Node.config.Node.well_known
  with
  | Some wk -> Ok (wk.Node.wk_phys, wk.Node.wk_nets)
  | None -> (
    match resolver.rv_resolve dst with
    | Ok entry ->
      Ok (List.filter_map Phys_addr.of_string entry.Ns_proto.e_phys, entry.Ns_proto.e_nets)
    | Error _ as e -> e)

let is_well_known node dst =
  List.exists (fun wk -> Addr.equal wk.Node.wk_addr dst) node.Node.config.Node.well_known

let plan node (nd : Nd_layer.t) resolver ~dst =
  let my_nets =
    match nd.Nd_layer.allowed_nets with
    | Some nets -> nets
    | None -> Node.my_nets node
  in
  (* §3.3: "The ND-Layer maps from UAdd to physical address, either through
     the NSP-layer services, or by information exchanged between modules
     during the channel open protocol. This information is then locally
     cached." A cached physical address gives a direct attempt that needs no
     naming service at all; it is tried first and falls through to planned
     routes if stale. *)
  let nd_cached =
    match Nd_layer.lookup_phys nd dst with
    | Some phys when phys <> [] -> [ Ip_layer.T_direct phys ]
    | Some _ | None -> []
  in
  match locate node resolver dst with
  | Error _ when nd_cached <> [] -> Ok nd_cached
  | Error _ as e -> e
  | Ok (phys, dst_nets) ->
    let local = List.exists (fun n -> List.mem n my_nets) dst_nets in
    if local && phys <> [] then Ok (nd_cached @ [ Ip_layer.T_direct phys ])
    else begin
      (* Internetting: assemble topology from prime gateways + registered
         gateways and search. Routes to well-known destinations (the name
         server, prime gateways) must use prime edges ONLY: asking the
         naming service for the gateway list requires a route to the naming
         service — the very recursion the well-known table exists to break
         (§3.4). *)
      let prime_edges =
        List.filter_map
          (fun wk -> if wk.Node.wk_is_gateway then edge_of_wk wk else None)
          node.Node.config.Node.well_known
      in
      let registered_edges =
        if is_well_known node dst then []
        else begin
          match resolver.rv_gateways () with
          | Ok entries -> List.filter_map edge_of_entry entries
          | Error _ -> []
        end
      in
      (* Prefer registered (fresher) edges but keep primes for bootstrap.
         Drop duplicate edges (a prime gateway may also have registered). *)
      let edges =
        registered_edges @ prime_edges
        |> List.sort_uniq (fun a b -> Addr.compare a.ge_addr b.ge_addr)
      in
      match routes ~edges ~from_nets:my_nets ~to_nets:dst_nets with
      | [] -> if nd_cached <> [] then Ok nd_cached else Error Errors.Unreachable
      | paths ->
        Ok
          (nd_cached
          @ List.filter_map
              (fun path ->
                match path with
                | [] -> None
                | first :: _ ->
                  Some
                    (Ip_layer.T_via
                       { hops = List.map (fun e -> e.ge_addr) path;
                         first_phys = first.ge_phys }))
              paths)
    end
