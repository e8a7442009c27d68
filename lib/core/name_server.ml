(* The Name Server (§3): an active module maintaining the name/address
   database, itself "nothing more than an application built on the Nucleus".

   It binds a ComMod like everyone else, but with a resolver backed by its
   own database — the one place the recursion bottoms out. Its address is
   well known (§3.4); modules bootstrap to it through their preloaded
   address tables and TAdds.

   §3.5 forwarding logic is implemented as written: on a Forward query the
   server decides "whether the old UAdd is really inactive" (a liveness
   ping), maps "the old UAdd to its name, and then look[s] for a similar
   name in a newer module" — where "similar" honours the attribute-based
   naming the paper announces as its successor scheme (same "service"
   attribute counts as similar).

   Replication (§7): any number of peer name servers with distinct server
   ids; writes are pushed to peers as datagrams (eventual consistency).
   Replicas converge through these pushes alone: they start together,
   each holding only its self-entry, so a pull at boot could only reach a
   peer that is not serving yet.

   Sharding (DESIGN.md §15): with a pinned [Shard_map], server [i] is the
   authority for every name hashing to shard [i]. Lookups and
   registrations arriving at a non-owner are forwarded name-to-name to the
   owner over the NTCS itself (Internames style, one hop at most); if the
   owner is unreachable the non-owner answers from its replicated backup
   copy, marked unversioned. Each owner keeps an invalidation generation,
   bumped on every §3.5 invalidation-class mutation (relocation,
   deregistration, death detected by a Forward probe) and piggybacked on
   its answers so NSP-side caches can tell fresh from stale. Each bump
   changes exactly one name, and the answer also carries the names of the
   last [Ns_proto.change_log_length] bumps, so a client that kept up
   retires only those names. An unsharded server speaks the same protocol
   but always stamps generation 0 and sends no names. *)

let service_attr = "service" (* attribute used for "similar name" matching *)

type record = {
  mutable r_name : string;
  r_addr : Addr.t;
  mutable r_phys : string list;
  mutable r_nets : int list;
  mutable r_order : int;
  mutable r_attrs : (string * string) list;
  mutable r_alive : bool;
  mutable r_stamp : int; (* registration time (virtual us): "newer" = larger *)
}

type t = {
  node : Node.t;
  server_id : int;
  wk_addr : Addr.t;
  db : (Addr.t, record) Hashtbl.t;
  by_name : (string, record list) Hashtbl.t;
  (* name -> every record ever registered under it (small buckets). The
     index is what keeps lookups O(bucket) instead of a full database scan,
     so lookup cost does not grow with the number of names. *)
  peers : Addr.t list; (* other replicas' well-known addresses *)
  shard_map : Addr.t Ntcs_naming.Shard_map.t option;
  (* None = classic single/replicated server; Some = sharded naming plane,
     where this server is the authority for shard [server_id]. *)
  mutable inval_gen : int;
  (* invalidation generation of the shard this server owns; starts at 1 so
     0 stays the "unversioned answer" marker on the wire *)
  mutable changed : string list;
  (* the name each of the last [Ns_proto.change_log_length] bumps changed,
     newest first: element [i] is generation [inval_gen - i] *)
  mutable next_value : int;
  mutable commod : Commod.t option;
  ping_timeout_us : int;
  forward_timeout_us : int; (* shard-forward deadline: short, so a dead
                               owner degrades to a fallback answer fast *)
  shard_lookups : string; (* per-shard lookup counter, named once *)
}

let create node ~server_id ~wk_addr ?(peers = []) ?shard_map () =
  {
    node;
    server_id;
    wk_addr;
    db = Hashtbl.create 64;
    by_name = Hashtbl.create 64;
    peers;
    shard_map;
    inval_gen = 1;
    changed = [];
    next_value = 1;
    commod = None;
    ping_timeout_us = 400_000;
    forward_timeout_us = 600_000;
    shard_lookups =
      Printf.sprintf "ns.shard%d.lookups"
        (match shard_map with Some _ -> server_id | None -> 0);
  }

let metrics t = Node.metrics t.node

let entry_of_record (r : record) =
  {
    Ns_proto.e_name = r.r_name;
    e_addr = r.r_addr;
    e_phys = r.r_phys;
    e_nets = r.r_nets;
    e_order = r.r_order;
    e_attrs = r.r_attrs;
    e_alive = r.r_alive;
  }

let record_of_entry ~stamp (e : Ns_proto.entry) =
  {
    r_name = e.Ns_proto.e_name;
    r_addr = e.Ns_proto.e_addr;
    r_phys = e.Ns_proto.e_phys;
    r_nets = e.Ns_proto.e_nets;
    r_order = e.Ns_proto.e_order;
    r_attrs = e.Ns_proto.e_attrs;
    r_alive = e.Ns_proto.e_alive;
    r_stamp = stamp;
  }

let fresh_addr t =
  let v = t.next_value in
  t.next_value <- v + 1;
  Addr.unique ~server_id:t.server_id ~value:v

(* --- the sharded naming plane (DESIGN.md §15) --- *)

let my_shard t = match t.shard_map with Some _ -> t.server_id | None -> 0

let shard_of_name t name =
  match t.shard_map with
  | Some m -> Ntcs_naming.Shard_map.shard_of_name m name
  | None -> 0

let owns t name =
  match t.shard_map with
  | Some m -> Ntcs_naming.Shard_map.shard_of_name m name = t.server_id
  | None -> true

let generation t = t.inval_gen

let shard_of_addr t addr = Option.bind t.shard_map (fun m -> Ns_proto.shard_of_addr m addr)

(* The [(shard, gen, changed)] stamp on a versioned answer about
   something in [shard]: only the shard's owner in a sharded plane stamps
   its invalidation generation and its recent changes. Backup copies,
   addresses outside the map and unsharded servers answer gen 0 with no
   names — cacheable, but never moving a client's floor. *)
let stamp t shard =
  match (t.shard_map, shard) with
  | Some _, Some s when s = t.server_id -> (s, t.inval_gen, t.changed)
  | Some _, Some s -> (s, 0, [])
  | _ -> (my_shard t, 0, [])

(* An invalidation-class mutation of [name] happened in the shard this
   server owns: cached answers about [name] issued before it are now
   suspect. The new generation and the name ride on subsequent versioned
   answers; NSP caches retire that name's entries, or the whole shard
   when they missed more than [Ns_proto.change_log_length] generations.
   [what] is the kind of mutation and [addr] the address that died, for
   the trace: "shard <s> gen <g>: <what> <name>[ (<addr>)]". *)
let bump_gen t ~what ?addr name =
  t.inval_gen <- t.inval_gen + 1;
  t.changed <-
    name :: List.filteri (fun i _ -> i < Ns_proto.change_log_length - 1) t.changed;
  Ntcs_obs.Registry.incr (metrics t) "ns.invalidations";
  Node.note t.node ~cat:"ns.shard.gen" ~actor:"name-server"
    (Ntcs_obs.Span.Shard_gen
       { shard = my_shard t; gen = t.inval_gen; what; name;
         addr = Option.map Addr.to_string addr })

(* --- the name index --- *)

let index_add t r =
  let rest =
    match Hashtbl.find_opt t.by_name r.r_name with Some rs -> rs | None -> []
  in
  Hashtbl.replace t.by_name r.r_name (r :: rest)

let index_remove t ~name ~addr =
  match Hashtbl.find_opt t.by_name name with
  | None -> ()
  | Some rs -> (
    match List.filter (fun r -> not (Addr.equal r.r_addr addr)) rs with
    | [] -> Hashtbl.remove t.by_name name
    | rs' -> Hashtbl.replace t.by_name name rs')

(* The one write path into the database: keeps [by_name] exactly in step,
   including a replicated record changing the name attached to an address. *)
let db_insert t r =
  (match Hashtbl.find_opt t.db r.r_addr with
   | Some old -> index_remove t ~name:old.r_name ~addr:old.r_addr
   | None -> ());
  Hashtbl.replace t.db r.r_addr r;
  index_add t r

(* --- queries over the database --- *)

(* Full-database walks below go through [sorted_bindings]: query answers
   (and hence tie-breaks on equal stamps) must not depend on hash-table
   layout. [find_by_name] reads one index bucket instead, with an
   order-independent best-record fold: newest stamp wins, lowest address
   breaks ties — the same answer the sorted full scan used to produce. *)

let find_by_name t name =
  match Hashtbl.find_opt t.by_name name with
  | None -> None
  | Some rs ->
    List.fold_left
      (fun best r ->
        if not r.r_alive then best
        else
          match best with
          | Some b
            when b.r_stamp > r.r_stamp
                 || (b.r_stamp = r.r_stamp && Addr.compare b.r_addr r.r_addr <= 0) ->
            best
          | Some _ | None -> Some r)
      None rs

let matches_attrs (r : record) attrs =
  List.for_all
    (fun (k, v) ->
      match List.assoc_opt k r.r_attrs with
      | Some v' -> String.equal v v'
      | None -> false)
    attrs

let find_by_attrs t attrs =
  Ntcs_util.sorted_bindings ~compare:Addr.compare t.db
  |> List.filter_map (fun (_, r) ->
         if r.r_alive && matches_attrs r attrs then Some r else None)
  |> List.stable_sort (fun a b -> compare a.r_stamp b.r_stamp)

(* "Looking for a similar name in a newer module": same name, or same
   service attribute, strictly newer, still alive. *)
let find_replacement t (old : record) =
  let similar (r : record) =
    String.equal r.r_name old.r_name
    ||
    match (List.assoc_opt service_attr r.r_attrs, List.assoc_opt service_attr old.r_attrs) with
    | Some a, Some b -> String.equal a b
    | _ -> false
  in
  List.fold_left
    (fun best (_, r) ->
      if r.r_alive && r.r_stamp > old.r_stamp && (not (Addr.equal r.r_addr old.r_addr))
         && similar r
      then begin
        match best with
        | Some b when b.r_stamp >= r.r_stamp -> best
        | Some _ | None -> Some r
      end
      else best)
    None
    (Ntcs_util.sorted_bindings ~compare:Addr.compare t.db)

let gateway_records t =
  Ntcs_util.sorted_bindings ~compare:Addr.compare t.db
  |> List.filter_map (fun (_, r) ->
         if r.r_alive && List.assoc_opt Router.attr_gateway r.r_attrs = Some "yes" then Some r
         else None)

(* --- replication --- *)

let push_to_peers t records =
  match t.commod with
  | None -> ()
  | Some commod ->
    let payload =
      Ntcs_wire.Convert.payload_raw
        (Ntcs_wire.Packed.run_pack Ns_proto.request_codec
           (Ns_proto.Sync_push (List.map (fun r -> (r.r_stamp, entry_of_record r)) records)))
    in
    List.iter
      (fun peer ->
        if not (Addr.equal peer t.wk_addr) then
          ignore
            (Lcm_layer.send_dgram (Commod.lcm commod) ~dst:peer ~app_tag:Ns_proto.app_tag
               payload))
      t.peers

let merge_entry t (stamp, entry) =
  let addr = entry.Ns_proto.e_addr in
  match Hashtbl.find_opt t.db addr with
  | Some existing when existing.r_stamp >= stamp -> ()
  | Some _ | None ->
    let r = record_of_entry ~stamp entry in
    (* An invalidation-class change replicated from a peer — a death, or a
       live binding superseding another address — lands in a shard this
       server owns: the generation must move, or cached copies of the old
       answer would outlive it. *)
    if
      owns t r.r_name
      && ((not r.r_alive)
         ||
         match find_by_name t r.r_name with
         | Some prev -> not (Addr.equal prev.r_addr addr)
         | None -> false)
    then bump_gen t ~what:"merge" r.r_name;
    db_insert t r

(* --- request handling --- *)

let is_alive t ?commod (r : record) =
  (* "first determining whether the old UAdd is really inactive" — probe it.
     The ping rides the NTCS itself (recursion), with monitoring suppressed.
     Without a ComMod (offline benches) the database's word stands. *)
  r.r_alive
  &&
  match commod with
  | None -> true
  | Some commod ->
    Lcm_layer.without_monitoring (Commod.lcm commod) (fun () ->
        match
          Lcm_layer.ping (Commod.lcm commod) ~dst:r.r_addr ~timeout_us:t.ping_timeout_us
        with
        | Ok () -> true
        | Error _ -> false)

(* One shard-to-shard hop over the NTCS itself: forward [req] to the
   shard's [owner] and relay its answer verbatim (generations included).
   Monitoring is suppressed like the liveness pings; the deadline is short
   so a dead owner degrades into a fallback answer quickly. *)
let forward_to_shard t commod ~owner req =
  let lcm = Commod.lcm commod in
  Lcm_layer.without_monitoring lcm (fun () ->
      Lcm_layer.call lcm ~dst:owner ~app_tag:Ns_proto.app_tag ~timeout_us:t.forward_timeout_us
        Ns_proto.request_codec Ns_proto.response_codec req)

(* Shard-router wrapper around a request for [name] that this server does
   not own: one forward to the owner; on failure, answer from the local
   replicated backup via [local] (marked unversioned by the caller). *)
let route t ?commod ~name ~hop_note req local =
  match (t.shard_map, commod) with
  | None, _ | _, None -> local ()
  | Some m, Some commod -> (
    let shard = shard_of_name t name in
    Ntcs_obs.Registry.incr (metrics t) "ns.shard.forwards";
    Node.note t.node ~cat:"ns.shard.forward" ~actor:"name-server"
      (Ntcs_obs.Span.Shard_hop { name; from_shard = my_shard t; to_shard = shard; hop = hop_note });
    match forward_to_shard t commod ~owner:(Ntcs_naming.Shard_map.owner m shard) req with
    | Ok resp -> resp
    | Error _ ->
      Ntcs_obs.Registry.incr (metrics t) "ns.shard.fallbacks";
      Node.record t.node ~cat:"ns.shard.fallback" ~actor:"name-server"
        (Printf.sprintf "%s: shard %d answering for %d" name (my_shard t) shard);
      local ())

let handle_request t ?commod (req : Ns_proto.request) =
  match req with
  | Ns_proto.Register { r_name; r_phys; r_nets; r_order; r_attrs } ->
    let do_register () =
      let addr = fresh_addr t in
      let record =
        {
          r_name;
          r_addr = addr;
          r_phys;
          r_nets;
          r_order;
          r_attrs;
          r_alive = true;
          r_stamp = Node.now t.node;
        }
      in
      (* A live binding already answering for this name means the new
         registration is a §3.5 relocation: cached copies of the old
         answer must die, so the generation moves. *)
      (match find_by_name t r_name with
       | Some prev when owns t r_name && not (Addr.equal prev.r_addr addr) ->
         bump_gen t ~what:"re-register" r_name
       | _ -> ());
      db_insert t record;
      Ntcs_obs.Registry.incr (metrics t) "ns.registrations";
      Node.record t.node ~cat:"ns.register" ~actor:"name-server"
        (Printf.sprintf "%s -> %s" r_name (Addr.to_string addr));
      push_to_peers t [ record ];
      Ns_proto.R_registered addr
    in
    (* Foreign clients skip the NSP's check: refuse a name the ns.* trace
       details could not carry. *)
    if not (Ns_proto.valid_name r_name) then Ns_proto.R_error "invalid-name"
    else if owns t r_name then do_register ()
    else route t ?commod ~name:r_name ~hop_note:1 req do_register
  | Ns_proto.Lookup_v (name, hops) ->
    Ntcs_obs.Registry.incr (metrics t) "ns.lookups";
    Ntcs_obs.Registry.incr (metrics t) t.shard_lookups;
    let local () =
      match find_by_name t name with
      | Some r ->
        let shard, gen, changed = stamp t (Some (shard_of_name t name)) in
        Ns_proto.R_addr_v (r.r_addr, shard, gen, changed)
      | None -> Ns_proto.R_error "unknown-name"
    in
    if owns t name || hops >= 1 then local ()
    else route t ?commod ~name ~hop_note:(hops + 1) (Ns_proto.Lookup_v (name, hops + 1)) local
  | Ns_proto.Lookup_attrs attrs ->
    Ntcs_obs.Registry.incr (metrics t) "ns.attr_lookups";
    Ns_proto.R_entries (List.map entry_of_record (find_by_attrs t attrs))
  | Ns_proto.Resolve_v addr -> (
    Ntcs_obs.Registry.incr (metrics t) "ns.resolves";
    match Hashtbl.find_opt t.db addr with
    | Some r ->
      let shard, gen, changed = stamp t (shard_of_addr t addr) in
      Ns_proto.R_entry_v (entry_of_record r, shard, gen, changed)
    | None -> Ns_proto.R_error "unknown-address")
  | Ns_proto.Forward old_addr -> (
    Ntcs_obs.Registry.incr (metrics t) "ns.forward_queries";
    match Hashtbl.find_opt t.db old_addr with
    | None -> Ns_proto.R_error "unknown-address"
    | Some old ->
      if is_alive t ?commod old then Ns_proto.R_forward None
      else begin
        if old.r_alive then begin
          old.r_alive <- false;
          if owns t old.r_name then bump_gen t ~what:"dead" ~addr:old_addr old.r_name
        end;
        match find_replacement t old with
        | Some fresh ->
          Node.record t.node ~cat:"ns.forward" ~actor:"name-server"
            (Printf.sprintf "%s -> %s" (Addr.to_string old_addr) (Addr.to_string fresh.r_addr));
          Ns_proto.R_forward (Some fresh.r_addr)
        | None -> Ns_proto.R_error "destination-dead"
      end)
  | Ns_proto.Deregister addr -> (
    match Hashtbl.find_opt t.db addr with
    | None -> Ns_proto.R_ok
    | Some r ->
      if r.r_alive && owns t r.r_name then bump_gen t ~what:"deregister" r.r_name;
      r.r_alive <- false;
      r.r_stamp <- Node.now t.node;
      push_to_peers t [ r ];
      Ns_proto.R_ok)
  | Ns_proto.List_gateways -> Ns_proto.R_entries (List.map entry_of_record (gateway_records t))
  | Ns_proto.Sync_push entries ->
    List.iter (merge_entry t) entries;
    Ns_proto.R_ok

(* The Name Server's resolver answers from its own database: no pings here —
   a fault inside the server's own sends must not recurse into more sends. *)
let local_resolver t =
  {
    Router.rv_resolve =
      (fun addr ->
        match Hashtbl.find_opt t.db addr with
        | Some r -> Ok (entry_of_record r)
        | None -> Error Errors.Unknown_address);
    rv_gateways = (fun () -> Ok (List.map entry_of_record (gateway_records t)));
    rv_forward =
      (fun addr ->
        match Hashtbl.find_opt t.db addr with
        | None -> Error Errors.Unknown_address
        | Some old -> (
          match find_replacement t old with
          | Some fresh -> Ok (Some fresh.r_addr)
          | None -> Ok None));
  }

(* Body of the Name Server process. Spawn with [World.spawn]. [fixed] are
   the pre-agreed physical addresses every ComMod's well-known table points
   at (§3.4). *)
let serve ?fixed t () =
  let commod =
    Commod.bind_with_resolver ?fixed t.node
      ~name:(Printf.sprintf "name-server.%d" t.server_id)
      ~resolver:(local_resolver t)
  in
  (* The server's address is well known: no registration, just adopt it. *)
  Nd_layer.set_my_addr (Commod.nd commod) t.wk_addr;
  t.commod <- Some commod;
  (* Self-entry, so lookups and liveness checks can see the server itself. *)
  db_insert t
    {
      r_name = "name-server";
      r_addr = t.wk_addr;
      r_phys = List.map Ntcs_ipcs.Phys_addr.to_string (Nd_layer.my_listen_addrs (Commod.nd commod));
      r_nets = Node.my_nets t.node;
      r_order = Proto.order_to_int (Node.my_order t.node);
      r_attrs = [ ("service", "name-server") ];
      r_alive = true;
      r_stamp = Node.now t.node;
    };
  let open Ntcs_wire in
  Lcm_layer.serve (Commod.lcm commod) ~app_tag:Ns_proto.app_tag (fun env ->
      match Packed.run_unpack_result Ns_proto.request_codec env.Lcm_layer.data with
      | Error m ->
        Node.record t.node ~cat:"ns.bad_request" ~actor:"name-server" m;
        None
      | Ok req ->
        let resp = handle_request t ~commod req in
        (* Replication pushes are datagrams: nothing to pack. *)
        if env.Lcm_layer.conv = 0 then None
        else Some (Packed.run_pack Ns_proto.response_codec resp))

(* Bulk-load bindings straight into the database, bypassing the protocol:
   benches populate 10^6-name databases this way (registering each over the
   wire would drown the measurement in transport costs). *)
let preload t names =
  let stamp = Node.now t.node in
  List.iter
    (fun (name, attrs) ->
      let addr = fresh_addr t in
      db_insert t
        {
          r_name = name;
          r_addr = addr;
          r_phys = [];
          r_nets = [];
          r_order = 0;
          r_attrs = attrs;
          r_alive = true;
          r_stamp = stamp;
        })
    names

let dump t =
  (* Keys are the record addresses, so sorted bindings are already in
     address order. *)
  List.map (fun (_, r) -> entry_of_record r)
    (Ntcs_util.sorted_bindings ~compare:Addr.compare t.db)
