(* The Name Service Protocol layer (§2.4, §3).

   "The NSP-Layer is the single naming service access point for all layers
   within the ComMod. Its purpose is to fully isolate the ComMod from the
   naming service implementation."

   It talks to the Name Server with the ordinary LCM primitives — which is
   what forces the Nucleus to operate recursively (§3.1) — using the
   well-known name-server addresses from the node configuration to bootstrap
   (§3.4). With replicated name servers (§7) it simply fails over through
   the candidate list. Results are cached; the caches are what let the
   system keep running with the name server removed (§3.3, E1).

   Lookups and resolves speak the one versioned naming protocol (DESIGN.md
   §15), and the caches are the versioned [Ntcs_naming.Ns_cache]: every
   entry remembers which shard answered, at which invalidation generation
   and for which name. Each answer's generation and recently changed names
   retire exactly those names' entries, or the whole shard when the cache
   missed more generations than the answer lists. A stale cache hit
   resolves to a miss plus a fresh lookup — never a delivery on the old
   circuit; §3.5 relocation events (forward queries, the LCM relocation
   hook) splice-repair cached names in place. Under a sharded plane,
   requests for a name are routed owner-first through the pinned shard
   map; an unsharded server answers every lookup with generation 0, so
   its clients' floors never move. *)

open Ntcs_wire
module Ns_cache = Ntcs_naming.Ns_cache
module Shard_map = Ntcs_naming.Shard_map

type t = {
  node : Node.t;
  lcm : Lcm_layer.t;
  rng : Ntcs_util.Rng.t; (* private stream for backoff jitter *)
  owner : string; (* actor name on ns.cache.* trace events *)
  candidates : Addr.t list; (* well-known NS addresses, primary first *)
  shard_map : Addr.t Shard_map.t option; (* pinned map; None = unsharded *)
  name_cache : (string, Addr.t) Ns_cache.t;
  entry_cache : (Addr.t, Ns_proto.entry) Ns_cache.t;
  mutable gw_cache : (Ns_proto.entry list * int) option;
  mutable last_good : Addr.t option; (* which replica answered last *)
}

let create ?(owner = "nsp") node lcm =
  let candidates =
    node.Node.config.Node.well_known
    |> List.filter (fun wk -> wk.Node.wk_is_name_server)
    |> List.map (fun wk -> wk.Node.wk_addr)
  in
  (match candidates with
   | ns :: _ -> Lcm_layer.set_ns_addr lcm ns
   | [] -> ());
  let shards = node.Node.config.Node.ns_shards in
  let shard_map =
    if Array.length shards > 1 then Some (Shard_map.make ~version:1 shards) else None
  in
  let nshards = max 1 (Array.length shards) in
  let capacity =
    (Ntcs_sim.World.config (Node.world node)).Ntcs_sim.World.Config.naming
      .Ntcs_sim.World.Config.cache_capacity
  in
  {
    node;
    lcm;
    rng = Ntcs_util.Rng.split (Ntcs_sim.World.rng (Node.world node));
    owner;
    candidates;
    shard_map;
    name_cache = Ns_cache.create ~capacity ~nshards;
    entry_cache = Ns_cache.create ~capacity ~nshards;
    gw_cache = None;
    last_good = None;
  }

let metrics t = Node.metrics t.node

let ttl t = t.node.Node.config.Node.ns_cache_ttl_us

(* The cache-coherence trace (Check_trace): hit / stale / store / invalidate
   events, emitted only under a sharded naming plane so classic single-NS
   traces are unchanged. *)
let cache_event t cat detail =
  if t.shard_map <> None then Node.note t.node ~cat ~actor:t.owner detail

(* A hit, stale hit or store of [key], a [kind] ("name" or "addr") key. *)
let entry_event t cat kind key ~shard ~gen =
  if t.shard_map <> None then
    Node.note t.node ~cat ~actor:t.owner (Ntcs_obs.Span.Cache_entry { kind; key; shard; gen })

(* Fold a versioned answer's stamp into both caches. Retired entries are
   invalidated lazily: they report Stale on their next touch, which
   [lookup]/[resolve] turn into a miss plus a fresh versioned lookup. Only
   a whole-shard floor raise is an event: per-name retirements follow
   from the server's own ns.shard.gen trace. Both caches see the same
   stamps, so their floors rise together. *)
let observe t ~shard ~gen ~changed =
  let names_floor = Ns_cache.observe t.name_cache ~shard ~gen ~changed in
  if Ns_cache.observe t.entry_cache ~shard ~gen ~changed || names_floor then begin
    Ntcs_obs.Registry.incr (metrics t) "nsp.cache_invalidations";
    cache_event t "ns.cache.invalidate" (Ntcs_obs.Span.Floor { shard; floor = gen })
  end

(* Store an authoritative answer about [name] in [cache]. Observation
   first, then the store: the new entry must not be retired by its own
   generation. The recorded generation is the clamped one actually
   stored, so per-shard store generations are non-decreasing in the trace
   (Check_trace). *)
let store t cache key_str cache_key ~name ~value ~kind ~shard ~gen ~changed =
  if ttl t > 0 then begin
    observe t ~shard ~gen ~changed;
    Ns_cache.store cache ~name cache_key ~value ~shard ~gen ~expiry:(Node.now t.node + ttl t);
    entry_event t "ns.cache.store" kind key_str ~shard ~gen:(max gen (Ns_cache.seen cache ~shard))
  end

let invalid_name = Errors.Bad_message "name is empty or holds whitespace"

let error_of_string = function
  | "unknown-name" -> Errors.Unknown_name
  | "unknown-address" -> Errors.Unknown_address
  | "destination-dead" -> Errors.Destination_dead
  | "invalid-name" -> invalid_name
  | s -> Errors.Internal ("name server: " ^ s)

(* NSP request recovery: two full failover cycles over the replica list,
   100 ms backoff (1 s ceiling), 50 ms of seeded jitter. *)
let ns_retry =
  Retry.policy ~max_attempts:2 ~base_delay_us:100_000 ~max_delay_us:1_000_000 ~jitter_us:50_000 ()

(* One NS round trip, failing over through the replica list. One failover
   pass is one attempt of [ns_retry]: when the whole list fails
   with a transient error, the policy backs off and cycles again — an NS
   briefly unreachable mid-reconfiguration is not yet "unavailable". Server
   answers ([R_error ...]) are never retried: they are responses, not
   transport failures. [?prefer] puts one replica (the owning shard of the
   name being asked about) at the head of the pass, ahead of [last_good]. *)
let request ?prefer t (req : Ns_proto.request) =
  let payload = Convert.payload_raw (Ns_proto.pack_request req) in
  let started = Node.now t.node in
  let one_pass ~attempt =
    if attempt > 1 then Ntcs_obs.Registry.incr (metrics t) "nsp.retry_cycles";
    let front =
      match (prefer, t.last_good) with
      | Some p, Some g when not (Addr.equal p g) -> [ p; g ]
      | Some p, _ -> [ p ]
      | None, Some g -> [ g ]
      | None, None -> []
    in
    let order =
      front
      @ List.filter
          (fun c -> not (List.exists (Addr.equal c) front))
          t.candidates
    in
    let rec failover = function
      | [] -> Error Errors.Name_service_unavailable
      | ns :: rest -> (
        Ntcs_obs.Registry.incr (metrics t) "nsp.requests";
        match
          Lcm_layer.send_sync t.lcm ~dst:ns ~app_tag:Ns_proto.app_tag
            ~timeout_us:Node.default_timeout_us payload
        with
        | Error _ when rest <> [] ->
          Ntcs_obs.Registry.incr (metrics t) "nsp.failovers";
          failover rest
        | Error _ -> Error Errors.Name_service_unavailable
        | Ok env -> (
          match Ns_proto.unpack_response env.Lcm_layer.data with
          | Error m -> Error (Errors.Bad_message m)
          | Ok (Ns_proto.R_error m) -> Error (error_of_string m)
          | Ok resp ->
            t.last_good <- Some ns;
            Lcm_layer.set_ns_addr t.lcm ns;
            Ok resp))
    in
    failover order
  in
  let result =
    Retry.run (Node.sched t.node) ~rng:t.rng ns_retry
      ~retryable:Errors.retryable one_pass
  in
  Ntcs_obs.Registry.observe (metrics t) "nsp.request_us" (Node.now t.node - started);
  result

let protocol_error = Errors.Bad_message "unexpected name-server response"

(* The shard owner to ask first about [name]; none on an unsharded plane. *)
let owner_of_name t name = Option.map (fun m -> Shard_map.owner_of_name m name) t.shard_map

(* The shard owner of a UAdd; none for a well-known address or on an
   unsharded plane. *)
let owner_of_addr t addr =
  Option.bind t.shard_map (fun m ->
      Option.map (Shard_map.owner m) (Ns_proto.shard_of_addr m addr))

(* --- the services the rest of the ComMod consumes --- *)

let register t ~name ~phys ~nets ~order ~attrs =
  let req =
    Ns_proto.Register
      {
        r_name = name;
        r_phys = List.map Ntcs_ipcs.Phys_addr.to_string phys;
        r_nets = nets;
        r_order = Proto.order_to_int order;
        r_attrs = attrs;
      }
  in
  if not (Ns_proto.valid_name name) then Error invalid_name
  else
    match request ?prefer:(owner_of_name t name) t req with
    | Ok (Ns_proto.R_registered addr) -> Ok addr
    | Ok _ -> Error protocol_error
    | Error _ as e -> e

let lookup t name =
  match Ns_cache.find t.name_cache ~now:(Node.now t.node) name with
  | Ns_cache.Hit (addr, shard, gen) ->
    Ntcs_obs.Registry.incr (metrics t) "nsp.cache_hits";
    entry_event t "ns.cache.hit" "name" name ~shard ~gen;
    Ok addr
  | (Ns_cache.Stale _ | Ns_cache.Miss) as outcome -> (
    (match outcome with
     | Ns_cache.Stale (_, shard, gen) ->
       (* The shard invalidated this generation: a miss plus a fresh
          lookup, never a delivery on the old circuit. *)
       Ntcs_obs.Registry.incr (metrics t) "nsp.cache_stale";
       entry_event t "ns.cache.stale" "name" name ~shard ~gen
     | _ -> Ntcs_obs.Registry.incr (metrics t) "nsp.cache_misses");
    match request ?prefer:(owner_of_name t name) t (Ns_proto.Lookup_v (name, 0)) with
    | Ok (Ns_proto.R_addr_v (addr, shard, gen, changed)) ->
      store t t.name_cache name name ~name ~value:addr ~kind:"name" ~shard ~gen ~changed;
      Ok addr
    | Ok _ -> Error protocol_error
    | Error _ as e -> e)

let lookup_attrs t attrs =
  match request t (Ns_proto.Lookup_attrs attrs) with
  | Ok (Ns_proto.R_entries es) -> Ok es
  | Ok _ -> Error protocol_error
  | Error _ as e -> e

let resolve t addr =
  let key = Addr.to_string addr in
  match Ns_cache.find t.entry_cache ~now:(Node.now t.node) addr with
  | Ns_cache.Hit (entry, shard, gen) ->
    Ntcs_obs.Registry.incr (metrics t) "nsp.cache_hits";
    entry_event t "ns.cache.hit" "addr" key ~shard ~gen;
    Ok entry
  | (Ns_cache.Stale _ | Ns_cache.Miss) as outcome -> (
    (match outcome with
     | Ns_cache.Stale (_, shard, gen) ->
       Ntcs_obs.Registry.incr (metrics t) "nsp.cache_stale";
       entry_event t "ns.cache.stale" "addr" key ~shard ~gen
     | _ -> Ntcs_obs.Registry.incr (metrics t) "nsp.cache_misses");
    match request t (Ns_proto.Resolve_v addr) with
    | Ok (Ns_proto.R_entry_v (e, shard, gen, changed)) ->
      store t t.entry_cache key addr ~name:e.Ns_proto.e_name ~value:e ~kind:"addr" ~shard
        ~gen ~changed;
      Ok e
    | Ok _ -> Error protocol_error
    | Error _ as err -> err)

(* §3.5 splice repair: [old_addr] was just proved stale (an address fault,
   or a relocation the LCM learned). Drop its cached entry and re-point
   every cached name that resolved to it at the replacement, on the shard
   the dead entry carried — the repaired binding is unversioned (it did not
   come from an owner's stamped answer), so its generation is just the
   newest one the cache has seen from the shard. *)
let splice t ~old_addr ~fresh =
  let dead_names = ref [] in
  Ns_cache.iter t.name_cache (fun name a ~shard ~gen:_ ->
      if Addr.equal a old_addr then dead_names := (name, shard) :: !dead_names);
  let dropped = Ns_cache.invalidate_if t.entry_cache (fun a _ -> Addr.equal a old_addr) in
  (match (!dead_names, dropped) with
   | [], 0 -> ()
   | _ ->
     cache_event t "ns.cache.invalidate"
       (Text (Printf.sprintf "splice addr:%s dropped %d"
          (Addr.to_string old_addr)
          (dropped + List.length !dead_names))));
  match fresh with
  | None ->
    List.iter (fun (name, _) -> Ns_cache.remove t.name_cache name) !dead_names
  | Some fresh ->
    List.iter
      (fun (name, shard) ->
        store t t.name_cache name name ~name ~value:fresh ~kind:"name" ~shard ~gen:0
          ~changed:[])
      (List.rev !dead_names)

(* Address-fault query (§3.5): never cached — the whole point is that the
   cached state just proved stale. A located replacement splice-repairs the
   name cache so names resolving to the dead address heal. *)
let forward_query t addr =
  Ns_cache.remove t.entry_cache addr;
  match request t (Ns_proto.Forward addr) with
  | Ok (Ns_proto.R_forward r) ->
    (match r with
     | Some fresh -> splice t ~old_addr:addr ~fresh:(Some fresh)
     | None -> Ns_cache.remove t.entry_cache addr);
    Ok r
  | Ok _ -> Error protocol_error
  | Error _ as e -> e

(* The LCM relocation hook (reconfiguration-driven invalidation): the
   address-fault handler just patched its forwarding table, so every cached
   answer naming [old] is wrong from this instant. *)
let note_relocated t ~old_addr ~fresh = splice t ~old_addr ~fresh:(Some fresh)

let gateways t =
  match t.gw_cache with
  | Some (entries, stamp) when ttl t > 0 && Node.now t.node <= stamp ->
    Ntcs_obs.Registry.incr (metrics t) "nsp.cache_hits";
    Ok entries
  | Some _ | None -> (
    match request t Ns_proto.List_gateways with
    | Ok (Ns_proto.R_entries es) ->
      t.gw_cache <- Some (es, Node.now t.node + ttl t);
      Ok es
    | Ok _ -> Error protocol_error
    | Error _ as e -> e)

(* Owner-first, like [register]: the owner must know of the deregistration
   before it is acknowledged, or it would learn (and tell caches) only when
   a replica's push arrives. *)
let deregister t addr =
  match request ?prefer:(owner_of_addr t addr) t (Ns_proto.Deregister addr) with
  | Ok Ns_proto.R_ok ->
    splice t ~old_addr:addr ~fresh:None;
    Ok ()
  | Ok _ -> Error protocol_error
  | Error _ as e -> e

let invalidate t =
  Ns_cache.clear t.name_cache;
  Ns_cache.clear t.entry_cache;
  t.gw_cache <- None
