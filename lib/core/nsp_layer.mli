(** The Name Service Protocol layer (§2.4, §3): "the single naming service
    access point for all layers within the ComMod. Its purpose is to fully
    isolate the ComMod from the naming service implementation."

    Requests ride the ordinary LCM primitives — which is what forces the
    Nucleus to operate recursively (§3.1). Bootstrap goes through the
    well-known name-server addresses (§3.4); with replicated servers (§7)
    requests fail over down the candidate list. Results are cached with a
    TTL: the caches are what let the system run with the name server removed
    (§3.3, experiment E1).

    Lookups and resolves speak the one versioned naming protocol (DESIGN.md
    §15), and the caches are the versioned {!Ntcs_naming.Ns_cache}: entries
    carry the answering shard, its invalidation generation and the name
    they answer for. The generation and recently changed names
    piggybacked on each answer retire exactly those names' entries, or
    the whole shard when the cache missed more generations than the
    answer lists. A stale hit resolves to a miss plus a fresh lookup, never a delivery on
    the old circuit; relocation events splice-repair cached names. Under a
    sharded plane ([Node.config.ns_shards] non-trivial) requests about a
    name go owner-first through the pinned shard map. An unsharded server
    always answers generation 0, so there the floors never move. *)

type t

val create : ?owner:string -> Node.t -> Lcm_layer.t -> t
(** [owner] is the actor stamped on [ns.cache.*] trace events (the binding
    ComMod's name; defaults to ["nsp"]). *)

val register :
  t ->
  name:string ->
  phys:Ntcs_ipcs.Phys_addr.t list ->
  nets:int list ->
  order:Ntcs_wire.Endian.order ->
  attrs:(string * string) list ->
  (Addr.t, Errors.t) result
(** §3.2 registration: returns the assigned UAdd. A name that is empty or
    holds whitespace (see {!Ns_proto.valid_name}) is refused with
    [Bad_message] before any request is sent. *)

val lookup : t -> string -> (Addr.t, Errors.t) result
(** Logical name → UAdd, cached. *)

val lookup_attrs : t -> (string * string) list -> (Ns_proto.entry list, Errors.t) result
(** Attribute-based naming (§7 successor): all live entries matching every
    given attribute. *)

val resolve : t -> Addr.t -> (Ns_proto.entry, Errors.t) result
(** UAdd → full entry (physical addresses, networks, representation),
    cached. *)

val forward_query : t -> Addr.t -> (Addr.t option, Errors.t) result
(** Address-fault query (§3.5), never cached. [Some fresh] = replacement
    located (name cache splice-repaired as a side effect); [None] =
    original still alive, reconnect. *)

val note_relocated : t -> old_addr:Addr.t -> fresh:Addr.t -> unit
(** Reconfiguration-driven invalidation: the LCM learned that [old_addr]
    relocated to [fresh] (§3.5). Cached entries for [old_addr] are dropped
    and cached names pointing at it are splice-repaired in place. Wired to
    {!Lcm_layer.set_on_relocate} by [Commod.bind]. *)

val gateways : t -> (Ns_proto.entry list, Errors.t) result
(** Registered gateway ComMods — the centralized topology (§4.2). Cached. *)

val deregister : t -> Addr.t -> (unit, Errors.t) result
(** Sent first to the shard owner of the address (the server that minted
    it), so the owner has recorded the change when this returns. *)

val invalidate : t -> unit
(** Drop every cache (test/experiment hook). *)
