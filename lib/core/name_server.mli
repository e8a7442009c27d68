(** The Name Server (§3): an active module maintaining the name/address
    database — "nothing more than an application built on the Nucleus",
    which the Nucleus itself then consumes.

    §3.5 forwarding is implemented as written: a Forward query first decides
    "whether the old UAdd is really inactive" (a liveness ping over the
    NTCS, monitoring suppressed), then looks "for a similar name in a newer
    module", where similarity honours the attribute-based naming scheme the
    paper announces as its successor (equal ["service"] attributes count).

    Replication (§7): peers with distinct server ids; writes are pushed to
    peers as datagrams (eventual consistency), and replicas converge
    through those pushes alone: they start together, so a pull at boot
    could only reach a peer still booting.

    Every server speaks the one versioned naming protocol (DESIGN.md §15):
    lookups and resolves are answered with a [(shard, gen)] stamp. Under a
    pinned {!Ntcs_naming.Shard_map} the server with id [i] is the
    authority for every name hashing to shard [i]. Lookups and
    registrations arriving at a non-owner are forwarded name-to-name to
    the owner over the NTCS itself — one hop at most — and the owner's
    invalidation generation rides back on the answer for the NSP-side
    caches. Every bump of the generation changes exactly one name
    (re-register, deregister, dead, or a replicated merge), and the
    answer also carries the names of the last
    {!Ns_proto.change_log_length} bumps, newest first, so a cache that
    kept up retires only those names. If the owner is unreachable, the
    non-owner answers from its replicated backup copy, marked
    unversioned (generation 0). Without a
    shard map the server is a one-shard plane that always stamps shard 0,
    generation 0, so its clients' cache floors never move. *)

type t

val create :
  Node.t -> server_id:int -> wk_addr:Addr.t -> ?peers:Addr.t list ->
  ?shard_map:Addr.t Ntcs_naming.Shard_map.t -> unit -> t
(** [wk_addr] is the pre-assigned well-known address every ComMod's tables
    point at (§3.4); [peers] are the other replicas' well-known addresses.
    [shard_map] turns on the sharded naming plane: this server owns shard
    [server_id] and forwards requests for other shards to their owners.
    Without it the server behaves exactly as the classic single (or fully
    replicated) name server, answering every stamp with generation 0. *)

val serve : ?fixed:Ntcs_ipcs.Phys_addr.t list -> t -> unit -> unit
(** The server process body: bind (at the [fixed] resources), adopt the
    well-known address, then answer requests forever. Spawn with
    [World.spawn]. *)

val stop : t -> unit

val handle_request : t -> ?commod:Commod.t -> Ns_proto.request -> Ns_proto.response
(** Exposed for tests and benches; normal traffic arrives through {!serve}.
    Without [?commod] the server cannot ping, shard-forward, or replicate —
    liveness is taken from the database and non-owned shards are answered
    from the local (backup) copy, unversioned. *)

val preload : t -> (string * (string * string) list) list -> unit
(** Bulk-load [(name, attrs)] bindings straight into the database,
    bypassing the request protocol — how benches build 10^6-name databases
    without drowning the measurement in transport costs. Addresses are
    minted locally; entries are alive and stamped with the current virtual
    time. *)

val generation : t -> int
(** Current invalidation generation of the shard this server owns (starts
    at 1; 0 is reserved on the wire for unversioned answers). Only a
    sharded server puts it on the wire. *)

val owns : t -> string -> bool
(** Whether this server is the authority for [name] under its shard map
    (always true without one). *)

val dump : t -> Ns_proto.entry list
