(** The naming-service request/response protocol.

    These messages ride the ordinary Nucleus primitives as packed-mode
    payloads with a reserved application tag — "for all practical purposes,
    the naming service is nothing more than an application built on the
    Nucleus" (§2.4).

    One protocol serves every deployment: lookups and resolves are always
    versioned (DESIGN.md §15). An unsharded server is a one-shard plane
    that answers them with shard 0, generation 0, so a client's cache
    floors never move. A versioned answer also carries the names that the
    shard's last {!change_log_length} generations changed: a client that
    has seen every generation in between retires only the cached entries
    for those names, and one further behind retires the whole shard. *)

val app_tag : int
(** Reserved application tag for naming-service traffic. *)

val change_log_length : int
(** K = 8: the most changed names a versioned answer carries, one per
    generation. A longer list decodes to [Error]. *)

val valid_name : string -> bool
(** A registrable logical name: non-empty, with no whitespace. The
    [ns.*] trace details are space-separated words, so only such names
    read back unambiguously. *)

type entry = {
  e_name : string;
  e_addr : Addr.t;
  e_phys : string list;  (** physical addresses, uninterpreted (§3.2) *)
  e_nets : int list;  (** logical network identifiers *)
  e_order : int;  (** machine representation tag *)
  e_attrs : (string * string) list;  (** attribute-based naming (§7) *)
  e_alive : bool;
}

type request =
  | Register of {
      r_name : string;
      r_phys : string list;
      r_nets : int list;
      r_order : int;
      r_attrs : (string * string) list;
    }
  | Lookup_v of string * int
      (** logical name → UAdd, shard-routed: [name, hops]. A non-owner shard
          forwards it name-to-name to the owner with [hops+1] (Internames
          style, DESIGN.md §15); [hops >= 1] forces a local answer so the
          resolution chain is at most one hop. Answered with {!R_addr_v}. *)
  | Lookup_attrs of (string * string) list
  | Resolve_v of Addr.t  (** UAdd → full entry, answered with {!R_entry_v} *)
  | Forward of Addr.t  (** address fault: find a replacement (§3.5) *)
  | Deregister of Addr.t
  | List_gateways  (** the centralized topology (§4.2) *)
  | Sync_push of (int * entry) list  (** replication: push fresh entries *)

type response =
  | R_registered of Addr.t
  | R_addr_v of Addr.t * int * int * string list
      (** [addr, shard, gen, changed]: answer plus the answering
          authority's shard index and invalidation generation, and the
          names generations [gen], [gen - 1], ... changed, newest first
          (at most {!change_log_length}). [gen = 0] marks an unversioned
          answer (an unsharded server, or a replica's backup copy while
          the owner is down): cacheable, never raises the client's
          generation floor, and carries no names — its list is not on
          the wire at all. *)
  | R_entry_v of entry * int * int * string list
      (** [entry, shard, gen, changed] — as {!R_addr_v} *)
  | R_entries of entry list
  | R_forward of Addr.t option  (** [Some] replacement / [None] still alive *)
  | R_ok
  | R_error of string  (** [Errors.to_string] form *)

val shard_of_addr : Addr.t Ntcs_naming.Shard_map.t -> Addr.t -> int option
(** The shard that owns a UAdd: the id of the server that minted it.
    [None] for a well-known address outside the map or a TAdd. *)

val request_codec : request Ntcs_wire.Packed.t
val response_codec : response Ntcs_wire.Packed.t
