(** The distributed network monitor (Wang [27]).

    Modules report LCM-level events as datagrams; the monitor aggregates
    per-kind and per-module counts plus a ring of recent records, and
    answers queries synchronously. The client installs itself as the node's
    [on_event] hook: reporting rides the very ComMod being monitored, with
    monitoring suppressed for its own traffic — "to avoid the obvious
    infinite recursion" (§6.1). *)

open Ntcs

val monitor_name : string

val serve : Node.t -> unit -> unit
(** Monitor process body. *)

type client

val create_client : Commod.t -> client

val install : client -> unit
(** Become the node's monitor hook. *)

val query_stats : Commod.t -> monitor:Addr.t -> (Drts_proto.monitor_stats, Errors.t) result
