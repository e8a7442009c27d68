(** The distributed precision time service (Wang [27], §1.3, §6.1).

    Machines run drifting clocks; the server publishes its machine's clock
    as the reference; correctors estimate their offset Cristian-style
    (offset = server_time + rtt/2 − local_arrival) and install a corrected
    [timestamp] hook into the node.

    Faithful to §6.1: the corrector communicates through the {e same} ComMod
    whose sends it timestamps (monitoring suppressed for its own traffic) —
    so a monitored send's timestamp may recursively invoke resource location
    and another send/receive pair. *)

open Ntcs

val serve : Node.t -> unit -> unit
(** Time-server process body: answers every request with its machine's
    local time. Spawn on the reference machine. *)

type corrector

val create : ?sync_interval_us:int -> Commod.t -> corrector
(** A corrector for the module owning [commod] (default resync 30 s). *)

val sync : corrector -> (int, Errors.t) result
(** One synchronisation exchange; returns the new offset. Locates the
    server on first use (§6.1). Counts [time.syncs] or
    [time.sync_failures] in the world's registry. *)

val now : corrector -> int
(** Corrected timestamp; resynchronises first when stale — the recursive
    path of §6.1. *)

val install : corrector -> unit
(** Become the node's timestamp hook: LCM monitor records now use corrected
    time. *)

val true_error_us : corrector -> int
(** True clock error against the global (simulation) clock — for
    experiment evaluation only; unobservable in a real system. *)
