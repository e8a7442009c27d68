(** Recursion accounting (§6).

    Every entry into a ComMod primitive passes through a tracker; nested
    entries — the naming service calling back into the Nucleus, the monitor
    timestamping its own sends — raise the depth. The tracker doubles as the
    simulated stack bound for the §6.3 experiment: with the LCM guard
    disabled, the name-server fault loop recurses until
    {!Stack_overflow_sim}. *)

exception Stack_overflow_sim

type t

val create : ?limit:int -> unit -> t
(** [limit] is the simulated stack bound (default 64 nested entries). *)

val with_entry : t -> (unit -> 'a) -> 'a
(** Run the thunk one level deeper: raises {!Stack_overflow_sim} at the
    depth limit, and the level is released however the thunk exits. *)

val depth : t -> int
val max_depth : t -> int

val entries : t -> int
(** Total entries since creation. *)

val recursive_entries : t -> int
(** Entries made while already inside the ComMod — the §6.1 measure. *)
