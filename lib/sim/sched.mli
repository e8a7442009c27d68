(** Deterministic cooperative scheduler over OCaml 5 effect handlers.

    Simulated processes are green threads suspended through an effect;
    every resumption goes through an event heap keyed by (virtual time,
    sequence number), so runs are fully deterministic: same program + same
    seeds ⇒ same trace. This is the execution substrate standing in for the
    paper's OS processes on Apollo/VAX/Sun machines.

    Blocking primitives ({!sleep}, {!Ivar}, {!Mailbox}) must be called from
    inside a process; scheduling primitives ({!at}, {!spawn}, {!kill}, …)
    may be called from anywhere. *)

exception Killed
(** Raised inside a process when it is killed, so [Fun.protect] finalizers
    run before it dies. *)

exception Event_limit_exceeded

type t
(** A scheduler instance (one per simulated world). *)

type pid = int

type exit_status =
  | Exited  (** body returned normally *)
  | Was_killed
  | Crashed of exn

type waker
(** One-shot handle that resumes a suspended process. Idempotent: waking an
    already-resumed process is a no-op. *)

(** The scheduler-instrumentation mode: which always-available dynamic
    checker is armed on a world. The one record the scenario harness, the
    check driver, lint R8's ownership map, [Check_race] and the barrier
    coordinator all name. Carried by {!World.Config}; off by default so
    default-mode traces stay byte-identical with the seed. *)
module Mode : sig
  type t = { races : bool  (** arm the vector-clock happens-before race checker *) }

  val default : t
  (** Off — the plain deterministic world. *)

  val armed : t -> bool
  (** Is the checker on? *)

  val pp : Format.formatter -> t -> unit
end

val create : unit -> t

val now : t -> int
(** Current virtual time in microseconds. *)

val set_label : t -> string -> unit
(** Tag this scheduler with a shard label ("s0", "s1", …). The label
    prefixes {!blocked_processes} output so multi-shard reports diff
    cleanly; empty (the default) leaves output unprefixed. *)

val label : t -> string

val next_event_time : t -> int option
(** Virtual time of the earliest pending event, without disturbing the
    heap — the barrier coordinator's horizon input. [None] when idle. *)

val set_event_limit : t -> int -> unit
(** Abort the run with {!Event_limit_exceeded} after this many events
    (0 = unlimited). A backstop for runaway-recursion experiments. *)

val set_chooser : t -> (time:int -> owners:int array -> int) option -> unit
(** Schedule-exploration hook (see {!Explore}). When set, every scheduler
    step collects all events due at the minimum virtual time, groups them by
    owning process, and asks the chooser which owner runs next (it returns
    an index into [owners]; out-of-range answers clamp to 0). The chooser is
    only consulted when more than one owner is runnable; per-owner event
    order is always preserved, so program order and per-flow FIFO delivery
    hold on every explored schedule. [None] (the default) restores the plain
    deterministic (time, seq) order. *)

(** {1 Domain-safety monitor (see [Ntcs_check.Check_race])}

    Shared mutable state that several would-be domains can reach is
    declared as a {e cell}; when a monitor is armed, every event push,
    every event execution and every access to a registered cell is
    reported, which is exactly the information a vector-clock
    happens-before checker needs. Everything here is a no-op while no
    monitor is installed — the disarmed cost is one option match per
    hook site. *)

(** How the parallel-world refactor intends to protect a cell.
    [Exclusive] state must only see happens-before-ordered conflicting
    accesses; [Waived] state is sanctioned shared state whose migration
    story is the reason string (the dynamic analogue of a reasoned lint
    pragma) — conflicts on it are counted, not reported as races. *)
type cell_policy =
  | Exclusive
  | Waived of string

type cell = { c_name : string; c_policy : cell_policy }

type monitor = {
  m_push : pusher:int -> owner:int -> int;
      (** Every event push: [pusher] is the owner of the event being
          executed when the push happened (0 = coordinator), [owner] the
          process whose progress the new event represents. Returns a tag
          stored in the event and passed back to {!monitor.m_exec}. *)
  m_exec : tag:int -> owner:int -> time:int -> unit;
      (** Called immediately before an event's thunk runs. *)
  m_access : cell -> owner:int -> write:bool -> time:int -> unit;
      (** Called for every {!access} to a registered cell. *)
}

val register_cell : t -> name:string -> policy:cell_policy -> cell
(** Declare a shared cell on this scheduler (world). Registration is
    inventory, not instrumentation: the declaring module must also route
    its reads/writes through {!access}. *)

val set_monitor : t -> monitor option -> unit

val access : t -> cell -> write:bool -> unit
(** Report a read or write of [cell], attributed to the owner of the
    currently executing event (0 = coordinator). No-op when disarmed. *)

(** {1 Timers} *)

val at : t -> int -> (unit -> unit) -> unit
(** [at t time thunk] runs [thunk] at absolute virtual [time] (clamped to
    now if already past). *)

val after : t -> int -> (unit -> unit) -> unit
(** [after t delay thunk] ≡ [at t (now t + delay) thunk]. *)

(** {1 Processes} *)

val spawn : ?name:string -> ?at_time:int -> t -> (unit -> unit) -> pid
(** Create a process whose body starts at [at_time] (default: now). *)

val kill : t -> pid -> unit
(** Kill a process: a suspended body is resumed with {!Killed} so its
    finalizers run; an embryo is simply marked dead. Self-kill raises
    {!Killed} directly. *)

val alive : t -> pid -> bool
val status : t -> pid -> exit_status option

val proc_name : t -> pid -> string option
(** Name a pid was spawned under, for diagnostics (races, deadlocks). *)

val on_exit : t -> pid -> (exit_status -> unit) -> unit
(** Run a hook when the process finishes; fires immediately if it already
    has. *)

val self : t -> pid
(** Pid of the currently running process. Fails outside a process. *)

(** {1 Blocking (inside a process only)} *)

val sleep : t -> int -> unit
(** Suspend for a virtual duration. [sleep t 0] is a yield point. *)

(** {1 Running} *)

val step : t -> bool
(** Execute one event; [false] when the heap is empty. *)

val run : ?until:int -> t -> unit
(** Run until quiescence, or until virtual time [until] (the clock then
    advances to exactly [until]). *)

val run_until_quiescent : t -> unit
val live_processes : t -> int
val events_executed : t -> int

val blocked_processes : t -> string list
(** Names of live processes currently suspended. After a quiescent {!run},
    these are blocked forever unless an external event wakes them —
    legitimate for server loops, a deadlock diagnostic for anything else.
    Shard-stable: each name is prefixed with the scheduler's {!label}
    (["s1/name-server/0"]) when one is set, and the list is sorted after
    prefixing, so per-shard reports concatenate into one deterministically
    ordered list. *)

(** Write-once cell with blocking read. Reads after the fill return
    immediately; multiple readers all wake on fill. *)
module Ivar : sig
  type 'a ivar

  val create : t -> 'a ivar

  val fill : 'a ivar -> 'a -> unit
  (** Raises [Invalid_argument] when already filled. *)

  val try_fill : 'a ivar -> 'a -> bool

  val read : ?timeout:int -> 'a ivar -> 'a option
  (** Block until filled; [None] on timeout (virtual µs). *)
end

(** Unbounded FIFO mailbox with blocking receive. *)
module Mailbox : sig
  type 'a mb

  val create : t -> 'a mb
  val length : 'a mb -> int

  val send : 'a mb -> 'a -> unit
  (** Delivers to the oldest waiting receiver, else enqueues. *)

  val recv : ?timeout:int -> 'a mb -> 'a option
  (** Block for the next message; [None] on timeout. *)

  val recv_opt : 'a mb -> 'a option
  (** Non-blocking. *)
end
