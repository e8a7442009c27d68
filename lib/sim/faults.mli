(** Deterministic, seeded fault plane.

    A declarative description of how the world should misbehave — per-link
    frame fault rules and a timed schedule of crashes, restarts, partitions
    and heals — plus the seeded runtime state that makes every injection
    reproducible: same spec + same seed ⇒ same fault schedule.

    Passive until {!World.install_faults} arms it on a world; from then on
    {!World.transmit} consults it for every frame and each injected fault is
    emitted as a [fault.*] trace event ([fault.drop], [fault.dup],
    [fault.reorder], [fault.delay], [fault.crash], [fault.restart],
    [fault.partition], [fault.heal], [fault.net_down], [fault.net_up]), so
    trace-based invariant checkers keep working on faulty runs. The plane
    keeps no counts: the world's registry counts each frame's fate as
    [fault.{blocked,dropped,duplicated,delayed,reordered}_frames].

    Frame faults apply only to transmissions the IPCS backends mark
    droppable — whole, self-contained ND frames. Control segments and
    partial segments of a larger frame are never dropped, duplicated or
    reordered (that would desynchronise framing, which no real network
    failure produces); they are at most delayed by the ambient latency
    model. *)

(** {1 Spec} *)

type rule = {
  r_net : Net.id option;  (** [None]: applies on every network *)
  r_from : int;  (** active window in virtual µs: [[r_from, r_until)] *)
  r_until : int;
  r_drop : float;  (** per-frame probabilities, each in [0,1] *)
  r_dup : float;
  r_reorder : float;
  r_delay : float;
  r_delay_us : int;  (** extra latency drawn uniformly from [[1, r_delay_us]] *)
}

val rule :
  ?net:Net.id ->
  ?from_us:int ->
  ?until_us:int ->
  ?drop:float ->
  ?dup:float ->
  ?reorder:float ->
  ?delay:float ->
  ?delay_us:int ->
  unit ->
  rule
(** Rule constructor; everything defaults to "no fault". At most one fault
    is injected per frame: the first active rule wins, and within a rule
    drop > dup > reorder > delay. *)

(** Scheduled whole-world events, by machine / network {e name} so a
    schedule can be written before the world is built. *)
type event =
  | Crash of string  (** machine: mark down, kill its processes *)
  | Restart of string
  | Partition of string list list
      (** isolate the machine-name groups from each other; frames within a
          group or to/from unlisted machines pass. Replaces any earlier
          partition. *)
  | Heal  (** forget the partition *)
  | Net_down of string  (** whole-network outage *)
  | Net_up of string

type spec = {
  seed : int;
  rules : rule list;
  schedule : (int * event) list;  (** (virtual µs, event) *)
}

type t
(** A fault plane: spec + seeded runtime state. *)

val create : ?rules:rule list -> ?schedule:(int * event) list -> seed:int -> unit -> t
(** A fresh, disarmed fault plane. The schedule is sorted by time (stable,
    so same-time events fire in list order). *)

(** {1 Runtime — consulted by [World]} *)

type action = Deliver | Drop | Duplicate | Delay of int | Reorder of int

val frame_action :
  t -> now:int -> net:Net.id -> src:string -> dst:string -> action
(** Decide the fate of one droppable frame, drawing from the plane's seeded
    stream and tracing any injection. *)

val blocked : t -> int -> int -> bool
(** Whether the current partition separates two machine ids. *)

val block_groups : t -> int list list -> unit
(** Install a partition over machine-id groups (resolved by the world). *)

val clear_partition : t -> unit

val set_emit : t -> (cat:string -> detail:string -> unit) -> unit
(** Point fault traces at the world's trace; called by
    [World.install_faults]. *)

val schedule : t -> (int * event) list
