(** Exhaustive schedule exploration for bounded scenarios.

    Enumerates every interleaving the deterministic scheduler could take if
    ties in virtual time were broken differently, via {!Sched.set_chooser}.
    The reduction is persistent-set flavoured: same-time events collapse
    into per-owner program-order sequences, so a choice point branches over
    runnable {e processes}, never over raw event permutations, and singleton
    points do not branch. Each schedule rebuilds the world from scratch, so
    [make] must return a fresh scenario every call. *)

type outcome = {
  schedules : int;  (** schedules fully executed *)
  choice_points : int;  (** multi-owner points encountered, over all schedules *)
  max_branch : int;  (** widest choice point seen *)
  truncated : bool;  (** budget ran out before the tree was exhausted *)
  failures : (int list * string) list;  (** (choice path, violation) *)
}

val pp_outcome : Format.formatter -> outcome -> unit
(** One line: the counts, then [exhaustive] when the tree drained or
    [[truncated]] when the budget ran out, then the failures. *)

val run :
  ?max_schedules:int ->
  ?branch:(time:int -> owners:int array -> bool) ->
  make:(unit -> Sched.t * (unit -> string list)) ->
  unit ->
  outcome
(** [run ~make ()] explores the scenario's schedule tree depth-first.
    [make ()] builds a fresh world and returns its scheduler plus a body
    that runs the scenario to completion and reports that schedule's
    invariant violations (empty list = clean). The chooser is installed on
    the returned scheduler before the body runs. Exploration stops when the
    tree is exhausted or [max_schedules] (default 1000) have run; the latter
    sets [truncated]. A schedule that raises records the exception as a
    failure for that schedule and exploration continues.

    [branch] (default: always) gates which choice points actually branch;
    declined points run in default order and consume no choice. Scenarios
    use it to boot their world deterministically and explore only the
    window containing the exchange under test — the tree stays bounded
    while every interleaving of the interesting events is still covered. *)
