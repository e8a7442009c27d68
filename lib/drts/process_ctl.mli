(** Distributed process control (§1.2): "the need to dynamically add,
    modify, or replace system modules, while in operation".

    A managed module is a (name, attributes, body) specification process
    control can start anywhere and — the testbed's signature move —
    {e relocate}: kill the instance, start a replacement elsewhere under the
    same name. The replacement registers afresh, the naming service sees a
    newer module with a similar name, and every correspondent's LCM
    transparently re-routes (§3.5). *)

open Ntcs_sim
open Ntcs

type spec = {
  sp_name : string;  (** the logical name each generation registers *)
  sp_attrs : (string * string) list;
  sp_body : Commod.t -> unit;  (** runs after bind+register *)
}

type managed = {
  m_spec : spec;
  mutable m_machine : string;
  mutable m_pid : Sched.pid;
  mutable m_generation : int;
}

type t

val create : Cluster.t -> t

val start : t -> spec -> machine:string -> managed
(** Raises [Invalid_argument] when the name is already managed. *)

val relocate : t -> managed -> to_machine:string -> Sched.pid
(** Kill, bump the generation, respawn under the same name. Correspondents
    need no participation. *)
