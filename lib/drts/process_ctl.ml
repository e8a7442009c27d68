(* Distributed process control (§1.2): "the need to dynamically add, modify,
   or replace system modules, while in operation".

   A managed module is a (name, attributes, body) specification that process
   control can start on any machine and — the testbed's signature move —
   *relocate*: kill the instance, start a replacement elsewhere under
   the same name. The replacement registers afresh, the naming service sees
   a newer module with a similar name, and the LCM address-fault machinery
   of every correspondent transparently re-routes in-progress conversations
   (§3.5). Process control itself needs no participation from the peers. *)

open Ntcs_sim
open Ntcs

type spec = {
  sp_name : string;
  sp_attrs : (string * string) list;
  sp_body : Commod.t -> unit; (* runs after bind+register *)
}

type managed = {
  m_spec : spec;
  mutable m_machine : string;
  mutable m_pid : Sched.pid;
  mutable m_generation : int;
}

type t = {
  cluster : Cluster.t;
  modules : (string, managed) Hashtbl.t;
}

let create cluster = { cluster; modules = Hashtbl.create 16 }

let launch t spec ~machine ~generation =
  Cluster.spawn t.cluster ~machine
    ~name:(Printf.sprintf "%s.g%d" spec.sp_name generation)
    (fun node ->
      match Commod.bind node ~name:spec.sp_name ~attrs:spec.sp_attrs with
      | Error e ->
        Node.record node ~cat:"pctl.bind_fail" ~actor:spec.sp_name (Errors.to_string e)
      | Ok commod -> spec.sp_body commod)

let start t spec ~machine =
  if Hashtbl.mem t.modules spec.sp_name then
    invalid_arg ("Process_ctl.start: module already managed: " ^ spec.sp_name);
  let m =
    { m_spec = spec; m_machine = machine; m_pid = launch t spec ~machine ~generation:0;
      m_generation = 0 }
  in
  Hashtbl.replace t.modules spec.sp_name m;
  m

let kill t (m : managed) =
  Sched.kill (Cluster.sched t.cluster) m.m_pid;
  World.record (Cluster.world t.cluster) ~cat:"pctl.kill" ~actor:m.m_spec.sp_name
    (Printf.sprintf "generation %d on %s" m.m_generation m.m_machine)

(* Replace a running module with a fresh instance on [to_machine] (which may
   be the same machine: an in-place upgrade). The old instance is killed
   first; its circuits abort, correspondents fault, and the naming service
   forwards them to the replacement once it has registered. *)
let relocate t (m : managed) ~to_machine =
  kill t m;
  m.m_generation <- m.m_generation + 1;
  m.m_machine <- to_machine;
  m.m_pid <- launch t m.m_spec ~machine:to_machine ~generation:m.m_generation;
  World.record (Cluster.world t.cluster) ~cat:"pctl.relocate" ~actor:m.m_spec.sp_name
    (Printf.sprintf "generation %d now on %s" m.m_generation to_machine);
  m.m_pid
