(* Dynamic half of the domain-safety pass (the static half,
   [Lint_domsafe], flags module-level mutable state): a vector-clock
   happens-before checker over the scheduler's owner-tagged events and the
   shared cells registered on a world ([world.topology], [world.procs],
   [world.faults], …).

   The model anticipates the ROADMAP-2 parallel-world refactor, where
   processes become domain work items and virtual time advances through
   barriers: two accesses at *different* virtual times are always ordered
   by the barrier, so only same-instant conflicts can race. Within one
   instant, the happens-before order is exactly what the event graph
   gives us — event push is a message send (tick the pusher's clock and
   snapshot it into the event), event execution a receive (join the
   snapshot into the executing owner's clock, then tick). Owner 0 is the
   coordinator (setup code, the fault schedule, the test driver itself);
   a coordinator event acts as a mini-barrier: it joins every clock and
   raises a global floor, so coordinator writes never read as concurrent
   with process traffic.

   A conflict is two accesses to the same cell, same virtual instant,
   different owners, at least one a write, neither happens-before the
   other. On an [Exclusive] cell that is a race (trace event
   [race.conflict] + [race.conflicts] counter); on a [Waived] cell it is
   sanctioned shared state and only counted ([race.waived]). Arm it on
   a world before traffic runs and read the report at the end; with no
   checker armed every hook in [Sched] is a no-op, so same-seed traces
   stay byte-identical. *)

(* Vector clocks, exposed for the qcheck law tests. Represented as a
   dense int array indexed by owner id (pids are small and dense, owner
   0 the coordinator); absent entries read as 0, and all operations are
   pure so a snapshot is just a value. *)
module Vc = struct
  type t = int array

  let empty : t = [||]
  let get (v : t) i = if i >= 0 && i < Array.length v then v.(i) else 0

  let tick (v : t) owner =
    let n = max (Array.length v) (owner + 1) in
    Array.init n (fun i -> if i = owner then get v i + 1 else get v i)

  let join (a : t) (b : t) =
    let n = max (Array.length a) (Array.length b) in
    Array.init n (fun i -> max (get a i) (get b i))

  let leq (a : t) (b : t) =
    let ok = ref true in
    Array.iteri (fun i x -> if x > get b i then ok := false) a;
    !ok
end

type access = {
  a_owner : int;
  a_write : bool;
  a_snap : Vc.t;  (* the owner's clock at the instant of the access *)
}

type conflict = {
  r_cell : string;
  r_policy : Ntcs_sim.Sched.cell_policy;
  r_time : int;
  r_first : access;
  r_second : access;
}

type t = {
  world : Ntcs_sim.World.t;
  clocks : (int, Vc.t) Hashtbl.t;  (* owner -> current clock *)
  tags : (int, Vc.t) Hashtbl.t;  (* event tag -> pusher snapshot *)
  mutable next_tag : int;
  mutable floor : Vc.t;  (* last coordinator barrier; joined into every exec *)
  mutable epoch : int;  (* virtual instant the cell store belongs to *)
  store : (string, access list) Hashtbl.t;
      (* per-cell accesses this epoch, one per (owner, rw kind): keeping
         only the latest snapshot is sound — if an earlier snapshot was
         unordered w.r.t. some later access, the latest one is too. *)
  reported : (string * int * bool * int * bool, unit) Hashtbl.t;
      (* (cell, owner₁, write₁, owner₂, write₂) pairs already reported,
         so one bad access pattern is one finding, not one per repeat *)
  mutable conflicts : conflict list;
  mutable waived : int;
}

let kind w = if w then "write" else "read"

let owner_label t o =
  if o = 0 then "coordinator"
  else
    match Ntcs_sim.Sched.proc_name (Ntcs_sim.World.sched t.world) o with
    | Some n -> Printf.sprintf "%s(pid %d)" n o
    | None -> Printf.sprintf "pid %d" o

let clock t owner =
  match Hashtbl.find_opt t.clocks owner with Some v -> v | None -> Vc.empty

(* A happened-before B iff B's clock has seen A's owner component at the
   value it had when A ran — the standard component test. *)
let hb (a : access) (b : access) =
  Vc.get a.a_snap a.a_owner <= Vc.get b.a_snap a.a_owner

let ordered a b = hb a b || hb b a

let flush t ~time =
  Hashtbl.reset t.store;
  t.epoch <- time

let record_conflict t cell (prev : access) (cur : access) =
  let key =
    (cell.Ntcs_sim.Sched.c_name, prev.a_owner, prev.a_write, cur.a_owner,
     cur.a_write)
  in
  if not (Hashtbl.mem t.reported key) then begin
    Hashtbl.replace t.reported key ();
    let c =
      { r_cell = cell.Ntcs_sim.Sched.c_name;
        r_policy = cell.Ntcs_sim.Sched.c_policy;
        r_time = t.epoch;
        r_first = prev;
        r_second = cur }
    in
    match cell.Ntcs_sim.Sched.c_policy with
    | Ntcs_sim.Sched.Waived _ ->
      t.waived <- t.waived + 1;
      Ntcs_obs.Registry.incr (Ntcs_sim.World.obs t.world) "race.waived"
    | Ntcs_sim.Sched.Exclusive ->
      t.conflicts <- c :: t.conflicts;
      Ntcs_obs.Registry.incr (Ntcs_sim.World.obs t.world) "race.conflicts";
      Ntcs_sim.World.record t.world ~cat:"race.conflict" ~actor:"race"
        (Printf.sprintf "%s: %s by %s unordered with %s by %s" c.r_cell
           (kind prev.a_write) (owner_label t prev.a_owner)
           (kind cur.a_write) (owner_label t cur.a_owner))
  end

let on_push t ~pusher ~owner:_ =
  let c = Vc.tick (clock t pusher) pusher in
  Hashtbl.replace t.clocks pusher c;
  let tag = t.next_tag in
  t.next_tag <- tag + 1;
  Hashtbl.replace t.tags tag c;
  tag

let on_exec t ~tag ~owner ~time =
  if time <> t.epoch then flush t ~time;
  let snap =
    match Hashtbl.find_opt t.tags tag with
    | Some v ->
      Hashtbl.remove t.tags tag;
      v
    | None -> Vc.empty
  in
  let c = Vc.join (Vc.join (clock t owner) snap) t.floor in
  let c =
    if owner = 0 then
      (* Coordinator barrier: setup code, fault injections and the test
         driver run with everything that has happened so far visible. *)
      Hashtbl.fold (fun _ v acc -> Vc.join v acc) t.clocks c
    else c
  in
  let c = Vc.tick c owner in
  Hashtbl.replace t.clocks owner c;
  if owner = 0 then t.floor <- c

let on_access t cell ~owner ~write ~time =
  if time <> t.epoch then flush t ~time;
  let snap = clock t owner in
  let cur = { a_owner = owner; a_write = write; a_snap = snap } in
  let name = cell.Ntcs_sim.Sched.c_name in
  let prior = match Hashtbl.find_opt t.store name with Some l -> l | None -> [] in
  List.iter
    (fun prev ->
      if
        prev.a_owner <> cur.a_owner
        && (prev.a_write || cur.a_write)
        && not (ordered prev cur)
      then record_conflict t cell prev cur)
    prior;
  let rest =
    List.filter
      (fun a -> not (a.a_owner = owner && a.a_write = write))
      prior
  in
  Hashtbl.replace t.store name (cur :: rest)

let arm world =
  let t =
    { world;
      clocks = Hashtbl.create 16;
      tags = Hashtbl.create 64;
      next_tag = 1;
      floor = Vc.empty;
      epoch = -1;
      store = Hashtbl.create 8;
      reported = Hashtbl.create 8;
      conflicts = [];
      waived = 0 }
  in
  Ntcs_sim.Sched.set_monitor
    (Ntcs_sim.World.sched world)
    (Some
       { Ntcs_sim.Sched.m_push = (fun ~pusher ~owner -> on_push t ~pusher ~owner);
         m_exec = (fun ~tag ~owner ~time -> on_exec t ~tag ~owner ~time);
         m_access = (fun cell ~owner ~write ~time -> on_access t cell ~owner ~write ~time) })
  ;
  t

let conflicts t = List.rev t.conflicts
let waived t = t.waived
