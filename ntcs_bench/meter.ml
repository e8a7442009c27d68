(* The traced run's per-process layer meter.

   Installed through the public [Sched.set_monitor] hook, so [lib/] is
   measured exactly as shipped. The scheduler calls [m_exec] just before
   each event's thunk; the host ns and minor words that elapse until the
   next [m_exec] are charged to the earlier event's owner (its pid), which
   tiles the metered interval with no gaps: an event's own work, the heap
   pop after it, and anything the harness does between scheduler steps.
   Pids are mapped to layer roles by process name only after the metered
   interval, and the hook itself allocates nothing, so a traced run
   executes — and allocates — exactly what the untraced run does. *)

type role = Coord | App | Lcm_dispatch | Nd_reader | Gateway | Gateway_open | Name_server | Other

let roles = [ Coord; App; Lcm_dispatch; Nd_reader; Gateway; Gateway_open; Name_server; Other ]

let role_name = function
  | Coord -> "coord"
  | App -> "app"
  | Lcm_dispatch -> "lcm_dispatch"
  | Nd_reader -> "nd_reader"
  | Gateway -> "gateway"
  | Gateway_open -> "gateway_open"
  | Name_server -> "name_server"
  | Other -> "other"

let role_index r =
  let rec go i = function
    | [] -> assert false
    | x :: rest -> if x = r then i else go (i + 1) rest
  in
  go 0 roles

let contains s p =
  let ls = String.length s and lp = String.length p in
  let rec go i = i + lp <= ls && (String.sub s i lp = p || go (i + 1)) in
  go 0

(* Process-name classes, first match wins. A gateway's own ComMods are
   named "gw/<gw>@<net>", so its ND readers and LCM dispatcher count as
   gateway time, not endpoint time. Owner 0 is the scheduler's coordinator:
   world construction, fault-plane timers and the harness itself. *)
let classify ~pid name =
  let prefix p = String.starts_with ~prefix:p name and suffix p = String.ends_with ~suffix:p name in
  if pid = 0 then Coord
  else if prefix "gw/" then Gateway
  else if suffix "/open-worker" then Gateway_open
  else if prefix "name-server" then Name_server
  else if suffix "/lcm-dispatch" then Lcm_dispatch
  else if contains name "/nd-reader-" || suffix "/nd-inbound" then Nd_reader
  else if not (String.contains name '/') then App
  else Other

type t = {
  mutable ns : int array;  (** per pid *)
  mutable words : int array;
  mutable last_ns : int;
  mutable last_words : int;
  mutable last_owner : int;
  mutable last_epoch : int;
  mutable armed : bool;
  epoch : unit -> int;
      (** barrier epoch counter for shard worlds: an interval spanning an
          epoch boundary holds barrier time (and, on a worker domain,
          another domain's allocation counter), so it is not charged *)
  role_ns : float array;  (** per role, accumulated by {!fold} *)
  role_words : float array;
  mutable hook : Ntcs_sim.Sched.monitor option;
      (** built once, so installing it on each explored world allocates
          nothing *)
}

let minor_words () = int_of_float (Gc.minor_words ())

let ensure m pid =
  if pid >= Array.length m.ns then begin
    let grow a =
      let b = Array.make (max (pid + 1) (2 * Array.length a)) 0 in
      Array.blit a 0 b 0 (Array.length a);
      b
    in
    m.ns <- grow m.ns;
    m.words <- grow m.words
  end

let charge m ~now_ns ~now_words =
  let o = m.last_owner in
  ensure m o;
  m.ns.(o) <- m.ns.(o) + (now_ns - m.last_ns);
  m.words.(o) <- m.words.(o) + (now_words - m.last_words)

let on_exec m ~owner =
  if m.armed then begin
    let now_ns = Sampler.now_ns () and now_words = minor_words () in
    let e = m.epoch () in
    if e = m.last_epoch then charge m ~now_ns ~now_words else m.last_epoch <- e;
    m.last_ns <- now_ns;
    m.last_words <- now_words;
    m.last_owner <- owner
  end

let create ?(epoch = fun () -> 0) () =
  let nroles = List.length roles in
  let m =
    {
      (* Large enough to live in the major heap from the start, so growing
         them never lands in the minor words being measured. *)
      ns = Array.make 1024 0;
      words = Array.make 1024 0;
      last_ns = 0;
      last_words = 0;
      last_owner = 0;
      last_epoch = 0;
      armed = false;
      epoch;
      role_ns = Array.make nroles 0.;
      role_words = Array.make nroles 0.;
      hook = None;
    }
  in
  m.hook <-
    Some
      {
        Ntcs_sim.Sched.m_push = (fun ~pusher:_ ~owner:_ -> 0);
        m_exec = (fun ~tag:_ ~owner ~time:_ -> on_exec m ~owner);
        m_access = (fun _ ~owner:_ ~write:_ ~time:_ -> ());
      };
  m

let install m sched = Ntcs_sim.Sched.set_monitor sched m.hook

(* Open the metered interval; until the first event runs, time belongs to
   the coordinator (the harness stepping the world). *)
let start m =
  m.last_ns <- Sampler.now_ns ();
  m.last_words <- minor_words ();
  m.last_owner <- 0;
  m.last_epoch <- m.epoch ();
  m.armed <- true

(* Close the interval. [to_coord] charges the tail to the coordinator
   instead of the last event's owner: after an explored schedule's last
   event, the scenario runs its invariant checks outside any event. *)
let stop ?(to_coord = false) m =
  if m.armed then begin
    if to_coord then m.last_owner <- 0;
    charge m ~now_ns:(Sampler.now_ns ()) ~now_words:(minor_words ())
  end;
  m.armed <- false

(* Move the per-pid charges into the role totals (classifying each pid by
   its process name on [sched]) and zero them for the next interval. *)
let fold m sched =
  for pid = 0 to Array.length m.ns - 1 do
    if m.ns.(pid) <> 0 || m.words.(pid) <> 0 then begin
      let name = Option.value ~default:"" (Ntcs_sim.Sched.proc_name sched pid) in
      let r = role_index (classify ~pid name) in
      m.role_ns.(r) <- m.role_ns.(r) +. float_of_int m.ns.(pid);
      m.role_words.(r) <- m.role_words.(r) +. float_of_int m.words.(pid);
      m.ns.(pid) <- 0;
      m.words.(pid) <- 0
    end
  done
