(* Deterministic cooperative scheduler over OCaml 5 effect handlers.

   Simulated processes are green threads suspended via the [Suspend] effect.
   Every resumption goes through the event heap, keyed by (virtual time,
   sequence number), so runs are fully deterministic: same program + same
   seeds => same trace. This is the execution substrate standing in for the
   paper's OS processes on Apollo/VAX/Sun machines.

   Invariants that keep the continuation discipline one-shot:
   - a proc in [Suspended] holds its continuation exactly once, tagged with a
     fresh suspension id; wakers capture that id and become no-ops once the
     proc has moved on;
   - [Queued] means a resume event is already in the heap; killing such a
     proc just flips the pending resume to a discontinue;
   - resume events re-check the proc state when they fire, so a stale event
     (e.g. after a kill already executed) cannot resume a dead proc.

   A timed wait that resumes with a value withdraws its timer: from then on
   the timer could only have been a no-op (a stale suspension id, or a
   mailbox waiter no longer live). A withdrawn event is never executed,
   counted, offered to a chooser or seen as the next event time, and the
   heap drops it lazily, so the heap holds O(live events). *)

exception Killed
(* Raised inside a process when it is killed; lets Fun.protect finalizers run. *)

type pid = int

type exit_status =
  | Exited
  | Was_killed
  | Crashed of exn

type resume_kind =
  | Resume_value
  | Resume_exn of exn

type cell_policy =
  | Exclusive
  | Waived of string

type cell = { c_name : string; c_policy : cell_policy }

(* The one scheduler-instrumentation mode record, threaded by the scenario
   harness and the check driver through every scenario build. Off by
   default so default-mode traces stay byte-identical with the seed. *)
module Mode = struct
  type t = { races : bool (* arm the happens-before race checker *) }

  let default = { races = false }
end

(* The domain-safety monitor (see Check_race): armed, it receives every
   event push (with the pusher's identity), every event execution, and
   every access to a registered shared cell. Off by default; each hook
   site costs one option match when disarmed. *)
type monitor = {
  m_push : pusher:int -> owner:int -> int;
      (** Called at push time; returns a tag stored in the event. *)
  m_exec : tag:int -> owner:int -> time:int -> unit;
      (** Called just before the event's thunk runs. *)
  m_access : cell -> owner:int -> write:bool -> time:int -> unit;
}

type t = {
  mutable now : int; (* virtual microseconds *)
  mutable label : string; (* shard tag ("s0", "s1", …) in parallel worlds *)
  mutable next_seq : int;
  events : event Ntcs_util.Heap.t;
  procs : (pid, proc) Hashtbl.t;
  mutable next_pid : int;
  mutable current : proc option;
  mutable live_count : int;
  mutable event_count : int;
  mutable exec_owner : int; (* owner of the event whose thunk is running *)
  mutable chooser : (time:int -> owners:int array -> int) option;
  mutable monitor : monitor option;
}

and event = {
  time : int;
  seq : int;
  owner : int;
  tag : int;
  thunk : unit -> unit;
  mutable gone : bool; (* executed or withdrawn: no longer pending *)
}

and proc = {
  pid : pid;
  proc_name : string;
  sched : t;
  mutable state : proc_state;
  mutable susp_seq : int; (* per-proc suspension counter (no ambient state) *)
  mutable on_exit : (exit_status -> unit) list;
  mutable exit_status : exit_status option;
}

and proc_state =
  | Embryo of (unit -> unit)
  | Running
  | Suspended of suspension
  | Queued of queued
  | Dead

and suspension = { susp_id : int; k : (unit, unit) Effect.Deep.continuation }

and queued = { qk : (unit, unit) Effect.Deep.continuation; mutable kind : resume_kind }

type waker = { w_proc : proc; w_susp_id : int }

type _ Effect.t += Suspend : (waker -> unit) -> unit Effect.t

let create () =
  let leq a b = a.time < b.time || (a.time = b.time && a.seq <= b.seq) in
  {
    now = 0;
    label = "";
    next_seq = 0;
    events = Ntcs_util.Heap.create ~leq ~gone:(fun ev -> ev.gone);
    procs = Hashtbl.create 64;
    next_pid = 1;
    current = None;
    live_count = 0;
    event_count = 0;
    exec_owner = 0;
    chooser = None;
    monitor = None;
  }

let now t = t.now

let set_label t l = t.label <- l
let label t = t.label

(* Earliest pending event, if any — the barrier coordinator's horizon
   input. Withdrawn timers are skipped; the live order is untouched. *)
let next_event_time t =
  if Ntcs_util.Heap.is_empty t.events then None
  else Some (Ntcs_util.Heap.top t.events).time

let set_chooser t f = t.chooser <- f

(* --- domain-safety monitor hooks --- *)

let set_monitor t m = t.monitor <- m

(* Registering a cell declares a piece of world-shared mutable state to the
   race checker; [access] reports each read/write of it, attributed to the
   process whose event is executing (owner 0 = the coordinator: world
   setup, fault schedule, test driver). Both are no-ops while no monitor
   is armed. *)
let register_cell _ ~name ~policy = { c_name = name; c_policy = policy }

let current_owner t =
  match t.current with
  | Some p -> p.pid
  | None -> t.exec_owner

let access t cell ~write =
  match t.monitor with
  | None -> ()
  | Some m -> m.m_access cell ~owner:(current_owner t) ~write ~time:t.now

(* Every event is tagged with the pid of the process whose progress it
   represents: schedule-exploration (Explore) may reorder same-time events
   across owners but never within one owner, which preserves program order
   and per-flow FIFO delivery (both are scheduled by the sending process in
   order). Events scheduled outside any process inherit the owner of the
   event being executed, so e.g. a delivery thunk's wakes belong to the
   process it wakes, not to limbo. *)
let push_event t ~owner time thunk =
  let time = if time < t.now then t.now else time in
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let tag =
    match t.monitor with
    | None -> 0
    | Some m -> m.m_push ~pusher:(current_owner t) ~owner
  in
  let ev = { time; seq; owner; tag; thunk; gone = false } in
  Ntcs_util.Heap.push t.events ev;
  ev

let at_owned t ~owner time thunk = ignore (push_event t ~owner time thunk)

let at t time thunk = at_owned t ~owner:(current_owner t) time thunk

(* Timers of timed waits. [no_timer] stands in until the timer is armed;
   withdrawing it, or a timer that already ran, does nothing. *)
let timer_after t d thunk = push_event t ~owner:(current_owner t) (t.now + d) thunk

let no_timer = { time = 0; seq = -1; owner = 0; tag = 0; thunk = ignore; gone = true }

let withdraw t ev =
  if not ev.gone then begin
    ev.gone <- true;
    Ntcs_util.Heap.withdrawn t.events
  end

let after t delay thunk = at t (t.now + delay) thunk

let current_exn t =
  match t.current with
  | Some p -> p
  | None -> failwith "Sched: no current process (blocking call outside a process)"

let self t = (current_exn t).pid

(* Run [f] as the body of [proc] under the effect handler. Called from the
   scheduler loop, never from inside another process. *)
let finish proc status =
  proc.state <- Dead;
  proc.exit_status <- Some status;
  proc.sched.live_count <- proc.sched.live_count - 1;
  let hooks = proc.on_exit in
  proc.on_exit <- [];
  List.iter (fun h -> h status) hooks

let handler proc =
  let open Effect.Deep in
  {
    retc = (fun () -> finish proc Exited);
    exnc =
      (fun e ->
        match e with
        | Killed -> finish proc Was_killed
        | e -> finish proc (Crashed e));
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | Suspend register ->
          Some
            (fun (k : (a, unit) continuation) ->
              (* Suspension ids only disambiguate wakers of *this* proc, so a
                 per-proc counter suffices — no ambient global to share
                 across would-be domains. *)
              proc.susp_seq <- proc.susp_seq + 1;
              let susp_id = proc.susp_seq in
              proc.state <- Suspended { susp_id; k };
              proc.sched.current <- None;
              register { w_proc = proc; w_susp_id = susp_id })
        | _ -> None);
  }

let start_proc proc f =
  proc.state <- Running;
  proc.sched.current <- Some proc;
  Effect.Deep.match_with f () (handler proc);
  proc.sched.current <- None

let resume_proc proc =
  match proc.state with
  | Queued q ->
    proc.state <- Running;
    proc.sched.current <- Some proc;
    (match q.kind with
     | Resume_value -> Effect.Deep.continue q.qk ()
     | Resume_exn e -> Effect.Deep.discontinue q.qk e);
    proc.sched.current <- None
  | Dead -> ()
  | Embryo _ | Running | Suspended _ ->
    (* A resume event can only have been scheduled for a Queued proc; any
       other state here is a scheduler bug. *)
    assert false

let wake w =
  let proc = w.w_proc in
  match proc.state with
  | Suspended s when s.susp_id = w.w_susp_id ->
    proc.state <- Queued { qk = s.k; kind = Resume_value };
    at_owned proc.sched ~owner:proc.pid proc.sched.now (fun () -> resume_proc proc)
  | Embryo _ | Running | Suspended _ | Queued _ | Dead -> ()

let spawn ?(name = "proc") ?(at_time = -1) t f =
  let pid = t.next_pid in
  t.next_pid <- pid + 1;
  let proc =
    {
      pid;
      proc_name = name;
      sched = t;
      state = Embryo f;
      susp_seq = 0;
      on_exit = [];
      exit_status = None;
    }
  in
  Hashtbl.replace t.procs pid proc;
  t.live_count <- t.live_count + 1;
  let start_time = if at_time < 0 then t.now else at_time in
  at_owned t ~owner:pid start_time (fun () ->
      match proc.state with
      | Embryo body -> start_proc proc body
      | Dead -> () (* killed before it ever ran *)
      | Running | Suspended _ | Queued _ -> assert false);
  pid

let find_proc t pid = Hashtbl.find_opt t.procs pid

let alive t pid =
  match find_proc t pid with
  | Some { state = Dead; _ } | None -> false
  | Some _ -> true

let proc_name t pid =
  match find_proc t pid with
  | None -> None
  | Some p -> Some p.proc_name

let kill t pid =
  match find_proc t pid with
  | None -> ()
  | Some proc -> (
    match proc.state with
    | Dead -> ()
    | Embryo _ ->
      (* Never ran: no stack to unwind, just mark it dead. *)
      finish proc Was_killed
    | Suspended s ->
      proc.state <- Queued { qk = s.k; kind = Resume_exn Killed };
      at_owned t ~owner:pid t.now (fun () -> resume_proc proc)
    | Queued q -> q.kind <- Resume_exn Killed
    | Running ->
      (* Only the process itself can be Running when kill is called (the
         scheduler is single-threaded), so this is suicide. *)
      raise Killed)

let on_exit t pid hook =
  match find_proc t pid with
  | None -> ()
  | Some proc -> (
    match proc.exit_status with
    | Some status -> hook status
    | None -> proc.on_exit <- hook :: proc.on_exit)

(* --- blocking primitives (must run inside a process) --- *)

let suspend register = Effect.perform (Suspend register)

let sleep t d =
  if d <= 0 then
    (* Still go through the heap so even zero sleeps are yield points. *)
    suspend (fun w -> at t t.now (fun () -> wake w))
  else suspend (fun w -> at t (t.now + d) (fun () -> wake w))

(* --- scheduler loop --- *)

let exec_event t ev =
  assert (ev.time >= t.now);
  ev.gone <- true;
  t.now <- ev.time;
  t.event_count <- t.event_count + 1;
  (match t.monitor with
   | None -> ()
   | Some m -> m.m_exec ~tag:ev.tag ~owner:ev.owner ~time:ev.time);
  let saved = t.exec_owner in
  t.exec_owner <- ev.owner;
  (* Restore the owner on both exits, keeping the thunk's backtrace. Not
     Fun.protect: its closure would be allocated on every event. *)
  match ev.thunk () with
  | () -> t.exec_owner <- saved
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    t.exec_owner <- saved;
    Printexc.raise_with_backtrace e bt

(* Pop every further event due at [time], in heap order. *)
let rec gather t time =
  if Ntcs_util.Heap.is_empty t.events || (Ntcs_util.Heap.top t.events).time <> time then []
  else
    let ev = Ntcs_util.Heap.pop_min t.events in
    ev :: gather t time

(* Distinct owners of a batch, in reverse order of first appearance. *)
let rec owners acc = function
  | [] -> acc
  | ev :: rest -> owners (if List.mem ev.owner acc then acc else ev.owner :: acc) rest

(* Exploration mode picks the event to run after [first] left the heap.
   When the next event is due later, nothing ties with [first] and it runs
   directly — most steps. Otherwise every event due at the same time is
   popped, their owners are grouped in order of first appearance, and the
   chooser is consulted exactly when two or more owners share the time.
   Only the chosen owner's first event runs; the rest go back on the heap
   under their original keys, so per-owner order is untouched and a
   chooser that always answers 0 runs the default schedule. *)
let choose_event t choose first =
  match gather t first.time with
  | [] -> first
  | later ->
    let batch = first :: later in
    let chosen =
      match owners [] batch with
      | [ o ] -> o
      | rev ->
        let arr = Array.of_list (List.rev rev) in
        let i = choose ~time:first.time ~owners:arr in
        arr.(if i < 0 || i >= Array.length arr then 0 else i)
    in
    let rec split = function
      | [] -> assert false
      | ev :: rest when ev.owner = chosen ->
        List.iter (Ntcs_util.Heap.push t.events) rest;
        ev
      | ev :: rest ->
        Ntcs_util.Heap.push t.events ev;
        split rest
    in
    split batch

let step t =
  if Ntcs_util.Heap.is_empty t.events then false
  else begin
    let first = Ntcs_util.Heap.pop_min t.events in
    exec_event t
      (match t.chooser with None -> first | Some choose -> choose_event t choose first);
    true
  end

let run ?until t =
  let due () =
    match until with
    | None -> true
    | Some u -> (Ntcs_util.Heap.top t.events).time <= u
  in
  while (not (Ntcs_util.Heap.is_empty t.events)) && due () do
    ignore (step t)
  done;
  match until with
  | Some u when t.now < u -> t.now <- u
  | _ -> ()

let live_processes t = t.live_count
let events_executed t = t.event_count
let pending t = Ntcs_util.Heap.length t.events

(* Diagnostic for quiescent-but-not-finished worlds: which processes are
   still alive and suspended (blocked forever unless an external event wakes
   them)? Long-running servers legitimately appear here; a test harness can
   subtract its known daemons and flag the rest as deadlocked.

   Shard discipline (R2): names are prefixed with the scheduler's label
   when one is set ("s1/name-server/0"), and the output is sorted after
   prefixing, so the reports of a multi-shard world concatenate into one
   deterministically ordered list that diffs cleanly against any other
   shard layout. *)
let blocked_processes t =
  let tag name = if t.label = "" then name else t.label ^ "/" ^ name in
  Ntcs_util.sorted_bindings t.procs
  |> List.filter_map (fun (_, proc) ->
         match proc.state with
         | Suspended _ -> Some (tag proc.proc_name)
         | Embryo _ | Running | Queued _ | Dead -> None)
  |> List.sort String.compare

(* --- Ivar: write-once cell --- *)

module Ivar = struct
  type 'a state = Empty of (waker * 'a option ref) list | Full of 'a

  type 'a ivar = { iv_sched : t; mutable iv : 'a state }

  let create sched = { iv_sched = sched; iv = Empty [] }

  let fill ivar v =
    match ivar.iv with
    | Full _ -> invalid_arg "Ivar.fill: already filled"
    | Empty waiters ->
      ivar.iv <- Full v;
      List.iter
        (fun (w, cell) ->
          cell := Some v;
          wake w)
        (List.rev waiters)

  let try_fill ivar v = match ivar.iv with
    | Full _ -> false
    | Empty _ -> fill ivar v; true

  let park ivar cell w =
    match ivar.iv with
    | Full v ->
      (* Filled between the check and the suspension: wake at once. *)
      cell := Some v;
      wake w
    | Empty waiters -> ivar.iv <- Empty ((w, cell) :: waiters)

  (* Blocking read with optional timeout (in virtual microseconds). *)
  let read ?timeout ivar =
    match ivar.iv with
    | Full v -> Some v
    | Empty _ ->
      let cell = ref None in
      (match timeout with
       | None -> suspend (fun w -> park ivar cell w)
       | Some d ->
         let timer = ref no_timer in
         suspend (fun w ->
             park ivar cell w;
             timer := timer_after ivar.iv_sched d (fun () -> wake w));
         if Option.is_some !cell then withdraw ivar.iv_sched !timer);
      !cell
end

(* --- Mailbox: unbounded many-writer single-or-multi-reader queue --- *)

module Mailbox = struct
  type 'a waiter = { mutable live : bool; mb_waker : waker; mb_cell : 'a option ref }

  type 'a mb = {
    mb_sched : t;
    q : 'a Queue.t;
    mutable waiters : 'a waiter list; (* FIFO: oldest first *)
  }

  let create sched = { mb_sched = sched; q = Queue.create (); waiters = [] }

  let length mb = Queue.length mb.q

  (* Hand [v] to the oldest live waiter, dropping dead ones on the way. *)
  let rec send mb v =
    match mb.waiters with
    | [] -> Queue.push v mb.q
    | w :: rest ->
      mb.waiters <- rest;
      if w.live then begin
        w.live <- false;
        w.mb_cell := Some v;
        wake w.mb_waker
      end
      else send mb v

  let park mb cell w =
    let waiter = { live = true; mb_waker = w; mb_cell = cell } in
    mb.waiters <- mb.waiters @ [ waiter ];
    waiter

  let recv ?timeout mb =
    match Queue.take_opt mb.q with
    | Some v -> Some v
    | None ->
      let cell = ref None in
      (match timeout with
       | None -> suspend (fun w -> ignore (park mb cell w))
       | Some d ->
         let timer = ref no_timer in
         suspend (fun w ->
             let waiter = park mb cell w in
             timer :=
               timer_after mb.mb_sched d (fun () ->
                   if waiter.live then begin
                     waiter.live <- false;
                     wake w
                   end));
         if Option.is_some !cell then withdraw mb.mb_sched !timer);
      !cell

  let recv_opt mb = Queue.take_opt mb.q
end
