(* Tests for the discrete-event simulator: scheduler semantics, blocking
   primitives, kill/cleanup, determinism, machines and networks. *)

open Ntcs_sim

let test_virtual_time_ordering () =
  let s = Sched.create () in
  let log = ref [] in
  Sched.at s 300 (fun () -> log := 3 :: !log);
  Sched.at s 100 (fun () -> log := 1 :: !log);
  Sched.at s 200 (fun () -> log := 2 :: !log);
  Sched.run s;
  Alcotest.(check (list int)) "time order" [ 1; 2; 3 ] (List.rev !log);
  Alcotest.(check int) "clock at last event" 300 (Sched.now s)

let test_same_time_fifo () =
  let s = Sched.create () in
  let log = ref [] in
  for i = 1 to 5 do
    Sched.at s 50 (fun () -> log := i :: !log)
  done;
  Sched.run s;
  Alcotest.(check (list int)) "seq order at same time" [ 1; 2; 3; 4; 5 ] (List.rev !log)

let test_sleep_accumulates () =
  let s = Sched.create () in
  let times = ref [] in
  let _ =
    Sched.spawn s (fun () ->
        Sched.sleep s 10;
        times := Sched.now s :: !times;
        Sched.sleep s 15;
        times := Sched.now s :: !times)
  in
  Sched.run s;
  Alcotest.(check (list int)) "sleep times" [ 10; 25 ] (List.rev !times)

let test_run_until () =
  let s = Sched.create () in
  let fired = ref false in
  Sched.at s 1000 (fun () -> fired := true);
  Sched.run ~until:500 s;
  Alcotest.(check bool) "not yet" false !fired;
  Alcotest.(check int) "clock advanced to until" 500 (Sched.now s);
  Sched.run s;
  Alcotest.(check bool) "eventually" true !fired

(* How [pid] ended, if it has: [on_exit] fires at once for a finished
   process. *)
let exit_status s pid =
  let st = ref None in
  Sched.on_exit s pid (fun e -> st := Some e);
  !st

let test_kill_runs_finalizers () =
  let s = Sched.create () in
  let cleaned = ref false in
  let victim =
    Sched.spawn s (fun () ->
        Fun.protect
          ~finally:(fun () -> cleaned := true)
          (fun () -> Sched.sleep s 1_000_000))
  in
  let _ =
    Sched.spawn s (fun () ->
        Sched.sleep s 10;
        Sched.kill s victim)
  in
  Sched.run s;
  Alcotest.(check bool) "finalizer ran" true !cleaned;
  Alcotest.(check bool) "status killed" true (exit_status s victim = Some Sched.Was_killed);
  Alcotest.(check bool) "not alive" false (Sched.alive s victim)

let test_kill_embryo () =
  let s = Sched.create () in
  let ran = ref false in
  let victim = Sched.spawn ~at_time:100 s (fun () -> ran := true) in
  Sched.at s 10 (fun () -> Sched.kill s victim);
  Sched.run s;
  Alcotest.(check bool) "body never ran" false !ran;
  Alcotest.(check bool) "killed" true (exit_status s victim = Some Sched.Was_killed)

let test_exit_status_and_hooks () =
  let s = Sched.create () in
  let statuses = ref [] in
  let ok = Sched.spawn s (fun () -> ()) in
  let boom = Sched.spawn s (fun () -> failwith "boom") in
  Sched.on_exit s ok (fun st -> statuses := ("ok", st) :: !statuses);
  Sched.on_exit s boom (fun st -> statuses := ("boom", st) :: !statuses);
  Sched.run s;
  let find name = List.assoc name !statuses in
  Alcotest.(check bool) "exited" true (find "ok" = Sched.Exited);
  Alcotest.(check bool) "crashed" true
    (match find "boom" with
     | Sched.Crashed (Failure m) -> String.equal m "boom"
     | Sched.Crashed _ | Sched.Exited | Sched.Was_killed -> false)

let test_on_exit_after_death_fires_immediately () =
  let s = Sched.create () in
  let p = Sched.spawn s (fun () -> ()) in
  Sched.run s;
  let fired = ref false in
  Sched.on_exit s p (fun _ -> fired := true);
  Alcotest.(check bool) "late hook fires" true !fired

let test_mailbox_order_and_timeout () =
  let s = Sched.create () in
  let mb = Sched.Mailbox.create s in
  let got = ref [] in
  let _ =
    Sched.spawn s (fun () ->
        (match Sched.Mailbox.recv mb with Some v -> got := v :: !got | None -> ());
        (match Sched.Mailbox.recv mb with Some v -> got := v :: !got | None -> ());
        match Sched.Mailbox.recv ~timeout:100 mb with
        | Some v -> got := v :: !got
        | None -> got := "timeout" :: !got)
  in
  let _ =
    Sched.spawn s (fun () ->
        Sched.sleep s 10;
        Sched.Mailbox.send mb "a";
        Sched.Mailbox.send mb "b")
  in
  Sched.run s;
  Alcotest.(check (list string)) "fifo then timeout" [ "a"; "b"; "timeout" ] (List.rev !got)

let test_mailbox_timeout_then_late_message () =
  let s = Sched.create () in
  let mb = Sched.Mailbox.create s in
  let got = ref [] in
  let _ =
    Sched.spawn s (fun () ->
        (match Sched.Mailbox.recv ~timeout:50 mb with
         | Some v -> got := v :: !got
         | None -> got := "t1" :: !got);
        match Sched.Mailbox.recv ~timeout:500 mb with
        | Some v -> got := v :: !got
        | None -> got := "t2" :: !got)
  in
  let _ =
    Sched.spawn s (fun () ->
        Sched.sleep s 200;
        Sched.Mailbox.send mb "late")
  in
  Sched.run s;
  Alcotest.(check (list string)) "timeout then delivery" [ "t1"; "late" ] (List.rev !got)

let test_ivar () =
  let s = Sched.create () in
  let iv = Sched.Ivar.create s in
  let results = ref [] in
  for i = 1 to 3 do
    ignore
      (Sched.spawn s (fun () ->
           match Sched.Ivar.read iv with
           | Some v -> results := (i, v) :: !results
           | None -> ()))
  done;
  let _ =
    Sched.spawn s (fun () ->
        Sched.sleep s 20;
        Sched.Ivar.fill iv 42)
  in
  Sched.run s;
  Alcotest.(check int) "all readers woke" 3 (List.length !results);
  List.iter (fun (_, v) -> Alcotest.(check int) "value" 42 v) !results;
  Alcotest.(check bool) "double fill refused" false (Sched.Ivar.try_fill iv 1);
  Alcotest.check_raises "fill raises" (Invalid_argument "Ivar.fill: already filled")
    (fun () -> Sched.Ivar.fill iv 2)

let test_ivar_timeout () =
  let s = Sched.create () in
  let iv = Sched.Ivar.create s in
  let out = ref (Some 0) in
  let _ = Sched.spawn s (fun () -> out := Sched.Ivar.read ~timeout:100 iv) in
  Sched.run s;
  Alcotest.(check (option int)) "timed out" None !out

(* --- withdrawn timers: an answered timeout leaves the heap --- *)

(* 1,000 timed reads and 1,000 timed receives, each answered 1 us in by
   a 1 s deadline: every answer withdraws its timer, so nothing piles up
   in the heap. Kept timers would leave ~1,000 pending at the end. *)
let test_answered_timeouts_leave_heap () =
  let s = Sched.create () in
  let mb = Sched.Mailbox.create s in
  let most = ref 0 and got = ref 0 in
  let note = function
    | Some _ ->
      incr got;
      most := max !most (Sched.pending s)
    | None -> ()
  in
  let _ =
    Sched.spawn s (fun () ->
        for i = 1 to 1_000 do
          let iv = Sched.Ivar.create s in
          Sched.after s 1 (fun () -> Sched.Ivar.fill iv i);
          note (Sched.Ivar.read ~timeout:1_000_000 iv);
          Sched.after s 1 (fun () -> Sched.Mailbox.send mb i);
          note (Sched.Mailbox.recv ~timeout:1_000_000 mb)
        done)
  in
  Sched.run s;
  Alcotest.(check int) "every wait answered" 2_000 !got;
  Alcotest.(check bool) (Printf.sprintf "pending stays bounded (%d)" !most) true (!most <= 2);
  Alcotest.(check int) "nothing left" 0 (Sched.pending s);
  Alcotest.(check int) "the run ends at the last answer, not at a deadline" 2_000 (Sched.now s)

(* A timed read nobody fills still wakes with [None] at exactly its
   deadline, and that timer runs as an event: start, timer, resume. One
   that is filled first runs start, fill, resume, and its timer is never
   the next event. *)
let test_unanswered_timeout_fires () =
  let s = Sched.create () in
  let iv = Sched.Ivar.create s in
  let out = ref (Some 0) and at = ref (-1) in
  let _ =
    Sched.spawn s (fun () ->
        out := Sched.Ivar.read ~timeout:100 iv;
        at := Sched.now s)
  in
  Sched.run s;
  Alcotest.(check (option int)) "timed out" None !out;
  Alcotest.(check int) "at the deadline" 100 !at;
  Alcotest.(check int) "start, timer, resume" 3 (Sched.events_executed s);
  let s = Sched.create () in
  let iv = Sched.Ivar.create s in
  let out = ref None in
  let _ = Sched.spawn s (fun () -> out := Sched.Ivar.read ~timeout:100 iv) in
  Sched.at s 50 (fun () -> Sched.Ivar.fill iv 7);
  Sched.run ~until:60 s;
  Alcotest.(check (option int)) "filled" (Some 7) !out;
  Alcotest.(check (option int)) "no next event" None (Sched.next_event_time s);
  Sched.run s;
  Alcotest.(check int) "start, fill, resume" 3 (Sched.events_executed s);
  Alcotest.(check int) "the clock stays at the bound" 60 (Sched.now s)

(* At t=10 the reader's timer (already answered at t=5) would tie with
   [other]'s wake-up. Withdrawn, it is never offered to a chooser: the
   world has no tie left and explores one schedule, not two. *)
let test_withdrawn_timer_never_chosen () =
  let make () =
    let s = Sched.create () in
    let iv = Sched.Ivar.create s in
    let _ = Sched.spawn ~name:"reader" s (fun () -> ignore (Sched.Ivar.read ~timeout:10 iv)) in
    let _ =
      Sched.spawn ~name:"filler" ~at_time:1 s (fun () ->
          Sched.sleep s 4;
          Sched.Ivar.fill iv ())
    in
    let _ = Sched.spawn ~name:"other" ~at_time:2 s (fun () -> Sched.sleep s 8) in
    (s, fun () -> Sched.run s; [])
  in
  let o = Explore.run ~make () in
  Alcotest.(check int) "one schedule" 1 o.Explore.schedules;
  Alcotest.(check int) "no choice point" 0 o.Explore.choice_points;
  Alcotest.(check bool) "exhaustive" false o.Explore.truncated

(* The scheduler has no event ceiling: a timer that renews itself forever
   is bounded by [~until], and a later run picks it up where it stopped. *)
let test_runaway_bounded_by_until () =
  let s = Sched.create () in
  let fired = ref 0 in
  let rec renew () =
    incr fired;
    Sched.after s 1 renew
  in
  Sched.after s 1 renew;
  Sched.run ~until:1_000 s;
  Alcotest.(check int) "one firing per microsecond" 1_000 !fired;
  Sched.run ~until:2_000 s;
  Alcotest.(check int) "resumed" 2_000 !fired;
  Alcotest.(check int) "clock at the bound" 2_000 (Sched.now s)

let test_blocked_processes_diagnostic () =
  let s = Sched.create () in
  let mb = Sched.Mailbox.create s in
  let _ =
    Sched.spawn ~name:"server-loop" s (fun () ->
        ignore (Sched.Mailbox.recv mb))
  in
  let _ = Sched.spawn ~name:"finisher" s (fun () -> Sched.sleep s 10) in
  Sched.run s;
  Alcotest.(check (list string)) "only the blocked loop reported" [ "server-loop" ]
    (Sched.blocked_processes s)

let test_determinism_across_runs () =
  let run () =
    let w = World.create ~config:{ World.Config.default with World.Config.seed = 99 } () in
    let net = World.add_net w ~name:"n" Ntcs_sim.Net.Tcp_lan () in
    let m1 = World.add_machine w ~name:"m1" Ntcs_sim.Machine.Vax () in
    let m2 = World.add_machine w ~name:"m2" Ntcs_sim.Machine.Sun3 () in
    World.attach w m1 net;
    World.attach w m2 net;
    let log = ref [] in
    for i = 1 to 20 do
      ignore
        (World.transmit w ~net ~src:m1 ~dst:m2 ~size:(i * 100) (fun () ->
             log := (i, World.now w) :: !log))
    done;
    World.run w;
    List.rev !log
  in
  Alcotest.(check (list (pair int int))) "identical runs" (run ()) (run ())

let test_fifo_transmit () =
  let w = World.create ~config:{ World.Config.default with World.Config.seed = 123 } () in
  let net = World.add_net w ~name:"n" Ntcs_sim.Net.Tcp_lan () in
  let m1 = World.add_machine w ~name:"m1" Ntcs_sim.Machine.Vax () in
  let m2 = World.add_machine w ~name:"m2" Ntcs_sim.Machine.Sun3 () in
  World.attach w m1 net;
  World.attach w m2 net;
  let fifo = ref 0 in
  let arrivals = ref [] in
  for i = 1 to 50 do
    ignore
      (World.transmit ~fifo w ~net ~src:m1 ~dst:m2 ~size:64 (fun () ->
           arrivals := i :: !arrivals))
  done;
  World.run w;
  Alcotest.(check (list int)) "in order" (List.init 50 (fun i -> i + 1)) (List.rev !arrivals)

let test_partition_and_crash () =
  let w = World.create () in
  let net = World.add_net w ~name:"n" Ntcs_sim.Net.Tcp_lan () in
  let m1 = World.add_machine w ~name:"m1" Ntcs_sim.Machine.Vax () in
  let m2 = World.add_machine w ~name:"m2" Ntcs_sim.Machine.Sun3 () in
  World.attach w m1 net;
  World.attach w m2 net;
  Alcotest.(check bool) "up: transmit ok" true
    (World.transmit w ~net ~src:m1 ~dst:m2 ~size:10 (fun () -> ()));
  net.Ntcs_sim.Net.up <- false;
  Alcotest.(check bool) "partitioned: refused" false
    (World.transmit w ~net ~src:m1 ~dst:m2 ~size:10 (fun () -> ()));
  net.Ntcs_sim.Net.up <- true;
  let pid = World.spawn w ~machine:m2 ~name:"p" (fun () -> Sched.sleep (World.sched w) 1000) in
  World.crash_machine w m2;
  Alcotest.(check bool) "machine down: refused" false
    (World.transmit w ~net ~src:m1 ~dst:m2 ~size:10 (fun () -> ()));
  World.run w;
  Alcotest.(check bool) "procs killed" true
    (exit_status (World.sched w) pid = Some Sched.Was_killed)

let test_crash_swallows_in_flight () =
  let w = World.create () in
  let net = World.add_net w ~name:"n" Ntcs_sim.Net.Tcp_lan () in
  let m1 = World.add_machine w ~name:"m1" Ntcs_sim.Machine.Vax () in
  let m2 = World.add_machine w ~name:"m2" Ntcs_sim.Machine.Sun3 () in
  World.attach w m1 net;
  World.attach w m2 net;
  let delivered = ref false in
  ignore (World.transmit w ~net ~src:m1 ~dst:m2 ~size:10 (fun () -> delivered := true));
  (* Crash before the latency elapses. *)
  World.crash_machine w m2;
  World.run w;
  Alcotest.(check bool) "in-flight bytes lost" false !delivered

let test_machine_clocks () =
  let m = Machine.make ~id:1 ~name:"m" ~mtype:Machine.Vax ~drift_ppm:100. ~offset_us:500 () in
  Alcotest.(check int) "offset at t0" 500 (Machine.local_time m ~now_us:0);
  (* 100 ppm over 1s = 100us fast, plus offset *)
  Alcotest.(check int) "drift accumulates" (1_000_000 + 500 + 100)
    (Machine.local_time m ~now_us:1_000_000)

(* Byte order is the representation difference the model keeps: image-mode
   byte copies are safe exactly between machines of one order. *)
let test_machine_repr () =
  let same a b = Machine.byte_order a = Machine.byte_order b in
  Alcotest.(check bool) "vax vs sun differ" false (same Machine.Vax Machine.Sun3);
  Alcotest.(check bool) "sun vs apollo same" true (same Machine.Sun3 Machine.Apollo);
  Alcotest.(check bool) "vax vs vax same" true (same Machine.Vax Machine.Vax)

let test_net_latency_scales () =
  let n = Net.make ~id:1 ~name:"n" ~kind:Net.Tcp_lan ~latency:(100, 1024, 0) () in
  (match Net.latency n ~size:0 with
   | Some l -> Alcotest.(check int) "base" 100 l
   | None -> Alcotest.fail "net up");
  (match Net.latency n ~size:2048 with
   | Some l -> Alcotest.(check int) "per-kb" (100 + 2048) l
   | None -> Alcotest.fail "net up");
  n.Net.up <- false;
  Alcotest.(check bool) "down" true (Net.latency n ~size:1 = None)

(* The log keeps every event; a reader selects names on read, trace
   entries and span events alike (ntcs_demo --filter). *)
let test_trace_filter () =
  let t = Trace.create () in
  let select names =
    List.filter (fun (e : Trace.entry) -> List.mem e.Ntcs_obs.Span.ev_name names)
  in
  Trace.record t ~at_us:1 ~cat:"a.x" ~actor:"p" "one";
  Trace.record t ~at_us:2 ~cat:"b.y" ~actor:"p" "two";
  Trace.record t ~at_us:3 ~cat:"b.y" ~actor:"p" "three";
  Trace.record t ~at_us:4 ~cat:"a.x" ~actor:"p" "four";
  let span ~at_us ~name detail =
    Ntcs_obs.Registry.span t
      (Ntcs_obs.Span.event ~at_us ~ctx:(Ntcs_obs.Span.make ~circuit:1 ~seq:1)
         ~phase:Ntcs_obs.Span.I ~name ~actor:"p" detail)
  in
  span ~at_us:5 ~name:"a.hop" (Ntcs_obs.Span.Text "five");
  span ~at_us:6 ~name:"a.x" (Ntcs_obs.Span.Text "six");
  Alcotest.(check int) "every event logged" 6 (Trace.count t);
  Alcotest.(check (list (pair string int))) "categories count every name"
    [ ("a.hop", 1); ("a.x", 3); ("b.y", 2) ]
    (Trace.categories (Trace.entries t));
  let kept = select [ "a.x" ] (Trace.entries t) in
  Alcotest.(check int) "matching agrees with the selection" (List.length kept)
    (List.length (Trace.matching t ~cat:"a.x"));
  Alcotest.(check (list string)) "selected events, oldest first" [ "one"; "four"; "six" ]
    (List.map
       (fun (e : Trace.entry) -> Ntcs_obs.Span.detail_to_string e.Ntcs_obs.Span.ev_detail)
       kept);
  Alcotest.(check (list (pair string int))) "categories of a selection count it only"
    [ ("a.x", 3); ("b.y", 2) ]
    (Trace.categories (select [ "b.y"; "a.x" ] (Trace.entries t)))

(* --- exploration steps --- *)

let rec remove_one x = function
  | [] -> []
  | y :: rest -> if y = x then rest else y :: remove_one x rest

(* Processes that sleep through short lists of small delays, so their
   wake-ups collide; some steps also leave a no-op timer of the process's
   own behind, so one owner can have several events due at once. A live
   process has one pending wake-up (its start, its timer, or the resume
   that timer queued) due at [wake_at], plus its timers in [timers_at]. A
   monitor reads both before each event runs and counts the steps where
   two or more owners share the earliest time. *)
let run_sleepers ?choose procs =
  let s = Sched.create () in
  let n = List.length procs in
  let wake_at = Array.make n (Some 0) and timers_at = Array.make n [] in
  let pids = Array.make n 0 in
  let order = ref [] and ties = ref 0 and calls = ref 0 and owners_ok = ref true in
  let tied () =
    let due i t = wake_at.(i) = Some t || List.mem t timers_at.(i) in
    let earliest m i =
      List.fold_left min (match wake_at.(i) with Some t -> min m t | None -> m) timers_at.(i)
    in
    let tmin = List.fold_left earliest max_int (List.init n Fun.id) in
    (tmin, List.filter_map (fun i -> if due i tmin then Some pids.(i) else None) (List.init n Fun.id))
  in
  Sched.set_monitor s
    (Some
       {
         Sched.m_push = (fun ~pusher:_ ~owner:_ -> 0);
         m_exec = (fun ~tag:_ ~owner:_ ~time:_ -> if List.length (snd (tied ())) >= 2 then incr ties);
         m_access = (fun _ ~owner:_ ~write:_ ~time:_ -> ());
       });
  Sched.set_chooser s
    (Option.map
       (fun choose ~time ~owners ->
         incr calls;
         if tied () <> (time, List.sort compare (Array.to_list owners)) then owners_ok := false;
         choose !calls (Array.length owners))
       choose);
  List.iteri
    (fun i steps ->
      pids.(i) <-
        Sched.spawn s (fun () ->
            List.iter
              (fun (d, timer) ->
                (match timer with
                 | Some e ->
                   let at = Sched.now s + e in
                   timers_at.(i) <- at :: timers_at.(i);
                   Sched.at s at (fun () ->
                       timers_at.(i) <- remove_one at timers_at.(i);
                       order := (i, at, `Timer) :: !order)
                 | None -> ());
                wake_at.(i) <- Some (Sched.now s + d);
                Sched.sleep s d;
                order := (i, Sched.now s, `Wake) :: !order)
              steps;
            wake_at.(i) <- None))
    procs;
  Sched.run s;
  (List.rev !order, Sched.events_executed s, !ties, !calls, !owners_ok)

let sleepers_gen =
  QCheck.(
    list_of_size Gen.(2 -- 4)
      (list_of_size Gen.(1 -- 4) (pair (int_range 0 3) (option (int_range 0 3)))))

let step_props =
  [
    QCheck.Test.make ~count:300 ~name:"a chooser answering 0 runs the default schedule"
      sleepers_gen (fun procs ->
        let order, events, _, _, _ = run_sleepers procs in
        let order', events', _, _, _ = run_sleepers ~choose:(fun _ _ -> 0) procs in
        order = order' && events = events');
    QCheck.Test.make ~count:300 ~name:"the chooser is asked exactly at multi-owner ties"
      sleepers_gen (fun procs ->
        List.for_all
          (fun choose ->
            let _, _, ties, calls, owners_ok = run_sleepers ~choose procs in
            ties > 0 && calls = ties && owners_ok)
          [ (fun _ _ -> 0); (fun call n -> call mod n) ]);
  ]

let () =
  Alcotest.run "ntcs_sim"
    [
      ( "sched",
        [
          Alcotest.test_case "virtual time ordering" `Quick test_virtual_time_ordering;
          Alcotest.test_case "same-time fifo" `Quick test_same_time_fifo;
          Alcotest.test_case "sleep accumulates" `Quick test_sleep_accumulates;
          Alcotest.test_case "run until" `Quick test_run_until;
          Alcotest.test_case "kill runs finalizers" `Quick test_kill_runs_finalizers;
          Alcotest.test_case "kill embryo" `Quick test_kill_embryo;
          Alcotest.test_case "exit status and hooks" `Quick test_exit_status_and_hooks;
          Alcotest.test_case "late on_exit" `Quick test_on_exit_after_death_fires_immediately;
          Alcotest.test_case "runaway timer bounded by until" `Quick
            test_runaway_bounded_by_until;
          Alcotest.test_case "blocked processes diagnostic" `Quick
            test_blocked_processes_diagnostic;
        ] );
      ("explore step", List.map QCheck_alcotest.to_alcotest step_props);
      ( "withdrawn",
        [
          Alcotest.test_case "answered timeouts leave the heap" `Quick
            test_answered_timeouts_leave_heap;
          Alcotest.test_case "an unanswered timeout fires" `Quick test_unanswered_timeout_fires;
          Alcotest.test_case "never offered to a chooser" `Quick
            test_withdrawn_timer_never_chosen;
        ] );
      ( "blocking",
        [
          Alcotest.test_case "mailbox order and timeout" `Quick test_mailbox_order_and_timeout;
          Alcotest.test_case "mailbox late message" `Quick test_mailbox_timeout_then_late_message;
          Alcotest.test_case "ivar broadcast" `Quick test_ivar;
          Alcotest.test_case "ivar timeout" `Quick test_ivar_timeout;
        ] );
      ( "world",
        [
          Alcotest.test_case "determinism" `Quick test_determinism_across_runs;
          Alcotest.test_case "fifo transmit" `Quick test_fifo_transmit;
          Alcotest.test_case "partition and crash" `Quick test_partition_and_crash;
          Alcotest.test_case "crash swallows in-flight" `Quick test_crash_swallows_in_flight;
        ] );
      ( "models",
        [
          Alcotest.test_case "machine clocks" `Quick test_machine_clocks;
          Alcotest.test_case "machine repr" `Quick test_machine_repr;
          Alcotest.test_case "net latency" `Quick test_net_latency_scales;
          Alcotest.test_case "trace filter" `Quick test_trace_filter;
        ] );
    ]
