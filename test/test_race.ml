(* Tests for the happens-before race checker (Check_race), the dynamic
   half of the domain-safety pass. The qcheck properties pin the
   vector-clock laws the detector's soundness rests on; the unit tests
   drive small worlds with deliberately unsynchronized, synchronized,
   waived and coordinator-ordered accesses to a registered shared cell
   and require exactly the injected findings — one report per bad access
   pattern, none for anything happens-before can order. The last test is
   the zero-overhead contract: arming the checker on a clean protocol
   exchange adds not a single trace entry, so disarmed (the default)
   same-seed traces are trivially byte-identical with the seed. *)

module Sched = Ntcs_sim.Sched
module World = Ntcs_sim.World
module Vc = Check_race.Vc

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* --- vector-clock laws --- *)

(* Clocks are built the only way the detector builds them: ticks and
   joins from empty. *)
let vc_of owners = List.fold_left Vc.tick Vc.empty owners
let owners = QCheck.(list_of_size QCheck.Gen.(int_bound 12) (int_bound 5))

let test_vc_tick =
  qtest "tick strictly increases" (QCheck.pair owners (QCheck.int_bound 5))
    (fun (l, o) ->
      let v = vc_of l in
      let v' = Vc.tick v o in
      Vc.leq v v' && (not (Vc.leq v' v)) && Vc.get v' o = Vc.get v o + 1)

let test_vc_leq_transitive =
  (* Happens-before transitivity, on a constructed a ≤ b ≤ c chain —
     random triples satisfy the premise too rarely to test anything. *)
  qtest "leq transitive" (QCheck.triple owners owners owners) (fun (l1, l2, l3) ->
      let a = vc_of l1 in
      let b = Vc.join a (vc_of l2) in
      let c = Vc.join b (vc_of l3) in
      Vc.leq a b && Vc.leq b c && Vc.leq a c)

let test_vc_join_upper_bound =
  qtest "join is an upper bound, commutative, idempotent" (QCheck.pair owners owners)
    (fun (l1, l2) ->
      let a = vc_of l1 and b = vc_of l2 in
      let j = Vc.join a b in
      Vc.leq a j && Vc.leq b j
      && Vc.leq (Vc.join b a) j
      && Vc.leq j (Vc.join b a)
      && Vc.leq (Vc.join a a) a)

let test_vc_join_least =
  (* Least upper bound: any clock above both a and b is above join a b. *)
  qtest "join is the least upper bound" (QCheck.triple owners owners owners)
    (fun (l1, l2, l3) ->
      let a = vc_of l1 and b = vc_of l2 in
      let c = Vc.join (Vc.join a b) (vc_of l3) in
      Vc.leq (Vc.join a b) c)

let test_vc_join_monotone =
  (* a ≤ b ⇒ join a c ≤ join b c. *)
  qtest "join monotone" (QCheck.triple owners owners owners) (fun (l1, l2, l3) ->
      let a = vc_of l1 in
      let b = Vc.join a (vc_of l2) in
      let c = vc_of l3 in
      Vc.leq (Vc.join a c) (Vc.join b c))

(* --- the detector on small worlds --- *)

let world () =
  let w = World.create ~config:{ World.Config.default with World.Config.seed = 11 } () in
  let m = World.add_machine w ~name:"m1" Ntcs_sim.Machine.Vax () in
  (w, m)

let conflict_events w =
  Ntcs_sim.Trace.matching (World.trace w) ~cat:"race.conflict"

(* Two processes spawned at the same instant, no synchronization between
   them, both touching the cell twice: exactly one report — the bad
   (writer, reader) pattern — not one per repeated access. *)
let test_unsynchronized_detected_once () =
  let w, m = world () in
  let rc = Check_race.arm w in
  Helpers.inject_race w m;
  World.run w;
  Alcotest.(check int) "exactly one conflict" 1 (List.length (Check_race.conflicts rc));
  Alcotest.(check int) "counted once" 1
    (Ntcs_obs.Registry.get (World.obs w) "race.conflicts");
  Alcotest.(check int) "one trace event" 1 (List.length (conflict_events w));
  match Check_race.conflicts rc with
  | [ c ] ->
    Alcotest.(check string) "on the registered cell" "test.cell" c.Check_race.r_cell;
    Alcotest.(check bool) "a write is involved" true
      (c.Check_race.r_first.a_write || c.Check_race.r_second.a_write)
  | _ -> assert false

(* Two concurrent readers conflict with nothing. *)
let test_readers_clean () =
  let w, m = world () in
  let sched = World.sched w in
  let cell = Sched.register_cell sched ~name:"test.cell" ~policy:Sched.Exclusive in
  let rc = Check_race.arm w in
  let read () = Sched.access sched cell ~write:false in
  ignore (World.spawn w ~machine:m ~name:"r1" read);
  ignore (World.spawn w ~machine:m ~name:"r2" read);
  World.run w;
  Alcotest.(check int) "no conflicts" 0 (List.length (Check_race.conflicts rc))

(* The same write/read pattern on a Waived cell is counted, not raced. *)
let test_waived_counted_not_raced () =
  let w, m = world () in
  let sched = World.sched w in
  let cell =
    Sched.register_cell sched ~name:"test.cell"
      ~policy:(Sched.Waived "sharded per domain when worlds go parallel")
  in
  let rc = Check_race.arm w in
  ignore (World.spawn w ~machine:m ~name:"writer" (fun () -> Sched.access sched cell ~write:true));
  ignore (World.spawn w ~machine:m ~name:"reader" (fun () -> Sched.access sched cell ~write:false));
  World.run w;
  Alcotest.(check int) "no races" 0 (List.length (Check_race.conflicts rc));
  Alcotest.(check int) "one waived pattern" 1 (Check_race.waived rc);
  Alcotest.(check int) "race.waived counted" 1
    (Ntcs_obs.Registry.get (World.obs w) "race.waived");
  Alcotest.(check int) "no trace events" 0 (List.length (conflict_events w))

(* A mailbox hand-off is a happens-before edge: the consumer blocks, the
   producer writes then sends, the wake carries the producer's clock —
   same virtual instant, conflicting accesses, but ordered. *)
let test_synchronized_clean () =
  let w, m = world () in
  let sched = World.sched w in
  let cell = Sched.register_cell sched ~name:"test.cell" ~policy:Sched.Exclusive in
  let rc = Check_race.arm w in
  let mb = Sched.Mailbox.create sched in
  ignore
    (World.spawn w ~machine:m ~name:"consumer" (fun () ->
         match Sched.Mailbox.recv mb with
         | Some () -> Sched.access sched cell ~write:false
         | None -> ()));
  ignore
    (World.spawn w ~machine:m ~name:"producer" (fun () ->
         Sched.access sched cell ~write:true;
         Sched.Mailbox.send mb ()));
  World.run w;
  Alcotest.(check int) "ordered by the hand-off" 0
    (List.length (Check_race.conflicts rc))

(* A coordinator event (pushed from outside any process — setup code,
   fault schedules) is a barrier: its writes are ordered against every
   process access at the same instant, whichever side runs first. *)
let test_coordinator_barrier () =
  let w, m = world () in
  let sched = World.sched w in
  let cell = Sched.register_cell sched ~name:"test.cell" ~policy:Sched.Exclusive in
  let rc = Check_race.arm w in
  ignore
    (World.spawn w ~machine:m ~name:"p" (fun () ->
         Sched.sleep sched 1_000;
         Sched.access sched cell ~write:false));
  Sched.at sched 1_000 (fun () -> Sched.access sched cell ~write:true);
  World.run w;
  Alcotest.(check int) "coordinator writes never race" 0
    (List.length (Check_race.conflicts rc))

(* Accesses at different virtual times are ordered by the virtual-time
   barrier of the planned refactor — never conflicts. *)
let test_different_instants_clean () =
  let w, m = world () in
  let sched = World.sched w in
  let cell = Sched.register_cell sched ~name:"test.cell" ~policy:Sched.Exclusive in
  let rc = Check_race.arm w in
  ignore
    (World.spawn w ~machine:m ~name:"early" (fun () -> Sched.access sched cell ~write:true));
  ignore
    (World.spawn w ~machine:m ~name:"late" (fun () ->
         Sched.sleep sched 5_000;
         Sched.access sched cell ~write:true));
  World.run w;
  Alcotest.(check int) "barrier-separated writes" 0
    (List.length (Check_race.conflicts rc))

(* --- zero interference with clean runs --- *)

let trace_render w =
  List.map
    (fun e -> Format.asprintf "%a" Ntcs_obs.Span.pp_event e)
    (Ntcs_sim.Trace.entries (World.trace w))

let exchange_trace ~races =
  let c = Helpers.lan_cluster ~seed:42 () in
  if races then ignore (Check_race.arm (Ntcs.Cluster.world c));
  Ntcs.Cluster.settle c;
  Helpers.spawn_echo c ~machine:"sun1" ~name:"svc";
  Ntcs.Cluster.settle c;
  let get =
    Helpers.in_process c ~machine:"sun2" ~name:"app" (fun node ->
        let commod = Helpers.bind_exn node ~name:"app" in
        match Ntcs.Ali_layer.locate commod "svc" with
        | Error e -> Error e
        | Ok addr -> Ntcs.Ali_layer.send_sync commod ~dst:addr (Helpers.raw "ping"))
  in
  Ntcs.Cluster.settle ~dt:30_000_000 c;
  ignore (Helpers.check_ok "send" (get ()));
  trace_render (Ntcs.Cluster.world c)

let test_armed_trace_identical () =
  (* A full §6.1 exchange over the world's registered cells: arming the
     checker must find nothing and add nothing — the armed trace is
     byte-identical with the unarmed (seed) trace. *)
  Alcotest.(check (list string))
    "armed == disarmed trace" (exchange_trace ~races:false) (exchange_trace ~races:true)

let () =
  Alcotest.run "race"
    [
      ( "vector-clocks",
        [
          test_vc_tick;
          test_vc_leq_transitive;
          test_vc_join_upper_bound;
          test_vc_join_least;
          test_vc_join_monotone;
        ] );
      ( "detector",
        [
          Alcotest.test_case "unsynchronized detected once" `Quick
            test_unsynchronized_detected_once;
          Alcotest.test_case "readers clean" `Quick test_readers_clean;
          Alcotest.test_case "waived counted not raced" `Quick
            test_waived_counted_not_raced;
          Alcotest.test_case "mailbox hand-off orders" `Quick test_synchronized_clean;
          Alcotest.test_case "coordinator barrier" `Quick test_coordinator_barrier;
          Alcotest.test_case "different instants" `Quick test_different_instants_clean;
        ] );
      ( "interference",
        [ Alcotest.test_case "armed trace identical" `Quick test_armed_trace_identical ]
      );
    ]
