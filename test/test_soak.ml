(* Long-run soak under seeded chaos: continuous traffic across two networks
   while services relocate, the ring partitions and heals, and clients come
   and go. Invariants checked at the end:
   - no process ever crashes (beyond the injected kills);
   - the LCM sequence audit never sees regression or duplication;
   - after the chaos stops, every client can reach every service again. *)

open Ntcs
open Helpers

let services = [ "alpha"; "beta"; "gamma" ]

let service_spec name generation =
  {
    Ntcs_drts.Process_ctl.sp_name = name;
    sp_attrs = [ ("service", name) ];
    sp_body =
      (fun commod ->
        let tag = Printf.sprintf "%s.g%d" name generation in
        let rec loop () =
          (match Ali_layer.receive commod with
           | Ok env when Ali_layer.expects_reply env ->
             ignore (Ali_layer.reply commod env (raw tag))
           | Ok _ | Error _ -> ());
          loop ()
        in
        loop ());
  }

let test_soak () =
  let c = two_net_cluster ~seed:2027 () in
  Cluster.settle c;
  let pctl = Ntcs_drts.Process_ctl.create c in
  let machines = [| "vax1"; "ap1"; "ap2" |] in
  let started = Hashtbl.create 3 in
  List.iteri
    (fun i name ->
      Hashtbl.replace started name
        (Ntcs_drts.Process_ctl.start pctl (service_spec name 0)
           ~machine:machines.(i mod Array.length machines)))
    services;
  Cluster.settle ~dt:5_000_000 c;
  (* Client fleet: each loops locate-once + send_sync forever, tolerating
     errors (chaos is expected; crashes are not). *)
  let calls_ok = ref 0 and calls_err = ref 0 in
  let spawn_client i =
    let machine = if i mod 2 = 0 then "vax1" else "ap2" in
    ignore
      (Cluster.spawn c ~machine ~name:(Printf.sprintf "client%d" i) (fun node ->
           let commod = bind_exn node ~name:(Printf.sprintf "client%d" i) in
           let rng = Ntcs_util.Rng.create (1000 + i) in
           let rec loop () =
             let svc = List.nth services (Ntcs_util.Rng.int rng (List.length services)) in
             (match Ali_layer.locate commod svc with
              | Error _ -> incr calls_err
              | Ok addr -> (
                match
                  Ali_layer.send_sync commod ~dst:addr ~timeout_us:4_000_000 (raw "tick")
                with
                | Ok _ -> incr calls_ok
                | Error _ -> incr calls_err));
             Ntcs_sim.Sched.sleep (Node.sched node) (300_000 + Ntcs_util.Rng.int rng 700_000);
             loop ()
           in
           loop ()))
  in
  for i = 0 to 3 do
    spawn_client i
  done;
  (* Chaos driver: every ~4 virtual seconds, one random disruption. *)
  let chaos_rng = Ntcs_util.Rng.create 555 in
  let chaos_until = Ntcs_sim.World.now (Cluster.world c) + 60_000_000 in
  let rec chaos () =
    Ntcs_sim.Sched.after (Cluster.sched c)
      (3_000_000 + Ntcs_util.Rng.int chaos_rng 2_000_000)
      (fun () ->
        if Ntcs_sim.World.now (Cluster.world c) < chaos_until then begin
          (match Ntcs_util.Rng.int chaos_rng 3 with
           | 0 ->
             (* Relocate a random service to a random machine. *)
             let name = List.nth services (Ntcs_util.Rng.int chaos_rng 3) in
             (match Hashtbl.find_opt started name with
              | Some m ->
                let dst = Ntcs_util.Rng.pick chaos_rng machines in
                let gen = m.Ntcs_drts.Process_ctl.m_generation + 1 in
                ignore
                  (Ntcs_drts.Process_ctl.relocate pctl
                     { m with Ntcs_drts.Process_ctl.m_spec = service_spec name gen }
                     ~to_machine:dst)
              | None -> ())
           | 1 ->
             (* Short ring partition. *)
             Cluster.partition c "ring";
             Ntcs_sim.Sched.after (Cluster.sched c) 1_500_000 (fun () -> Cluster.heal c "ring")
           | _ ->
             (* Kill and respawn a service in place (fast restart). *)
             let name = List.nth services (Ntcs_util.Rng.int chaos_rng 3) in
             (match Hashtbl.find_opt started name with
              | Some m ->
                let here = m.Ntcs_drts.Process_ctl.m_machine in
                let gen = m.Ntcs_drts.Process_ctl.m_generation + 1 in
                ignore
                  (Ntcs_drts.Process_ctl.relocate pctl
                     { m with Ntcs_drts.Process_ctl.m_spec = service_spec name gen }
                     ~to_machine:here)
              | None -> ()));
          chaos ()
        end)
  in
  chaos ();
  (* 60 virtual seconds of chaos + 30 of recovery. *)
  Cluster.settle ~dt:95_000_000 c;
  let m = Cluster.metrics c in
  let crashes =
    Ntcs_sim.Trace.matching (Ntcs_sim.World.trace (Cluster.world c)) ~cat:"sim.proc_crash"
  in
  Alcotest.(check int) "no unexpected crashes" 0 (List.length crashes);
  Alcotest.(check int) "no sequence regressions" 0
    (Ntcs_obs.Registry.get m "lcm.seq_regressions");
  Alcotest.(check bool) "real traffic volume" true (!calls_ok > 100);
  Alcotest.(check bool) "chaos actually disrupted" true
    (Ntcs_obs.Registry.get m "lcm.relocations" >= 2);
  (* Convergence probe: after the dust settles every service answers. *)
  let final = ref [] in
  ignore
    (Cluster.spawn c ~machine:"vax1" ~name:"prober" (fun node ->
         let commod = bind_exn node ~name:"prober" in
         List.iter
           (fun svc ->
             match Ali_layer.locate commod svc with
             | Error e -> final := (svc, "locate:" ^ Errors.to_string e) :: !final
             | Ok addr -> (
               match
                 Ali_layer.send_sync commod ~dst:addr ~timeout_us:8_000_000 (raw "probe")
               with
               | Ok _ -> final := (svc, "ok") :: !final
               | Error e -> final := (svc, Errors.to_string e) :: !final))
           services));
  Cluster.settle ~dt:60_000_000 c;
  List.iter
    (fun svc ->
      Alcotest.(check (option string))
        (Printf.sprintf "%s converged" svc)
        (Some "ok")
        (List.assoc_opt svc !final))
    services

let () =
  Alcotest.run "soak" [ ("chaos", [ Alcotest.test_case "60s chaos soak" `Slow test_soak ]) ]
