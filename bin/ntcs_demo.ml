(* Scriptable scenario runner: builds the two-network reference installation
   and narrates what the NTCS does while modules talk, relocate and fail.

   Usage: dune exec bin/ntcs_demo.exe -- [--trace [--filter NAME]...] [--seed N]
     [--faults] *)

open Cmdliner
open Ntcs

let raw s = Ntcs_wire.Convert.payload_raw (Bytes.of_string s)

let scenario ~trace ~filter ~seed ~faults =
  (* --faults: the deterministic fault plane — lossy/duplicating/slow links
     while the calls run, and the worker's ring partitioned away for 4s
     mid-conversation — armed declaratively through World.Config. Every
     injection draws from the plane's seeded stream, so the same --seed
     narrates the same failures. *)
  let fault_spec =
    if not faults then None
    else
      Some
        {
          Ntcs_sim.Faults.seed;
          rules =
            [
              Ntcs_sim.Faults.rule ~from_us:4_000_000 ~until_us:30_000_000 ~drop:0.05
                ~dup:0.05 ~delay:0.2 ~delay_us:30_000 ();
            ];
          schedule =
            [
              (5_000_000, Ntcs_sim.Faults.Partition [ [ "ap1" ]; [ "vax1"; "bridge"; "sun1" ] ]);
              (9_000_000, Ntcs_sim.Faults.Heal);
            ];
        }
  in
  let cluster =
    Cluster.build
      ~config:{ Ntcs_sim.World.Config.default with Ntcs_sim.World.Config.seed; faults = fault_spec }
      ~nets:[ ("ether", Ntcs_sim.Net.Tcp_lan); ("ring", Ntcs_sim.Net.Mbx_ring) ]
      ~machines:
        [
          ("vax1", Ntcs_sim.Machine.Vax, [ "ether" ]);
          ("bridge", Ntcs_sim.Machine.Sun3, [ "ether"; "ring" ]);
          ("ap1", Ntcs_sim.Machine.Apollo, [ "ring" ]);
          ("sun1", Ntcs_sim.Machine.Sun3, [ "ether" ]);
        ]
      ~gateways:[ ("bridge-gw", "bridge", [ "ether"; "ring" ]) ]
      ~ns:"vax1" ()
  in
  Cluster.settle cluster;
  print_endline "== NTCS demo: ethernet + apollo ring, one gateway, NS on vax1 ==";
  if faults then
    Printf.printf
      "== fault plane armed (seed %d): lossy links 4-30s, ring partitioned 5-9s ==\n" seed;
  let pctl = Ntcs_drts.Process_ctl.create cluster in
  let spec tag =
    {
      Ntcs_drts.Process_ctl.sp_name = "worker";
      sp_attrs = [ ("service", "demo") ];
      sp_body =
        (fun commod ->
          let rec loop () =
            (match Ali_layer.receive commod with
             | Ok env when Ali_layer.expects_reply env ->
               ignore (Ali_layer.reply commod env (raw (tag ^ " says hello")))
             | Ok _ | Error _ -> ());
            loop ()
          in
          loop ());
    }
  in
  let managed = Ntcs_drts.Process_ctl.start pctl (spec "worker@ring") ~machine:"ap1" in
  Cluster.settle ~dt:5_000_000 cluster;
  ignore
    (Cluster.spawn cluster ~machine:"sun1" ~name:"driver" (fun node ->
         match Commod.bind node ~name:"driver" with
         | Error e -> Printf.printf "driver bind failed: %s\n" (Errors.to_string e)
         | Ok commod -> (
           match Ali_layer.locate commod "worker" with
           | Error e -> Printf.printf "locate failed: %s\n" (Errors.to_string e)
           | Ok addr ->
             for i = 1 to 8 do
               (match
                  Ali_layer.send_sync commod ~dst:addr ~timeout_us:15_000_000 (raw "hi")
                with
                | Ok env ->
                  Printf.printf "[t=%7dus] call %d -> %s\n" (Node.now node) i
                    (Bytes.to_string env.Ali_layer.data)
                | Error e ->
                  Printf.printf "[t=%7dus] call %d -> error %s\n" (Node.now node) i
                    (Errors.to_string e));
               Ntcs_sim.Sched.sleep (Node.sched node) 2_000_000
             done)));
  Ntcs_sim.Sched.after (Cluster.sched cluster) 7_000_000 (fun () ->
      print_endline "[operator] relocating worker from the ring to the ethernet...";
      ignore
        (Ntcs_drts.Process_ctl.relocate pctl
           { managed with Ntcs_drts.Process_ctl.m_spec = spec "worker@ether" }
           ~to_machine:"sun1"));
  Cluster.settle ~dt:60_000_000 cluster;
  let m = Cluster.metrics cluster in
  Printf.printf
    "\nsummary: frames=%d gw-forwards=%d faults=%d relocations=%d tadds purged=%d\n"
    (Ntcs_obs.Registry.get m "nd.frames_sent")
    (Ntcs_obs.Registry.get m "gw.forwards")
    (Ntcs_obs.Registry.get m "lcm.addr_faults")
    (Ntcs_obs.Registry.get m "lcm.relocations")
    (Ntcs_obs.Registry.get m "tadd.purged");
  (* How hard the LCM retry policy had to work: its retries and the virtual
     time they slept. Each new destination is an [lcm.relocate] entry in
     the trace. *)
  Printf.printf "LCM recovery: retries=%d backoff=%dus\n"
    (Ntcs_obs.Registry.get m "lcm.retries")
    (match Ntcs_obs.Registry.find_histo m "lcm.retry_backoff_us" with
     | Some h -> Ntcs_obs.Histo.sum h
     | None -> 0);
  if trace then begin
    (* §6.2: "adequate selectivity in observing this information is equally
       important". The world logs every event; --filter selects the
       requested names, trace entries and span events alike, on read. *)
    let entries =
      let all = Ntcs_sim.Trace.entries (Ntcs_sim.World.trace (Cluster.world cluster)) in
      if filter = [] then all
      else
        List.filter (fun (e : Ntcs_sim.Trace.entry) -> List.mem e.Ntcs_obs.Span.ev_name filter) all
    in
    (* Name listing first — per-layer totals, then each event name with its
       own count — so a reader can pick a --filter before wading into the
       full dump. *)
    print_endline "\n-- event names --";
    let cats = Ntcs_sim.Trace.categories entries in
    let layers =
      List.sort_uniq compare (List.map (fun (c, _) -> Ntcs_obs.Manifest.track_of c) cats)
    in
    List.iter
      (fun layer ->
        let members =
          List.filter (fun (c, _) -> Ntcs_obs.Manifest.track_of c = layer) cats
        in
        Printf.printf "%-8s %5d  %s\n" layer
          (List.fold_left (fun acc (_, n) -> acc + n) 0 members)
          (String.concat " "
             (List.map (fun (c, n) -> Printf.sprintf "%s=%d" c n) members)))
      layers;
    print_endline "\n-- full protocol trace --";
    List.iter (Format.printf "%a@." Ntcs_obs.Span.pp_event) entries
  end;
  0

let () =
  let trace = Arg.(value & flag & info [ "trace" ] ~doc:"Dump the protocol trace.") in
  let filter =
    Arg.(value & opt_all string []
         & info [ "filter" ] ~docv:"CAT"
             ~doc:"Only show events with these names (repeatable), trace categories and \
                   span names alike, e.g. lcm.fault, gw.forward, nd.tx.")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"World seed.") in
  let faults =
    Arg.(
      value & flag
      & info [ "faults" ]
          ~doc:
            "Arm the deterministic fault plane: lossy links plus a timed \
             partition of the worker's network. Same --seed, same failures.")
  in
  (* A misspelt name would silently select nothing: refuse it. *)
  let run trace filter seed faults =
    match List.filter (fun n -> not (Ntcs_obs.Manifest.known n)) filter with
    | [] -> scenario ~trace ~filter ~seed ~faults
    | unknown ->
      List.iter (Printf.eprintf "ntcs_demo: --filter %s: not a registered event name\n") unknown;
      2
  in
  let term = Term.(const run $ trace $ filter $ seed $ faults)
  in
  exit (Cmd.eval' (Cmd.v (Cmd.info "ntcs_demo" ~doc:"Narrated NTCS scenario.") term))
