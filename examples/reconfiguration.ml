(* Dynamic reconfiguration, the URSA testbed's signature requirement: replace
   a running module with a new generation on a different machine, while a
   client keeps a conversation going. The client resolves the name exactly
   once; the handoff is invisible at its interface (§3.5).

   Run with: dune exec examples/reconfiguration.exe *)

open Ntcs

let raw s = Ntcs_wire.Convert.payload_raw (Bytes.of_string s)

let version_spec tag =
  {
    Ntcs_drts.Process_ctl.sp_name = "stock-quoter";
    sp_attrs = [ ("service", "quotes") ];
    sp_body =
      (fun commod ->
        Printf.printf "[quoter %s] serving as %s\n" tag
          (Addr.to_string (Commod.my_addr commod));
        let n = ref 0 in
        let rec loop () =
          (match Ali_layer.receive commod with
           | Ok env when Ali_layer.expects_reply env ->
             incr n;
             let quote = Printf.sprintf "URSA @ %d.%02d (%s #%d)" (40 + !n) (7 * !n mod 100) tag !n in
             ignore (Ali_layer.reply commod env (raw quote))
           | Ok _ | Error _ -> ());
          loop ()
        in
        loop ());
  }

let () =
  let cluster =
    Cluster.build
      ~nets:[ ("ether", Ntcs_sim.Net.Tcp_lan) ]
      ~machines:
        [
          ("vax1", Ntcs_sim.Machine.Vax, [ "ether" ]);
          ("sun1", Ntcs_sim.Machine.Sun3, [ "ether" ]);
          ("sun2", Ntcs_sim.Machine.Sun3, [ "ether" ]);
        ]
      ~ns:"vax1" ()
  in
  Cluster.settle cluster;
  let pctl = Ntcs_drts.Process_ctl.create cluster in
  let managed =
    Ntcs_drts.Process_ctl.start pctl (version_spec "v1/sun1") ~machine:"sun1"
  in
  Cluster.settle cluster;

  ignore
    (Cluster.spawn cluster ~machine:"vax1" ~name:"ticker" (fun node ->
         match Commod.bind node ~name:"ticker" with
         | Error e -> Printf.printf "bind failed: %s\n" (Errors.to_string e)
         | Ok commod -> (
           match Ali_layer.locate commod "stock-quoter" with
           | Error e -> Printf.printf "locate failed: %s\n" (Errors.to_string e)
           | Ok addr ->
             Printf.printf "[ticker] resolved stock-quoter once: %s\n"
               (Addr.to_string addr);
             for i = 1 to 12 do
               (match
                  Ali_layer.send_sync commod ~dst:addr ~timeout_us:2_000_000 (raw "quote?")
                with
                | Ok env ->
                  Printf.printf "[ticker] tick %2d -> %s\n" i
                    (Bytes.to_string env.Ali_layer.data)
                | Error e ->
                  Printf.printf "[ticker] tick %2d -> error: %s\n" i (Errors.to_string e));
               Ntcs_sim.Sched.sleep (Node.sched node) 500_000
             done)));

  (* Upgrade the quoter to v2 on another machine, mid-conversation. *)
  Ntcs_sim.Sched.after (Cluster.sched cluster) 5_000_000 (fun () ->
      print_endline "[operator] relocating stock-quoter to sun2 (v2)...";
      ignore
        (Ntcs_drts.Process_ctl.relocate pctl
           { managed with Ntcs_drts.Process_ctl.m_spec = version_spec "v2/sun2" }
           ~to_machine:"sun2"));

  Cluster.settle ~dt:30_000_000 cluster;
  Printf.printf "[operator] address faults: %d, relocations: %d — ticker never noticed\n"
    (Ntcs_obs.Registry.get (Cluster.metrics cluster) "lcm.addr_faults")
    (Ntcs_obs.Registry.get (Cluster.metrics cluster) "lcm.relocations")
