(* Shared scaffolding for the NTCS test suites. *)

open Ntcs

let check_ok label = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: unexpected error %s" label (Errors.to_string e)

let check_err label expected = function
  | Ok _ -> Alcotest.failf "%s: expected error %s, got Ok" label (Errors.to_string expected)
  | Error e ->
    Alcotest.(check string) label (Errors.to_string expected) (Errors.to_string e)

(* A whole frame's header and payload, read through a view. *)
let decode_frame b =
  let v = Proto.Frame.of_bytes b in
  (Proto.Frame.header v, Proto.Frame.payload_bytes v)

(* The world configuration a builder runs on: [config] (default
   {!World.Config.default}) on [seed] when one is given. *)
let world_config ?(config = Ntcs_sim.World.Config.default) ?seed () =
  match seed with Some seed -> { config with Ntcs_sim.World.Config.seed } | None -> config

(* Send a whole buffer as one message through an LVC's one send. *)
let lvc_send (lvc : Std_if.lvc) b = lvc.Std_if.send b ~off:0 ~len:(Bytes.length b)

let raw s = Ntcs_wire.Convert.payload_raw (Bytes.of_string s)
let raw_bytes b = Ntcs_wire.Convert.payload_raw b
let body env = Bytes.to_string env.Ali_layer.data

(* One TCP LAN: a VAX (NS host), a Sun and a second Sun. *)
let lan_cluster ?seed ?config ?tweak () =
  Cluster.build ~config:(world_config ?seed ?config ()) ?tweak
    ~nets:[ ("ether", Ntcs_sim.Net.Tcp_lan) ]
    ~machines:
      [
        ("vax1", Ntcs_sim.Machine.Vax, [ "ether" ]);
        ("sun1", Ntcs_sim.Machine.Sun3, [ "ether" ]);
        ("sun2", Ntcs_sim.Machine.Sun3, [ "ether" ]);
      ]
    ~ns:"vax1" ()

(* TCP LAN + Apollo ring bridged by one prime gateway. *)
let two_net_cluster ?seed ?config ?tweak () =
  Cluster.build ~config:(world_config ?seed ?config ()) ?tweak
    ~nets:[ ("ether", Ntcs_sim.Net.Tcp_lan); ("ring", Ntcs_sim.Net.Mbx_ring) ]
    ~machines:
      [
        ("vax1", Ntcs_sim.Machine.Vax, [ "ether" ]);
        ("bridge", Ntcs_sim.Machine.Sun3, [ "ether"; "ring" ]);
        ("ap1", Ntcs_sim.Machine.Apollo, [ "ring" ]);
        ("ap2", Ntcs_sim.Machine.Apollo, [ "ring" ]);
      ]
    ~gateways:[ ("bridge-gw", "bridge", [ "ether"; "ring" ]) ]
    ~ns:"vax1" ()

(* Three networks in a line, two gateways: lan1 -(gwA)- lan2 -(gwB)- ring. *)
let three_net_cluster ?seed ?config ?tweak () =
  Cluster.build ~config:(world_config ?seed ?config ()) ?tweak
    ~nets:
      [
        ("lan1", Ntcs_sim.Net.Tcp_lan);
        ("lan2", Ntcs_sim.Net.Tcp_lan);
        ("ring", Ntcs_sim.Net.Mbx_ring);
      ]
    ~machines:
      [
        ("vax1", Ntcs_sim.Machine.Vax, [ "lan1" ]);
        ("mid1", Ntcs_sim.Machine.Sun3, [ "lan1"; "lan2" ]);
        ("mid2", Ntcs_sim.Machine.Sun3, [ "lan2"; "ring" ]);
        ("sun1", Ntcs_sim.Machine.Sun3, [ "lan2" ]);
        ("ap1", Ntcs_sim.Machine.Apollo, [ "ring" ]);
      ]
    ~gateways:[ ("gwA", "mid1", [ "lan1"; "lan2" ]); ("gwB", "mid2", [ "lan2"; "ring" ]) ]
    ~ns:"vax1" ()

(* Spawn an echo server named [name] on [machine]: replies "echo:<data>" to
   synchronous sends, counts messages into [hits] if given. *)
let spawn_echo ?(attrs = []) ?hits cluster ~machine ~name =
  ignore
    (Cluster.spawn cluster ~machine ~name (fun node ->
         match Commod.bind node ~name ~attrs with
         | Error e -> Alcotest.failf "echo %s bind failed: %s" name (Errors.to_string e)
         | Ok commod ->
           let rec loop () =
             (match Ali_layer.receive commod with
              | Ok env ->
                (match hits with Some r -> incr r | None -> ());
                if Ali_layer.expects_reply env then
                  ignore
                    (Ali_layer.reply commod env
                       (raw_bytes (Bytes.cat (Bytes.of_string "echo:") env.Ali_layer.data)))
              | Error _ -> ());
             loop ()
           in
           loop ()))

(* Run [f] in a fresh client process and return a lazy result cell; fails
   the test if the body never completed by the time the cell is read. *)
let in_process cluster ~machine ~name f =
  let cell = ref None in
  ignore
    (Cluster.spawn cluster ~machine ~name (fun node -> cell := Some (f node)));
  fun () ->
    match !cell with
    | Some v -> v
    | None -> Alcotest.failf "process %s did not complete" name

(* Bind a ComMod or fail the test. *)
let bind_exn node ~name = check_ok ("bind " ^ name) (Commod.bind node ~name)

(* The injected race: a registered exclusive cell that a writer and a
   reader, spawned on [m] at the same instant with nothing ordering them,
   each touch twice. Arm the race checker on [w] first; it reports the
   pattern as exactly one conflict. *)
let inject_race w m =
  let sched = Ntcs_sim.World.sched w in
  let cell =
    Ntcs_sim.Sched.register_cell sched ~name:"test.cell" ~policy:Ntcs_sim.Sched.Exclusive
  in
  let touch ~write () =
    Ntcs_sim.Sched.access sched cell ~write;
    Ntcs_sim.Sched.access sched cell ~write
  in
  ignore (Ntcs_sim.World.spawn w ~machine:m ~name:"writer" (touch ~write:true));
  ignore (Ntcs_sim.World.spawn w ~machine:m ~name:"reader" (touch ~write:false))
