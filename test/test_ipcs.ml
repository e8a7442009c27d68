(* Tests for the native IPCS backends: physical addresses, simulated TCP
   (stream semantics), simulated MBX (message semantics). *)

open Ntcs_sim
open Ntcs_ipcs

let addr = Alcotest.testable (Fmt.of_to_string Phys_addr.to_string) ( = )

let test_phys_addr_roundtrip () =
  let cases =
    [ Phys_addr.tcp ~host:"vax1" ~port:4000; Phys_addr.mbx ~path:"//m/node_data/mbx/x.1" ]
  in
  List.iter
    (fun a ->
      match Phys_addr.of_string (Phys_addr.to_string a) with
      | Some b -> Alcotest.check addr "roundtrip" a b
      | None -> Alcotest.failf "failed to parse %s" (Phys_addr.to_string a))
    cases

let test_phys_addr_parse_errors () =
  List.iter
    (fun s -> Alcotest.(check bool) ("reject " ^ s) true (Phys_addr.of_string s = None))
    [ ""; "bogus"; "tcp://"; "tcp://host"; "tcp://host:abc"; "tcp://:123"; "mbx:"; "http://x" ]

let test_phys_addr_kind () =
  Alcotest.(check string) "tcp kind" "tcp"
    (Phys_addr.kind_to_string (Phys_addr.kind (Phys_addr.tcp ~host:"h" ~port:1)));
  Alcotest.(check string) "mbx kind" "mbx"
    (Phys_addr.kind_to_string (Phys_addr.kind (Phys_addr.mbx ~path:"p")))

(* --- scaffolding for backend tests --- *)

type rig = {
  world : World.t;
  reg : Registry.t;
  vax : Machine.t;
  sun : Machine.t;
  apollo1 : Machine.t;
  apollo2 : Machine.t;
  lan : Net.t;
}

let make_rig () =
  let world = World.create ~config:{ World.Config.default with World.Config.seed = 17 } () in
  let lan = World.add_net world ~name:"lan" Net.Tcp_lan () in
  let ring = World.add_net world ~name:"ring" Net.Mbx_ring () in
  let vax = World.add_machine world ~name:"vax" Machine.Vax () in
  let sun = World.add_machine world ~name:"sun" Machine.Sun3 () in
  let apollo1 = World.add_machine world ~name:"ap1" Machine.Apollo () in
  let apollo2 = World.add_machine world ~name:"ap2" Machine.Apollo () in
  World.attach world vax lan;
  World.attach world sun lan;
  World.attach world apollo1 ring;
  World.attach world apollo2 ring;
  { world; reg = Registry.create world; vax; sun; apollo1; apollo2; lan }

let spawn rig ~machine f = ignore (World.spawn rig.world ~machine ~name:"t" f)

let run rig = World.run rig.world

(* --- TCP --- *)

let test_tcp_connect_and_stream () =
  let rig = make_rig () in
  let tcp = Registry.tcp rig.reg in
  let server_got = Buffer.create 64 in
  let reads = ref 0 in
  spawn rig ~machine:rig.vax (fun () ->
      let l =
        match Ipcs_tcp.listen tcp ~machine:rig.vax ~port:9000 with
        | Ok l -> l
        | Error e -> Alcotest.failf "listen: %s" (Ipcs_error.to_string e)
      in
      match Ipcs_tcp.accept l with
      | Error e -> Alcotest.failf "accept: %s" (Ipcs_error.to_string e)
      | Ok conn ->
        let rec drain () =
          match Ipcs_tcp.recv ~timeout_us:500_000 conn with
          | Ok chunk ->
            incr reads;
            Buffer.add_bytes server_got chunk;
            drain ()
          | Error _ -> ()
        in
        drain ());
  spawn rig ~machine:rig.sun (fun () ->
      match
        Ipcs_tcp.connect tcp ~machine:rig.sun ~dst:(Phys_addr.tcp ~host:"vax" ~port:9000)
      with
      | Error e -> Alcotest.failf "connect: %s" (Ipcs_error.to_string e)
      | Ok conn ->
        ignore (Ipcs_tcp.send conn (Bytes.of_string "hello "));
        ignore (Ipcs_tcp.send conn (Bytes.of_string "world. "));
        ignore (Ipcs_tcp.send conn (Bytes.make 5000 'z'));
        Sched.sleep (World.sched rig.world) 300_000;
        Ipcs_tcp.close conn);
  run rig;
  let s = Buffer.contents server_got in
  Alcotest.(check int) "total bytes" (13 + 5000) (String.length s);
  Alcotest.(check string) "prefix" "hello world. " (String.sub s 0 13);
  Alcotest.(check bool) "stream was chunked" true (!reads >= 2)

let test_tcp_refused_and_no_host () =
  let rig = make_rig () in
  let tcp = Registry.tcp rig.reg in
  let results = ref [] in
  spawn rig ~machine:rig.sun (fun () ->
      (match
         Ipcs_tcp.connect tcp ~machine:rig.sun ~dst:(Phys_addr.tcp ~host:"vax" ~port:1)
       with
       | Error e -> results := ("refused", Ipcs_error.to_string e) :: !results
       | Ok _ -> ());
      (match
         Ipcs_tcp.connect tcp ~machine:rig.sun ~dst:(Phys_addr.tcp ~host:"nowhere" ~port:1)
       with
       | Error e -> results := ("nohost", Ipcs_error.to_string e) :: !results
       | Ok _ -> ());
      match
        Ipcs_tcp.connect tcp ~machine:rig.sun ~dst:(Phys_addr.tcp ~host:"ap1" ~port:1)
      with
      | Error e -> results := ("no-common-net", Ipcs_error.to_string e) :: !results
      | Ok _ -> ());
  run rig;
  Alcotest.(check (option string)) "refused" (Some "refused")
    (List.assoc_opt "refused" !results);
  Alcotest.(check (option string)) "no host" (Some "no-such-host")
    (List.assoc_opt "nohost" !results);
  Alcotest.(check (option string)) "unreachable" (Some "unreachable")
    (List.assoc_opt "no-common-net" !results)

let test_tcp_fin_detected () =
  let rig = make_rig () in
  let tcp = Registry.tcp rig.reg in
  let saw_close = ref false in
  spawn rig ~machine:rig.vax (fun () ->
      let l =
        match Ipcs_tcp.listen tcp ~machine:rig.vax ~port:9001 with
        | Ok l -> l
        | Error _ -> Alcotest.fail "listen"
      in
      match Ipcs_tcp.accept l with
      | Error _ -> Alcotest.fail "accept"
      | Ok conn -> (
        match Ipcs_tcp.recv conn with
        | Error Ipcs_error.Closed -> saw_close := true
        | Error _ | Ok _ -> ()));
  spawn rig ~machine:rig.sun (fun () ->
      match
        Ipcs_tcp.connect tcp ~machine:rig.sun ~dst:(Phys_addr.tcp ~host:"vax" ~port:9001)
      with
      | Error _ -> Alcotest.fail "connect"
      | Ok conn -> Ipcs_tcp.close conn);
  run rig;
  Alcotest.(check bool) "FIN surfaced as Closed" true !saw_close

let test_tcp_partition_breaks_send () =
  let rig = make_rig () in
  let tcp = Registry.tcp rig.reg in
  let send_result = ref (Ok ()) in
  spawn rig ~machine:rig.vax (fun () ->
      let l =
        match Ipcs_tcp.listen tcp ~machine:rig.vax ~port:9002 with
        | Ok l -> l
        | Error _ -> Alcotest.fail "listen"
      in
      ignore (Ipcs_tcp.accept l));
  spawn rig ~machine:rig.sun (fun () ->
      match
        Ipcs_tcp.connect tcp ~machine:rig.sun ~dst:(Phys_addr.tcp ~host:"vax" ~port:9002)
      with
      | Error _ -> Alcotest.fail "connect"
      | Ok conn ->
        rig.lan.Net.up <- false;
        send_result := Ipcs_tcp.send conn (Bytes.of_string "x");
        Alcotest.(check bool) "conn broken" false (Ipcs_tcp.is_open conn));
  run rig;
  Alcotest.(check bool) "send failed" true
    (match !send_result with Error Ipcs_error.Closed -> true | Error _ | Ok () -> false)

let test_tcp_double_listen () =
  let rig = make_rig () in
  let tcp = Registry.tcp rig.reg in
  (match Ipcs_tcp.listen tcp ~machine:rig.vax ~port:9003 with
   | Ok _ -> ()
   | Error _ -> Alcotest.fail "first listen");
  match Ipcs_tcp.listen tcp ~machine:rig.vax ~port:9003 with
  | Error Ipcs_error.Already_bound -> ()
  | Error e -> Alcotest.failf "wrong error %s" (Ipcs_error.to_string e)
  | Ok _ -> Alcotest.fail "second listen should fail"

(* --- MBX --- *)

let test_mbx_message_boundaries () =
  let rig = make_rig () in
  let mbx = Registry.mbx rig.reg in
  let got = ref [] in
  spawn rig ~machine:rig.apollo1 (fun () ->
      let mb =
        match Ipcs_mbx.create_mailbox mbx ~machine:rig.apollo1 ~path:"//ap1/mbx/test" with
        | Ok mb -> mb
        | Error _ -> Alcotest.fail "create mailbox"
      in
      match Ipcs_mbx.accept mb with
      | Error _ -> Alcotest.fail "accept"
      | Ok chan ->
        for _ = 1 to 3 do
          match Ipcs_mbx.recv ~timeout_us:1_000_000 chan with
          | Ok m -> got := Bytes.to_string m :: !got
          | Error _ -> ()
        done);
  spawn rig ~machine:rig.apollo2 (fun () ->
      match
        Ipcs_mbx.open_chan mbx ~machine:rig.apollo2
          ~dst:(Phys_addr.mbx ~path:"//ap1/mbx/test")
      with
      | Error _ -> Alcotest.fail "open"
      | Ok chan ->
        ignore (Ipcs_mbx.send chan (Bytes.of_string "one"));
        ignore (Ipcs_mbx.send chan (Bytes.of_string "two"));
        ignore (Ipcs_mbx.send chan (Bytes.of_string "three")));
  run rig;
  Alcotest.(check (list string)) "boundaries preserved" [ "one"; "two"; "three" ]
    (List.rev !got)

let test_mbx_too_big_and_refused () =
  let rig = make_rig () in
  let mbx = Registry.mbx rig.reg in
  let results = ref [] in
  spawn rig ~machine:rig.apollo1 (fun () ->
      let mb =
        match Ipcs_mbx.create_mailbox mbx ~machine:rig.apollo1 ~path:"//ap1/mbx/big" with
        | Ok mb -> mb
        | Error _ -> Alcotest.fail "create"
      in
      ignore (Ipcs_mbx.accept mb));
  spawn rig ~machine:rig.apollo2 (fun () ->
      (match
         Ipcs_mbx.open_chan mbx ~machine:rig.apollo2 ~dst:(Phys_addr.mbx ~path:"//no/such")
       with
       | Error e -> results := ("missing", Ipcs_error.to_string e) :: !results
       | Ok _ -> ());
      match
        Ipcs_mbx.open_chan mbx ~machine:rig.apollo2 ~dst:(Phys_addr.mbx ~path:"//ap1/mbx/big")
      with
      | Error _ -> Alcotest.fail "open"
      | Ok chan -> (
        match Ipcs_mbx.send chan (Bytes.make (Ipcs_mbx.max_message_size + 1) 'x') with
        | Error e -> results := ("toobig", Ipcs_error.to_string e) :: !results
        | Ok () -> ()));
  run rig;
  Alcotest.(check (option string)) "missing mailbox" (Some "refused")
    (List.assoc_opt "missing" !results);
  Alcotest.(check (option string)) "too big" (Some "too-big") (List.assoc_opt "toobig" !results)

let test_mbx_queue_full () =
  let rig = make_rig () in
  let mbx = Registry.mbx rig.reg in
  let full_seen = ref false in
  spawn rig ~machine:rig.apollo1 (fun () ->
      let mb =
        match Ipcs_mbx.create_mailbox mbx ~machine:rig.apollo1 ~path:"//ap1/mbx/full" with
        | Ok mb -> mb
        | Error _ -> Alcotest.fail "create"
      in
      ignore (Ipcs_mbx.accept mb);
      Sched.sleep (World.sched rig.world) 60_000_000);
  spawn rig ~machine:rig.apollo2 (fun () ->
      match
        Ipcs_mbx.open_chan mbx ~machine:rig.apollo2 ~dst:(Phys_addr.mbx ~path:"//ap1/mbx/full")
      with
      | Error _ -> Alcotest.fail "open"
      | Ok chan ->
        for _ = 1 to 200 do
          (match Ipcs_mbx.send chan (Bytes.of_string "m") with
           | Error Ipcs_error.Queue_full -> full_seen := true
           | Error _ | Ok () -> ());
          Sched.sleep (World.sched rig.world) 1_000
        done);
  run rig;
  Alcotest.(check bool) "bounded queue refused" true !full_seen

let test_mbx_ring_only () =
  let rig = make_rig () in
  let mbx = Registry.mbx rig.reg in
  spawn rig ~machine:rig.apollo1 (fun () ->
      ignore (Ipcs_mbx.create_mailbox mbx ~machine:rig.apollo1 ~path:"//ap1/mbx/ro"));
  let result = ref (Ok ()) in
  spawn rig ~machine:rig.vax (fun () ->
      Sched.sleep (World.sched rig.world) 1000;
      match
        Ipcs_mbx.open_chan mbx ~machine:rig.vax ~dst:(Phys_addr.mbx ~path:"//ap1/mbx/ro")
      with
      | Error e -> result := Error e
      | Ok _ -> ());
  run rig;
  Alcotest.(check bool) "unreachable across kinds" true
    (match !result with Error Ipcs_error.Unreachable -> true | Error _ | Ok () -> false)

let () =
  Alcotest.run "ntcs_ipcs"
    [
      ( "phys_addr",
        [
          Alcotest.test_case "roundtrip" `Quick test_phys_addr_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_phys_addr_parse_errors;
          Alcotest.test_case "kinds" `Quick test_phys_addr_kind;
        ] );
      ( "tcp",
        [
          Alcotest.test_case "connect and stream" `Quick test_tcp_connect_and_stream;
          Alcotest.test_case "refused / no host / unreachable" `Quick
            test_tcp_refused_and_no_host;
          Alcotest.test_case "fin detected" `Quick test_tcp_fin_detected;
          Alcotest.test_case "partition breaks send" `Quick test_tcp_partition_breaks_send;
          Alcotest.test_case "double listen" `Quick test_tcp_double_listen;
        ] );
      ( "mbx",
        [
          Alcotest.test_case "message boundaries" `Quick test_mbx_message_boundaries;
          Alcotest.test_case "too big and refused" `Quick test_mbx_too_big_and_refused;
          Alcotest.test_case "queue full" `Quick test_mbx_queue_full;
          Alcotest.test_case "ring only" `Quick test_mbx_ring_only;
        ] );
    ]
