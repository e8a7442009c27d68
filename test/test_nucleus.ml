(* End-to-end tests of the Nucleus + ComMod on a single network: binding,
   registration, resource location, all communication primitives, typed
   messages, conversion-mode adaptation and TAdd purging (E3). *)

open Ntcs
open Helpers

let test_bind_and_locate () =
  let c = lan_cluster () in
  Cluster.settle c;
  spawn_echo c ~machine:"sun1" ~name:"svc";
  Cluster.settle c;
  let result =
    in_process c ~machine:"vax1" ~name:"client" (fun node ->
        let commod = bind_exn node ~name:"client" in
        let addr = check_ok "locate" (Ali_layer.locate commod "svc") in
        let my = check_ok "my addr" (Ali_layer.my_address commod) in
        (addr, my))
  in
  Cluster.settle c;
  let addr, my = result () in
  Alcotest.(check bool) "service addr unique" true (Addr.is_unique addr);
  Alcotest.(check bool) "own addr unique after registration" true (Addr.is_unique my);
  Alcotest.(check bool) "distinct" false (Addr.equal addr my)

let test_locate_unknown () =
  let c = lan_cluster () in
  Cluster.settle c;
  let result =
    in_process c ~machine:"vax1" ~name:"client" (fun node ->
        let commod = bind_exn node ~name:"client" in
        Ali_layer.locate commod "no-such-module")
  in
  Cluster.settle c;
  check_err "unknown name" Errors.Unknown_name (result ())

let test_send_sync_and_async () =
  let c = lan_cluster () in
  Cluster.settle c;
  let hits = ref 0 in
  spawn_echo c ~machine:"sun1" ~name:"svc" ~hits;
  Cluster.settle c;
  let result =
    in_process c ~machine:"sun2" ~name:"client" (fun node ->
        let commod = bind_exn node ~name:"client" in
        let addr = check_ok "locate" (Ali_layer.locate commod "svc") in
        check_ok "async" (Ali_layer.send commod ~dst:addr (raw "fire-and-forget"));
        let env = check_ok "sync" (Ali_layer.send_sync commod ~dst:addr (raw "question")) in
        body env)
  in
  Cluster.settle c;
  Alcotest.(check string) "echoed" "echo:question" (result ());
  Alcotest.(check int) "server saw both" 2 !hits

let test_dgram () =
  let c = lan_cluster () in
  Cluster.settle c;
  let hits = ref 0 in
  spawn_echo c ~machine:"sun1" ~name:"svc" ~hits;
  Cluster.settle c;
  let result =
    in_process c ~machine:"vax1" ~name:"client" (fun node ->
        let commod = bind_exn node ~name:"client" in
        let addr = check_ok "locate" (Ali_layer.locate commod "svc") in
        check_ok "dgram" (Ali_layer.send_dgram commod ~dst:addr (raw "datagram"));
        true)
  in
  Cluster.settle c;
  Alcotest.(check bool) "completed" true (result ());
  Alcotest.(check int) "delivered" 1 !hits

let test_receive_timeout () =
  let c = lan_cluster () in
  Cluster.settle c;
  let result =
    in_process c ~machine:"sun1" ~name:"client" (fun node ->
        let commod = bind_exn node ~name:"quiet" in
        Ali_layer.receive ~timeout_us:100_000 commod)
  in
  Cluster.settle c;
  check_err "receive timeout" Errors.Timeout (result ())

let test_sync_timeout_when_no_reply () =
  let c = lan_cluster () in
  Cluster.settle c;
  (* A sink that never replies. *)
  ignore
    (Cluster.spawn c ~machine:"sun1" ~name:"sink" (fun node ->
         let commod = bind_exn node ~name:"sink" in
         let rec loop () =
           ignore (Ali_layer.receive commod);
           loop ()
         in
         loop ()));
  Cluster.settle c;
  let result =
    in_process c ~machine:"sun2" ~name:"client" (fun node ->
        let commod = bind_exn node ~name:"client" in
        let addr = check_ok "locate" (Ali_layer.locate commod "sink") in
        Ali_layer.send_sync commod ~dst:addr ~timeout_us:300_000 (raw "hello?"))
  in
  Cluster.settle c;
  check_err "sync timeout" Errors.Timeout (result ())

let test_reply_validation () =
  let c = lan_cluster () in
  Cluster.settle c;
  let reply_to_async = ref (Ok ()) in
  ignore
    (Cluster.spawn c ~machine:"sun1" ~name:"svc" (fun node ->
         let commod = bind_exn node ~name:"svc" in
         match Ali_layer.receive commod with
         | Ok env -> reply_to_async := Ali_layer.reply commod env (raw "bogus")
         | Error _ -> ()));
  Cluster.settle c;
  ignore
    ((in_process c ~machine:"sun2" ~name:"client" (fun node ->
          let commod = bind_exn node ~name:"client" in
          let addr = check_ok "locate" (Ali_layer.locate commod "svc") in
          check_ok "async" (Ali_layer.send commod ~dst:addr (raw "no-reply-expected"))))
       : unit -> unit);
  Cluster.settle c;
  Alcotest.(check bool) "reply to async refused" true
    (match !reply_to_async with Error (Errors.Internal _) -> true | _ -> false)

let test_send_to_temporary_address_rejected () =
  let c = lan_cluster () in
  Cluster.settle c;
  let result =
    in_process c ~machine:"sun1" ~name:"client" (fun node ->
        let commod = bind_exn node ~name:"client" in
        Ali_layer.send commod ~dst:(Addr.temporary ~assigner:5 ~value:1) (raw "x"))
  in
  Cluster.settle c;
  Alcotest.(check bool) "veneer rejects TAdd" true
    (match result () with Error (Errors.Internal _) -> true | _ -> false)

let test_large_message_over_tcp_framing () =
  let c = lan_cluster () in
  Cluster.settle c;
  spawn_echo c ~machine:"sun1" ~name:"svc";
  Cluster.settle c;
  let n = 200_000 in
  let result =
    in_process c ~machine:"sun2" ~name:"client" (fun node ->
        let commod = bind_exn node ~name:"client" in
        let addr = check_ok "locate" (Ali_layer.locate commod "svc") in
        let big = Bytes.init n (fun i -> Char.chr (i land 0xFF)) in
        let env =
          check_ok "big sync"
            (Ali_layer.send_sync commod ~dst:addr ~timeout_us:30_000_000 (raw_bytes big))
        in
        env.Ali_layer.data)
  in
  Cluster.settle ~dt:40_000_000 c;
  let data = result () in
  Alcotest.(check int) "length" (n + 5) (Bytes.length data);
  Alcotest.(check string) "prefix" "echo:" (Bytes.sub_string data 0 5);
  (* Byte-exact echo of the payload. *)
  let ok = ref true in
  for i = 0 to n - 1 do
    if Bytes.get data (i + 5) <> Char.chr (i land 0xFF) then ok := false
  done;
  Alcotest.(check bool) "payload intact" true !ok

let test_conversion_mode_adapts () =
  let c = lan_cluster () in
  Cluster.settle c;
  spawn_echo c ~machine:"sun1" ~name:"svc";
  Cluster.settle c;
  let modes = ref [] in
  ignore
    (Cluster.spawn c ~machine:"sun2" ~name:"same-order" (fun node ->
         let commod = bind_exn node ~name:"same-order" in
         let addr = check_ok "locate" (Ali_layer.locate commod "svc") in
         let env = check_ok "sync" (Ali_layer.send_sync commod ~dst:addr (raw "q1")) in
         modes := ("sun->sun reply", env.Ali_layer.mode) :: !modes));
  ignore
    (Cluster.spawn c ~machine:"vax1" ~name:"cross-order" (fun node ->
         let commod = bind_exn node ~name:"cross-order" in
         let addr = check_ok "locate" (Ali_layer.locate commod "svc") in
         let env = check_ok "sync" (Ali_layer.send_sync commod ~dst:addr (raw "q2")) in
         modes := ("sun->vax reply", env.Ali_layer.mode) :: !modes));
  Cluster.settle c;
  Alcotest.(check bool) "identical machines use image mode" true
    (List.assoc "sun->sun reply" !modes = Ntcs_wire.Convert.Image);
  Alcotest.(check bool) "incompatible machines use packed mode" true
    (List.assoc "sun->vax reply" !modes = Ntcs_wire.Convert.Packed)

(* Typed messages across the byte-order boundary: the application describes
   the structure once; values survive VAX <-> Sun exactly. *)
module Point_msg = struct
  type t = { x : int; y : int; label : string }

  let app_tag = 42
  let layout = Ntcs_wire.Layout.[ F_i32; F_i32; F_char_array 16 ]

  let to_values p = Ntcs_wire.Layout.[ V_int p.x; V_int p.y; V_str p.label ]

  let of_values = function
    | Ntcs_wire.Layout.[ V_int x; V_int y; V_str label ] -> { x; y; label }
    | _ -> invalid_arg "point"
end

let test_typed_messages_heterogeneous () =
  let c = lan_cluster () in
  Cluster.settle c;
  let received = ref [] in
  ignore
    (Cluster.spawn c ~machine:"vax1" ~name:"typed-server" (fun node ->
         let commod = bind_exn node ~name:"typed-server" in
         for _ = 1 to 2 do
           match Ali_layer.receive commod with
           | Ok env ->
             let p = check_ok "decode" (Typed_msg.decode (module Point_msg) commod env) in
             received :=
               (Printf.sprintf "%d,%d,%s via %s" p.Point_msg.x p.Point_msg.y p.Point_msg.label
                  (Ntcs_wire.Convert.mode_to_string env.Ali_layer.mode))
               :: !received
           | Error _ -> ()
         done));
  Cluster.settle c;
  (* Sun (big endian) -> VAX: packed. *)
  ignore
    (Cluster.spawn c ~machine:"sun1" ~name:"typed-sun" (fun node ->
         let commod = bind_exn node ~name:"typed-sun" in
         let addr = check_ok "locate" (Ali_layer.locate commod "typed-server") in
         check_ok "send"
           (Typed_msg.send (module Point_msg) commod ~dst:addr
              { Point_msg.x = -5; y = 70000; label = "sun" })));
  Cluster.settle c;
  (* VAX -> VAX: image. *)
  ignore
    (Cluster.spawn c ~machine:"vax1" ~name:"typed-vax" (fun node ->
         let commod = bind_exn node ~name:"typed-vax" in
         let addr = check_ok "locate" (Ali_layer.locate commod "typed-server") in
         check_ok "send"
           (Typed_msg.send (module Point_msg) commod ~dst:addr
              { Point_msg.x = 123; y = -9; label = "vax" })));
  Cluster.settle c;
  let got = List.sort compare !received in
  Alcotest.(check (list string)) "values exact in both modes"
    [ "-5,70000,sun via packed"; "123,-9,vax via image" ]
    got

let test_tadd_purge_within_two_ns_exchanges () =
  (* E3: "TAdds for any given module will be purged from all layers within
     the first two communications with the Name Server." Registration is the
     first exchange; by the time bind returns, one more NS-bound message must
     complete the purge. We check the name server refers to the module by
     real UAdd immediately after its next request. *)
  let c = lan_cluster () in
  Cluster.settle c;
  let m = Cluster.metrics c in
  let result =
    in_process c ~machine:"sun1" ~name:"client" (fun node ->
        let commod = bind_exn node ~name:"purge-test" in
        (* Second NS communication: any lookup. *)
        ignore (Ali_layer.locate commod "purge-test");
        Ntcs_obs.Registry.get m "tadd.purged")
  in
  Cluster.settle c;
  let purged = result () in
  Alcotest.(check bool) "the NS purged the module's TAdd" true (purged >= 1)

let test_close_deregisters () =
  let c = lan_cluster () in
  Cluster.settle c;
  ignore
    (Cluster.spawn c ~machine:"sun1" ~name:"ephemeral" (fun node ->
         let commod = bind_exn node ~name:"ephemeral" in
         Commod.close commod));
  Cluster.settle c;
  let result =
    in_process c ~machine:"sun2" ~name:"client" (fun node ->
        let commod = bind_exn node ~name:"client" in
        Ali_layer.locate commod "ephemeral")
  in
  Cluster.settle c;
  check_err "deregistered module not locatable" Errors.Unknown_name (result ())

let test_tag_filtered_receive () =
  let c = lan_cluster () in
  Cluster.settle c;
  let got = ref [] in
  ignore
    (Cluster.spawn c ~machine:"sun1" ~name:"mux" (fun node ->
         let commod = bind_exn node ~name:"mux" in
         (* Pull tag 2 first even though tag 1 arrives first; then tag 1
            must still be available from the stash. *)
         (match Ali_layer.receive ~app_tag:2 commod with
          | Ok env -> got := ("tag2", body env) :: !got
          | Error e -> got := ("tag2", Errors.to_string e) :: !got);
         (match Ali_layer.receive ~app_tag:1 commod with
          | Ok env -> got := ("tag1", body env) :: !got
          | Error e -> got := ("tag1", Errors.to_string e) :: !got);
         match Ali_layer.receive ~app_tag:3 ~timeout_us:200_000 commod with
         | Ok _ -> got := ("tag3", "unexpected") :: !got
         | Error e -> got := ("tag3", Errors.to_string e) :: !got));
  Cluster.settle c;
  ignore
    (Cluster.spawn c ~machine:"sun2" ~name:"sender" (fun node ->
         let commod = bind_exn node ~name:"sender" in
         let addr = check_ok "locate" (Ali_layer.locate commod "mux") in
         check_ok "send 1" (Ali_layer.send commod ~dst:addr ~app_tag:1 (raw "first"));
         check_ok "send 2" (Ali_layer.send commod ~dst:addr ~app_tag:2 (raw "second"))));
  Cluster.settle ~dt:10_000_000 c;
  Alcotest.(check (option string)) "tag 2 first" (Some "second") (List.assoc_opt "tag2" !got);
  Alcotest.(check (option string)) "tag 1 from stash" (Some "first")
    (List.assoc_opt "tag1" !got);
  Alcotest.(check (option string)) "tag 3 times out" (Some "timeout")
    (List.assoc_opt "tag3" !got)

let test_commod_stats () =
  let c = lan_cluster () in
  Cluster.settle c;
  spawn_echo c ~machine:"sun1" ~name:"svc";
  Cluster.settle c;
  let m = Cluster.metrics c in
  let get = Ntcs_obs.Registry.get m in
  let sends0 = get "lcm.sends" and syncs0 = get "lcm.sync_sends" in
  let done_ = ref false in
  ignore
    (Cluster.spawn c ~machine:"sun2" ~name:"client" (fun node ->
         let commod = bind_exn node ~name:"client" in
         let addr = check_ok "locate" (Ali_layer.locate commod "svc") in
         check_ok "async" (Ali_layer.send commod ~dst:addr (raw "a"));
         ignore (check_ok "sync" (Ali_layer.send_sync commod ~dst:addr (raw "s")));
         done_ := true));
  Cluster.settle ~dt:10_000_000 c;
  Alcotest.(check bool) "client finished" true !done_;
  (* The client's 1 async + 1 sync, plus the NSP traffic (registration,
     name lookup, address resolution) riding the same ComMod: the
     recursion made visible in the world's counters. *)
  Alcotest.(check int) "one async send" 1 (get "lcm.sends" - sends0);
  Alcotest.(check int) "sync calls include NSP round trips" 4 (get "lcm.sync_sends" - syncs0);
  Alcotest.(check int) "no faults" 0 (get "lcm.addr_faults")

let () =
  Alcotest.run "nucleus"
    [
      ( "binding",
        [
          Alcotest.test_case "bind and locate" `Quick test_bind_and_locate;
          Alcotest.test_case "locate unknown" `Quick test_locate_unknown;
          Alcotest.test_case "close deregisters" `Quick test_close_deregisters;
        ] );
      ( "primitives",
        [
          Alcotest.test_case "send sync and async" `Quick test_send_sync_and_async;
          Alcotest.test_case "dgram" `Quick test_dgram;
          Alcotest.test_case "receive timeout" `Quick test_receive_timeout;
          Alcotest.test_case "sync timeout" `Quick test_sync_timeout_when_no_reply;
          Alcotest.test_case "reply validation" `Quick test_reply_validation;
          Alcotest.test_case "tadd send rejected" `Quick test_send_to_temporary_address_rejected;
          Alcotest.test_case "large message framing" `Quick test_large_message_over_tcp_framing;
        ] );
      ( "conversion",
        [
          Alcotest.test_case "mode adapts to machines" `Quick test_conversion_mode_adapts;
          Alcotest.test_case "typed heterogeneous" `Quick test_typed_messages_heterogeneous;
        ] );
      ( "tadds",
        [ Alcotest.test_case "purged within two NS exchanges" `Quick
            test_tadd_purge_within_two_ns_exchanges ] );
      ( "utilities",
        [
          Alcotest.test_case "tag-filtered receive" `Quick test_tag_filtered_receive;
          Alcotest.test_case "commod stats" `Quick test_commod_stats;
        ] );
    ]
