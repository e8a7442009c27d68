(* The naming service (§3): lookup semantics, attribute-based naming,
   forwarding logic, cache-only operation after name-server removal (E1),
   and replicated name servers with failover (E10, the §7 successor). *)

open Ntcs
open Helpers

let test_newest_wins_on_duplicate_name () =
  let c = lan_cluster () in
  Cluster.settle c;
  let first = ref None and second = ref None in
  ignore
    (Cluster.spawn c ~machine:"sun1" ~name:"gen0" (fun node ->
         let commod = bind_exn node ~name:"dup" in
         first := Some (Commod.my_addr commod);
         Ntcs_sim.Sched.sleep (Node.sched node) 60_000_000));
  Cluster.settle c;
  ignore
    (Cluster.spawn c ~machine:"sun2" ~name:"gen1" (fun node ->
         let commod = bind_exn node ~name:"dup" in
         second := Some (Commod.my_addr commod);
         Ntcs_sim.Sched.sleep (Node.sched node) 60_000_000));
  Cluster.settle c;
  let result =
    in_process c ~machine:"vax1" ~name:"client" (fun node ->
        let commod = bind_exn node ~name:"client" in
        check_ok "locate" (Ali_layer.locate commod "dup"))
  in
  Cluster.settle c;
  (match (!second, result ()) with
   | Some expected, got -> Alcotest.(check bool) "newest instance wins" true (Addr.equal expected got)
   | None, _ -> Alcotest.fail "second instance missing")

let test_attribute_lookup () =
  let c = lan_cluster () in
  Cluster.settle c;
  spawn_echo c ~machine:"sun1" ~name:"idx0" ~attrs:[ ("service", "index"); ("part", "0") ];
  spawn_echo c ~machine:"sun2" ~name:"idx1" ~attrs:[ ("service", "index"); ("part", "1") ];
  spawn_echo c ~machine:"sun1" ~name:"doc0" ~attrs:[ ("service", "docs") ];
  Cluster.settle c;
  let result =
    in_process c ~machine:"vax1" ~name:"client" (fun node ->
        let commod = bind_exn node ~name:"client" in
        let all = check_ok "by service" (Ali_layer.locate_attrs commod [ ("service", "index") ]) in
        let one =
          check_ok "by two attrs"
            (Ali_layer.locate_attrs commod [ ("service", "index"); ("part", "1") ])
        in
        let none = check_ok "no match" (Ali_layer.locate_attrs commod [ ("service", "nope") ]) in
        (List.length all, List.length one, List.length none))
  in
  Cluster.settle c;
  Alcotest.(check (triple int int int)) "attr matching" (2, 1, 0) (result ())

let test_locate_entry_details () =
  let c = lan_cluster () in
  Cluster.settle c;
  spawn_echo c ~machine:"sun1" ~name:"svc" ~attrs:[ ("service", "echo") ];
  Cluster.settle c;
  let result =
    in_process c ~machine:"vax1" ~name:"client" (fun node ->
        let commod = bind_exn node ~name:"client" in
        let addr = check_ok "locate" (Ali_layer.locate commod "svc") in
        check_ok "resolve" (Ali_layer.locate_entry commod addr))
  in
  Cluster.settle c;
  let entry = result () in
  Alcotest.(check string) "name" "svc" entry.Ns_proto.e_name;
  Alcotest.(check bool) "alive" true entry.Ns_proto.e_alive;
  Alcotest.(check bool) "has phys" true (entry.Ns_proto.e_phys <> []);
  Alcotest.(check (option string)) "attrs stored" (Some "echo")
    (List.assoc_opt "service" entry.Ns_proto.e_attrs)

let test_forward_query_semantics () =
  let c = lan_cluster () in
  Cluster.settle c;
  let ns = Cluster.primary_ns c in
  (* A long-lived module and a dead one with a newer replacement. *)
  let alive_addr = ref None in
  ignore
    (Cluster.spawn c ~machine:"sun1" ~name:"alive" (fun node ->
         let commod = bind_exn node ~name:"alive-svc" in
         alive_addr := Some (Commod.my_addr commod);
         let rec loop () =
           ignore (Ali_layer.receive commod);
           loop ()
         in
         loop ()));
  let dead_addr = ref None in
  let dead_pid =
    Cluster.spawn c ~machine:"sun1" ~name:"old-gen" (fun node ->
        let commod = bind_exn node ~name:"reborn-svc" in
        dead_addr := Some (Commod.my_addr commod);
        Ntcs_sim.Sched.sleep (Node.sched node) 120_000_000)
  in
  Cluster.settle c;
  Ntcs_sim.Sched.kill (Cluster.sched c) dead_pid;
  Cluster.settle c;
  let replacement = ref None in
  ignore
    (Cluster.spawn c ~machine:"sun2" ~name:"new-gen" (fun node ->
         let commod = bind_exn node ~name:"reborn-svc" in
         replacement := Some (Commod.my_addr commod);
         Ntcs_sim.Sched.sleep (Node.sched node) 120_000_000));
  Cluster.settle c;
  (* Query the server database through a fresh client's NSP path, by sending
     Forward requests directly. *)
  let results =
    in_process c ~machine:"vax1" ~name:"prober" (fun node ->
        let commod = bind_exn node ~name:"prober" in
        let nsp = Commod.nsp_exn commod in
        let f_alive = Nsp_layer.forward_query nsp (Option.get !alive_addr) in
        let f_dead = Nsp_layer.forward_query nsp (Option.get !dead_addr) in
        let f_unknown = Nsp_layer.forward_query nsp (Addr.unique ~server_id:77 ~value:9) in
        (f_alive, f_dead, f_unknown))
  in
  Cluster.settle ~dt:10_000_000 c;
  let f_alive, f_dead, f_unknown = results () in
  Alcotest.(check bool) "alive module: no forward" true (f_alive = Ok None);
  (match f_dead with
   | Ok (Some fresh) ->
     Alcotest.(check bool) "dead module forwards to replacement" true
       (Addr.equal fresh (Option.get !replacement))
   | Ok None -> Alcotest.fail "dead module reported alive"
   | Error e -> Alcotest.failf "forward: %s" (Errors.to_string e));
  Alcotest.(check bool) "unknown address errors" true
    (match f_unknown with Error Errors.Unknown_address -> true | _ -> false);
  Alcotest.(check bool) "ns db consistent" true (Name_server.db_size ns >= 4)

let test_forward_no_replacement_is_dead () =
  let c = lan_cluster () in
  Cluster.settle c;
  let gone_addr = ref None in
  let pid =
    Cluster.spawn c ~machine:"sun1" ~name:"goner" (fun node ->
        let commod = bind_exn node ~name:"goner" in
        gone_addr := Some (Commod.my_addr commod);
        Ntcs_sim.Sched.sleep (Node.sched node) 120_000_000)
  in
  Cluster.settle c;
  Ntcs_sim.Sched.kill (Cluster.sched c) pid;
  Cluster.settle c;
  let result =
    in_process c ~machine:"vax1" ~name:"prober" (fun node ->
        let commod = bind_exn node ~name:"prober" in
        Nsp_layer.forward_query (Commod.nsp_exn commod) (Option.get !gone_addr))
  in
  Cluster.settle ~dt:10_000_000 c;
  check_err "no replacement located" Errors.Destination_dead (result ())

let test_forward_by_service_attribute () =
  (* §3.5: "then looking for a similar name in a newer module. With our new
     attribute-based naming, this is more involved." A replacement with a
     *different* logical name but the same service attribute still counts as
     similar. *)
  let c = lan_cluster () in
  Cluster.settle c;
  let old_addr = ref None in
  let pid =
    Cluster.spawn c ~machine:"sun1" ~name:"old" (fun node ->
        match Commod.bind node ~name:"searcher-v1" ~attrs:[ ("service", "search") ] with
        | Error _ -> ()
        | Ok commod ->
          old_addr := Some (Commod.my_addr commod);
          Ntcs_sim.Sched.sleep (Node.sched node) 120_000_000)
  in
  Cluster.settle c;
  Ntcs_sim.Sched.kill (Cluster.sched c) pid;
  Cluster.settle c;
  let new_addr = ref None in
  ignore
    (Cluster.spawn c ~machine:"sun2" ~name:"new" (fun node ->
         match Commod.bind node ~name:"searcher-v2" ~attrs:[ ("service", "search") ] with
         | Error _ -> ()
         | Ok commod ->
           new_addr := Some (Commod.my_addr commod);
           Ntcs_sim.Sched.sleep (Node.sched node) 120_000_000));
  Cluster.settle c;
  let fwd = ref None in
  ignore
    (Cluster.spawn c ~machine:"vax1" ~name:"prober" (fun node ->
         let commod = bind_exn node ~name:"prober" in
         fwd := Some (Nsp_layer.forward_query (Commod.nsp_exn commod) (Option.get !old_addr))));
  Cluster.settle ~dt:10_000_000 c;
  match !fwd with
  | Some (Ok (Some fresh)) ->
    Alcotest.(check bool) "forwarded across names via attribute" true
      (Addr.equal fresh (Option.get !new_addr))
  | Some (Ok None) -> Alcotest.fail "old module reported alive"
  | Some (Error e) -> Alcotest.failf "forward failed: %s" (Errors.to_string e)
  | None -> Alcotest.fail "prober never ran"

let test_ns_removal_with_warm_caches () =
  (* E1: "once all necessary addresses have been resolved ... the Name
     Server can be removed with no consequence, unless the system is
     reconfigured." *)
  let c = lan_cluster () in
  Cluster.settle c;
  spawn_echo c ~machine:"sun1" ~name:"svc";
  Cluster.settle c;
  let phase2 = ref None in
  ignore
    (Cluster.spawn c ~machine:"sun2" ~name:"client" (fun node ->
         let commod = bind_exn node ~name:"client" in
         let addr = check_ok "locate while NS up" (Ali_layer.locate commod "svc") in
         ignore (check_ok "warm" (Ali_layer.send_sync commod ~dst:addr (raw "warm")));
         (* Wait past the NS kill, then keep talking. *)
         Ntcs_sim.Sched.sleep (Node.sched node) 4_000_000;
         let after_kill = Ali_layer.send_sync commod ~dst:addr (raw "after-kill") in
         let new_locate = Ali_layer.locate commod "never-resolved" in
         phase2 := Some (after_kill, new_locate)));
  Cluster.settle c;
  (* Remove the name server. *)
  Name_server.stop (Cluster.primary_ns c);
  Cluster.crash c "vax1";
  Cluster.settle ~dt:20_000_000 c;
  match !phase2 with
  | None -> Alcotest.fail "client did not finish"
  | Some (after_kill, new_locate) ->
    (match after_kill with
     | Ok env -> Alcotest.(check string) "conversation survives NS removal" "echo:after-kill" (body env)
     | Error e -> Alcotest.failf "send after NS removal failed: %s" (Errors.to_string e));
    Alcotest.(check bool) "new resolution fails without NS" true
      (match new_locate with Error Errors.Name_service_unavailable -> true | _ -> false)

let replicated_cluster () =
  Cluster.build
    ~nets:[ ("ether", Ntcs_sim.Net.Tcp_lan) ]
    ~machines:
      [
        ("vax1", Ntcs_sim.Machine.Vax, [ "ether" ]);
        ("vax2", Ntcs_sim.Machine.Vax, [ "ether" ]);
        ("sun1", Ntcs_sim.Machine.Sun3, [ "ether" ]);
        ("sun2", Ntcs_sim.Machine.Sun3, [ "ether" ]);
      ]
    ~ns:"vax1" ~ns_replicas:[ "vax2" ] ()

let test_replication_propagates () =
  let c = replicated_cluster () in
  Cluster.settle c;
  spawn_echo c ~machine:"sun1" ~name:"svc";
  Cluster.settle c;
  (* Both servers should know the registration (pushed asynchronously). *)
  let dbs = List.map Name_server.db_size (Cluster.name_servers c) in
  Alcotest.(check int) "two servers" 2 (List.length dbs);
  List.iter (fun n -> Alcotest.(check bool) "entry propagated" true (n >= 2)) dbs

let test_replica_failover () =
  (* E10: primary dies; lookups keep working through the replica. *)
  let c = replicated_cluster () in
  Cluster.settle c;
  spawn_echo c ~machine:"sun1" ~name:"svc";
  Cluster.settle c;
  let result = ref None in
  ignore
    (Cluster.spawn c ~machine:"sun2" ~name:"client" (fun node ->
         let commod = bind_exn node ~name:"client" in
         (* Outlive the primary's crash, then locate something never cached. *)
         Ntcs_sim.Sched.sleep (Node.sched node) 4_000_000;
         result := Some (Ali_layer.locate commod "svc")));
  Cluster.settle c;
  Cluster.crash c "vax1";
  Cluster.settle ~dt:30_000_000 c;
  match !result with
  | None -> Alcotest.fail "client did not finish"
  | Some r ->
    let addr = check_ok "lookup via replica" r in
    Alcotest.(check bool) "resolved" true (Addr.is_unique addr)

let test_registration_after_primary_death () =
  let c = replicated_cluster () in
  Cluster.settle c;
  Cluster.crash c "vax1";
  Cluster.settle c;
  (* New module registers through the replica; the UAdd carries the
     replica's server id so it cannot collide with primary-assigned ones. *)
  let got = ref None in
  ignore
    (Cluster.spawn c ~machine:"sun1" ~name:"late" (fun node ->
         match Commod.bind node ~name:"late-svc" with
         | Ok commod -> got := Some (Commod.my_addr commod)
         | Error e -> Alcotest.failf "bind via replica failed: %s" (Errors.to_string e)));
  Cluster.settle ~dt:30_000_000 c;
  match !got with
  | Some addr -> Alcotest.(check bool) "registered via replica" true (Addr.is_unique addr)
  | None -> Alcotest.fail "registration did not complete"

(* --- The sharded naming plane (DESIGN.md §15) ----------------------- *)

module Shard_map = Ntcs_naming.Shard_map
module Ns_cache = Ntcs_naming.Ns_cache

let raises_invalid f =
  match f () with exception Invalid_argument _ -> true | _ -> false

let test_shard_map_basics () =
  let m = Shard_map.make ~version:3 [| "a"; "b"; "c"; "d" |] in
  Alcotest.(check int) "version" 3 (Shard_map.version m);
  Alcotest.(check int) "nshards" 4 (Shard_map.nshards m);
  Alcotest.(check (list (pair int string)))
    "bindings in ascending shard order"
    [ (0, "a"); (1, "b"); (2, "c"); (3, "d") ]
    (Shard_map.bindings m);
  Alcotest.(check string) "owner" "c" (Shard_map.owner m 2);
  Alcotest.(check bool) "owner out of range raises" true
    (raises_invalid (fun () -> Shard_map.owner m 4));
  Alcotest.(check bool) "empty owner array raises" true
    (raises_invalid (fun () -> Shard_map.make ~version:1 ([||] : int array)));
  Alcotest.(check bool) "non-positive version raises" true
    (raises_invalid (fun () -> Shard_map.make ~version:0 [| "x" |]))

let test_shard_distribution () =
  (* The FNV map must not be degenerate: over a batch of realistic names,
     every shard owns a real share. Deterministic — the hash is pinned. *)
  let m = Shard_map.make ~version:1 [| 0; 1; 2; 3 |] in
  let counts = Array.make 4 0 in
  for i = 0 to 3999 do
    let sh = Shard_map.shard_of_name m (Printf.sprintf "name-%04d" i) in
    counts.(sh) <- counts.(sh) + 1
  done;
  Array.iteri
    (fun sh n ->
      Alcotest.(check bool)
        (Printf.sprintf "shard %d owns a fair share (%d/4000)" sh n)
        true (n > 400))
    counts

let shard_map_props =
  let m = Shard_map.make ~version:1 [| 0; 1; 2; 3 |] in
  [
    QCheck.Test.make ~name:"shard_of_name: stable, in range, owner-consistent"
      ~count:300
      QCheck.(string_gen_of_size Gen.(0 -- 40) Gen.printable)
      (fun s ->
        let h = Shard_map.hash_name s in
        let sh = Shard_map.shard_of_name m s in
        h >= 0
        && h < 1 lsl 30
        && h = Shard_map.hash_name s
        && sh = h mod 4
        && Shard_map.owner_of_name m s = Shard_map.owner m sh);
  ]

let test_cache_hit_miss_ttl () =
  let c = Ns_cache.create ~capacity:8 ~nshards:4 in
  Alcotest.(check bool) "empty cache misses" true
    (Ns_cache.find c ~now:0 "k" = Ns_cache.Miss);
  Ns_cache.store c "k" ~value:41 ~shard:2 ~gen:3 ~expiry:1_000;
  (match Ns_cache.find c ~now:500 "k" with
   | Ns_cache.Hit (41, 2, 3) -> ()
   | _ -> Alcotest.fail "expected a fresh hit carrying shard 2 gen 3");
  (* TTL expiry is an ordinary miss — nothing was proved wrong — and the
     dead entry is evicted on the touch. *)
  Alcotest.(check bool) "expired entry misses" true
    (Ns_cache.find c ~now:2_000 "k" = Ns_cache.Miss);
  Alcotest.(check int) "expired entry evicted" 0 (Ns_cache.length c);
  Alcotest.(check bool) "stats count hits and misses" true
    (Ns_cache.stats c = (1, 0, 2))

let test_cache_lazy_invalidation () =
  let c = Ns_cache.create ~capacity:8 ~nshards:4 in
  Ns_cache.store c "k" ~value:"old" ~shard:1 ~gen:2 ~expiry:max_int;
  Ns_cache.store c "other" ~value:"fine" ~shard:0 ~gen:1 ~expiry:max_int;
  (* The floor raise retires shard 1's entry lazily: it stays resident and
     surfaces as Stale on its next touch, which evicts it — the caller must
     then re-look-up. *)
  Alcotest.(check int) "one resident entry invalidated" 1
    (Ns_cache.note_generation c ~shard:1 ~gen:7);
  Alcotest.(check int) "still resident until touched" 2 (Ns_cache.length c);
  Alcotest.(check int) "floor raised" 7 (Ns_cache.floor c ~shard:1);
  (match Ns_cache.find c ~now:0 "k" with
   | Ns_cache.Stale ("old", 1, 2) -> ()
   | _ -> Alcotest.fail "expected a stale hit for the retired entry");
  Alcotest.(check bool) "stale touch evicted it" true
    (Ns_cache.find c ~now:0 "k" = Ns_cache.Miss);
  (match Ns_cache.find c ~now:0 "other" with
   | Ns_cache.Hit ("fine", 0, 1) -> ()
   | _ -> Alcotest.fail "other shard's entry must be untouched");
  Alcotest.(check int) "non-increasing observation is a no-op" 0
    (Ns_cache.note_generation c ~shard:1 ~gen:7);
  Alcotest.(check int) "out-of-range shard is a no-op" 0
    (Ns_cache.note_generation c ~shard:9 ~gen:3);
  Alcotest.(check int) "out-of-range floor reads 0" 0 (Ns_cache.floor c ~shard:9);
  Alcotest.(check bool) "one stale counted" true
    (match Ns_cache.stats c with _, 1, _ -> true | _ -> false)

let test_cache_store_clamps_to_floor () =
  let c = Ns_cache.create ~capacity:8 ~nshards:2 in
  ignore (Ns_cache.note_generation c ~shard:0 ~gen:5);
  (* A fresh authoritative answer whose server counter restarted below the
     observed floor is still fresh *now*: the stored generation is clamped
     up so the entry cannot be born stale. *)
  Ns_cache.store c "k" ~value:() ~shard:0 ~gen:2 ~expiry:max_int;
  match Ns_cache.find c ~now:0 "k" with
  | Ns_cache.Hit ((), 0, 5) -> ()
  | _ -> Alcotest.fail "expected the stored generation clamped up to the floor"

let test_cache_recency_and_eviction () =
  let c = Ns_cache.create ~capacity:2 ~nshards:1 in
  Ns_cache.store c "a" ~value:1 ~shard:0 ~gen:1 ~expiry:max_int;
  Ns_cache.store c "b" ~value:2 ~shard:0 ~gen:1 ~expiry:max_int;
  Ns_cache.store c "c" ~value:3 ~shard:0 ~gen:1 ~expiry:max_int;
  Alcotest.(check int) "capacity bound holds" 2 (Ns_cache.length c);
  let order = ref [] in
  Ns_cache.iter c (fun k _ ~shard:_ ~gen:_ -> order := k :: !order);
  Alcotest.(check (list string)) "MRU first, LRU evicted" [ "c"; "b" ]
    (List.rev !order);
  Ns_cache.remove c "b";
  Alcotest.(check bool) "removed" true (Ns_cache.find c ~now:0 "b" = Ns_cache.Miss);
  Ns_cache.store c "d" ~value:4 ~shard:0 ~gen:1 ~expiry:max_int;
  Alcotest.(check int) "predicate eviction count" 1
    (Ns_cache.invalidate_if c (fun _ v -> v > 3));
  Alcotest.(check int) "survivor left" 1 (Ns_cache.length c);
  Ns_cache.clear c;
  Alcotest.(check int) "cleared" 0 (Ns_cache.length c)

let test_cache_create_clamps () =
  let c = Ns_cache.create ~capacity:0 ~nshards:0 in
  Alcotest.(check int) "nshards clamped to 1" 1 (Ns_cache.nshards c);
  Ns_cache.store c "a" ~value:1 ~shard:0 ~gen:1 ~expiry:max_int;
  Ns_cache.store c "b" ~value:2 ~shard:0 ~gen:1 ~expiry:max_int;
  Alcotest.(check int) "capacity clamped to 1" 1 (Ns_cache.length c)

let cache_props =
  [
    (* Whatever the interleaving of stores, floor raises and touches: a
       fresh hit is never below its shard's floor and a stale hit always
       is — the invariant Check_naming asserts over sim traces, here at
       the data-structure level. *)
    QCheck.Test.make ~name:"hit/stale agree with the shard floor" ~count:300
      (QCheck.make
         QCheck.Gen.(
           list_size (0 -- 60)
             (oneof
                [
                  map3
                    (fun k s g -> `Store (k, s, g))
                    (oneofl [ "a"; "b"; "c"; "d" ])
                    (int_bound 3) (int_bound 9);
                  map2 (fun s g -> `Note (s, g)) (int_bound 3) (int_bound 9);
                  map (fun k -> `Find k) (oneofl [ "a"; "b"; "c"; "d" ]);
                ])))
      (fun ops ->
        let c = Ns_cache.create ~capacity:3 ~nshards:4 in
        List.for_all
          (function
            | `Store (k, s, g) ->
              Ns_cache.store c k ~value:k ~shard:s ~gen:g ~expiry:max_int;
              true
            | `Note (s, g) ->
              ignore (Ns_cache.note_generation c ~shard:s ~gen:g);
              true
            | `Find k -> (
              match Ns_cache.find c ~now:0 k with
              | Ns_cache.Hit (_, s, g) -> g >= Ns_cache.floor c ~shard:s
              | Ns_cache.Stale (_, s, g) -> g < Ns_cache.floor c ~shard:s
              | Ns_cache.Miss -> true))
          ops);
  ]

(* The unsharded contract: a classic single server speaks the versioned
   protocol but always stamps shard 0, gen 0 — even after a §3.5
   re-registration moved its own generation — so clients' cache floors
   never move. *)
let test_unsharded_answers_gen_zero () =
  let c = lan_cluster () in
  Cluster.settle c;
  let ns = Cluster.primary_ns c in
  let old_pid =
    Cluster.spawn c ~machine:"sun1" ~name:"svc-old" (fun node ->
        ignore (bind_exn node ~name:"svc");
        Ntcs_sim.Sched.sleep (Node.sched node) 120_000_000)
  in
  Cluster.settle c;
  let stamps () =
    match Name_server.handle_request ns (Ns_proto.Lookup_v ("svc", 0)) with
    | Ns_proto.R_addr_v (addr, shard, gen) -> (
      match Name_server.handle_request ns (Ns_proto.Resolve_v addr) with
      | Ns_proto.R_entry_v (_, eshard, egen) -> (addr, (shard, gen), (eshard, egen))
      | _ -> Alcotest.fail "no R_entry_v for Resolve_v")
    | _ -> Alcotest.fail "no R_addr_v for Lookup_v"
  in
  let old_addr, lk, rs = stamps () in
  Alcotest.(check (pair int int)) "lookup stamp" (0, 0) lk;
  Alcotest.(check (pair int int)) "resolve stamp" (0, 0) rs;
  let client =
    in_process c ~machine:"vax1" ~name:"client" (fun node ->
        let commod = bind_exn node ~name:"client" in
        ignore (check_ok "cold locate" (Ali_layer.locate commod "svc"));
        ignore (check_ok "resolve" (Ali_layer.locate_entry commod old_addr));
        Ntcs_sim.Sched.sleep (Node.sched node) 6_000_000;
        let nsp = Commod.nsp_exn commod in
        let fresh = check_ok "forward" (Nsp_layer.forward_query nsp old_addr) in
        let fresh = Option.get fresh in
        ignore (check_ok "resolve fresh" (Ali_layer.locate_entry commod fresh));
        (fresh, check_ok "re-locate" (Ali_layer.locate commod "svc")))
  in
  Cluster.settle c;
  (* §3.5 relocation: the old instance dies, a newer one registers. *)
  Ntcs_sim.Sched.kill (Cluster.sched c) old_pid;
  let gen_before = Name_server.generation ns in
  spawn_echo c ~machine:"sun2" ~name:"svc";
  Cluster.settle ~dt:10_000_000 c;
  Alcotest.(check bool) "the server's own generation moved" true
    (Name_server.generation ns > gen_before);
  let fresh, relocated = client () in
  Alcotest.(check bool) "client follows the relocation" true (Addr.equal fresh relocated);
  let _, lk, rs = stamps () in
  Alcotest.(check (pair int int)) "lookup stamp after relocation" (0, 0) lk;
  Alcotest.(check (pair int int)) "resolve stamp after relocation" (0, 0) rs;
  Alcotest.(check int) "no floor ever raised" 0
    (Ntcs_obs.Registry.get (Cluster.metrics c) "nsp.cache_invalidations")

(* Four shard servers round-robin over three NS hosts (vax1 gets shards 0
   and 3), pinned 4-way FNV shard map — the same plane the naming soak
   scenarios and the naming bench run. *)
let sharded_cluster ?seed () =
  Cluster.build
    ~config:
      {
        (Helpers.world_config ?seed ()) with
        Ntcs_sim.World.Config.naming =
          { Ntcs_sim.World.Config.shards = 4; cache_capacity = 64 };
      }
    ~nets:[ ("ether", Ntcs_sim.Net.Tcp_lan) ]
    ~machines:
      [
        ("vax1", Ntcs_sim.Machine.Vax, [ "ether" ]);
        ("sun1", Ntcs_sim.Machine.Sun3, [ "ether" ]);
        ("sun2", Ntcs_sim.Machine.Sun3, [ "ether" ]);
        ("ap1", Ntcs_sim.Machine.Apollo, [ "ether" ]);
      ]
    ~ns:"vax1" ~ns_replicas:[ "sun1"; "sun2" ] ()

(* First name owned by [shard] from a deterministic candidate stream. *)
let name_on_shard shard =
  let rec pick i =
    let n = Printf.sprintf "svc%d" i in
    if Shard_map.hash_name n mod 4 = shard then n else pick (i + 1)
  in
  pick 0

let test_sharded_owner_stamps_generation () =
  let c = sharded_cluster () in
  Cluster.settle ~dt:12_000_000 c;
  let name = name_on_shard 2 in
  spawn_echo c ~machine:"ap1" ~name;
  Cluster.settle ~dt:6_000_000 c;
  let servers = Cluster.name_servers c in
  Alcotest.(check int) "four shard servers" 4 (List.length servers);
  let owner = List.nth servers 2 and backup = List.nth servers 0 in
  Alcotest.(check bool) "server 2 owns the name" true (Name_server.owns owner name);
  Alcotest.(check bool) "server 0 does not" true (not (Name_server.owns backup name));
  (* The owner stamps its invalidation generation (>= 1) on the versioned
     answer; a non-owner asked with hops >= 1 must answer locally from its
     replicated copy, unversioned (gen 0) so it can never raise a floor. *)
  (match Name_server.handle_request owner (Ns_proto.Lookup_v (name, 0)) with
   | Ns_proto.R_addr_v (addr, 2, gen) ->
     Alcotest.(check bool) "owner address resolved" true (Addr.is_unique addr);
     Alcotest.(check bool) "owner gen versioned" true
       (gen >= 1 && gen = Name_server.generation owner)
   | _ -> Alcotest.fail "owner did not answer R_addr_v for its shard");
  match Name_server.handle_request backup (Ns_proto.Lookup_v (name, 1)) with
  | Ns_proto.R_addr_v (_, 2, 0) -> ()
  | Ns_proto.R_addr_v (_, s, g) ->
    Alcotest.failf "backup answered shard %d gen %d (want shard 2 gen 0)" s g
  | _ -> Alcotest.fail "backup did not answer locally at the hop bound"

(* The four shard servers boot together, so a boot-time pull could only
   reach a peer that is itself still booting: it would time out at the
   600 ms forward deadline and its late reply would arrive orphaned. The
   plane boots without one, and a write still reaches every replica by
   push. *)
let test_sharded_boot_wastes_no_request () =
  let c = sharded_cluster () in
  Cluster.settle c;
  let m = Cluster.metrics c in
  Alcotest.(check int) "no orphaned replies" 0 (Ntcs_obs.Registry.get m "lcm.orphan_replies");
  (match Ntcs_obs.Registry.find_histo m "lcm.send_sync_us" with
   | Some h when not (Ntcs_obs.Histo.is_empty h) ->
     Alcotest.(check bool) "no send_sync reaches the forward timeout" true
       (Ntcs_obs.Histo.max_value h < 600_000)
   | Some _ | None -> ());
  spawn_echo c ~machine:"ap1" ~name:"svc";
  Cluster.settle c;
  let bindings ns =
    List.filter_map
      (fun (e : Ns_proto.entry) ->
        if e.Ns_proto.e_name = "svc" then Some (Addr.to_string e.Ns_proto.e_addr) else None)
      (Name_server.dump ns)
  in
  match List.map bindings (Cluster.name_servers c) with
  | [ owner_view ] :: rest ->
    Alcotest.(check int) "three replicas" 3 (List.length rest);
    List.iter (Alcotest.(check (list string)) "replica holds the binding" [ owner_view ]) rest
  | _ -> Alcotest.fail "server 0 does not hold exactly one svc binding"

let test_sharded_lookup_caches () =
  let c = sharded_cluster () in
  Cluster.settle ~dt:12_000_000 c;
  spawn_echo c ~machine:"ap1" ~name:"hot-name";
  Cluster.settle ~dt:6_000_000 c;
  let stats =
    in_process c ~machine:"sun2" ~name:"client" (fun node ->
        let commod = bind_exn node ~name:"client" in
        let first = check_ok "cold locate" (Ali_layer.locate commod "hot-name") in
        for _ = 1 to 5 do
          let again = check_ok "warm locate" (Ali_layer.locate commod "hot-name") in
          if not (Addr.equal first again) then Alcotest.fail "cached address changed"
        done;
        Nsp_layer.cache_stats (Commod.nsp_exn commod))
  in
  Cluster.settle c;
  let hits, stale, misses = stats () in
  Alcotest.(check int) "five warm locates hit the cache" 5 hits;
  Alcotest.(check int) "no stale hits in a quiet plane" 0 stale;
  Alcotest.(check bool) "only cold misses" true (misses >= 1 && misses <= 3)

let test_sharded_trace_determinism () =
  (* R2 for the naming plane: equal seeds, byte-identical traces — cache
     events, shard forwards and invalidations included. *)
  let run () =
    let c = sharded_cluster ~seed:77 () in
    Cluster.settle ~dt:12_000_000 c;
    spawn_echo c ~machine:"ap1" ~name:(name_on_shard 1);
    Cluster.settle ~dt:6_000_000 c;
    let done_ = ref false in
    ignore
      (Cluster.spawn c ~machine:"sun2" ~name:"client" (fun node ->
           let commod = bind_exn node ~name:"client" in
           let dst = check_ok "locate" (Ali_layer.locate commod (name_on_shard 1)) in
           ignore (check_ok "echo" (Ali_layer.send_sync commod ~dst (raw "ping")));
           ignore (check_ok "re-locate" (Ali_layer.locate commod (name_on_shard 1)));
           done_ := true));
    Cluster.settle ~dt:10_000_000 c;
    Alcotest.(check bool) "workload completed" true !done_;
    Fmt.str "%a" Ntcs_sim.Trace.dump (Ntcs_sim.World.trace (Cluster.world c))
  in
  let first = run () and second = run () in
  Alcotest.(check bool) "naming-plane events present" true
    (let has needle =
       let n = String.length needle and h = String.length first in
       let rec go i = i + n <= h && (String.sub first i n = needle || go (i + 1)) in
       go 0
     in
     has "ns.cache.store" && has "ns.cache.hit");
  Alcotest.(check bool) "equal seeds give byte-identical traces" true
    (String.equal first second)

let () =
  Alcotest.run "naming"
    [
      ( "service",
        [
          Alcotest.test_case "newest wins" `Quick test_newest_wins_on_duplicate_name;
          Alcotest.test_case "unsharded answers gen 0" `Quick test_unsharded_answers_gen_zero;
          Alcotest.test_case "attribute lookup" `Quick test_attribute_lookup;
          Alcotest.test_case "entry details" `Quick test_locate_entry_details;
        ] );
      ( "forwarding",
        [
          Alcotest.test_case "forward semantics" `Quick test_forward_query_semantics;
          Alcotest.test_case "no replacement" `Quick test_forward_no_replacement_is_dead;
          Alcotest.test_case "forward by service attribute" `Quick
            test_forward_by_service_attribute;
        ] );
      ( "removal (E1)",
        [ Alcotest.test_case "warm caches survive NS removal" `Quick
            test_ns_removal_with_warm_caches ] );
      ( "replication (E10)",
        [
          Alcotest.test_case "writes propagate" `Quick test_replication_propagates;
          Alcotest.test_case "failover lookup" `Quick test_replica_failover;
          Alcotest.test_case "register via replica" `Quick test_registration_after_primary_death;
        ] );
      ( "shard map (§15)",
        Alcotest.test_case "construction and ownership" `Quick test_shard_map_basics
        :: Alcotest.test_case "distribution is non-degenerate" `Quick
             test_shard_distribution
        :: List.map QCheck_alcotest.to_alcotest shard_map_props );
      ( "lookup cache (§15)",
        Alcotest.test_case "hit, miss, TTL expiry" `Quick test_cache_hit_miss_ttl
        :: Alcotest.test_case "lazy invalidation and stale hits" `Quick
             test_cache_lazy_invalidation
        :: Alcotest.test_case "store clamps up to the floor" `Quick
             test_cache_store_clamps_to_floor
        :: Alcotest.test_case "recency order and eviction" `Quick
             test_cache_recency_and_eviction
        :: Alcotest.test_case "create clamps its arguments" `Quick
             test_cache_create_clamps
        :: List.map QCheck_alcotest.to_alcotest cache_props );
      ( "sharded plane (§15)",
        [
          Alcotest.test_case "boot wastes no request" `Quick
            test_sharded_boot_wastes_no_request;
          Alcotest.test_case "owner stamps its generation" `Quick
            test_sharded_owner_stamps_generation;
          Alcotest.test_case "repeated lookups hit the cache" `Quick
            test_sharded_lookup_caches;
          Alcotest.test_case "equal-seed traces are byte-identical" `Quick
            test_sharded_trace_determinism;
        ] );
    ]
