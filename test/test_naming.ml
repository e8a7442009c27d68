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
  Alcotest.(check bool) "ns db consistent" true (List.length (Name_server.dump ns) >= 4)

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
  let dbs = List.map (fun ns -> List.length (Name_server.dump ns)) (Cluster.name_servers c) in
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
  Alcotest.(check int) "expired entry evicted" 0 (Ns_cache.length c)

let test_cache_lazy_invalidation () =
  let c = Ns_cache.create ~capacity:8 ~nshards:4 in
  Ns_cache.store c "k" ~value:"old" ~shard:1 ~gen:2 ~expiry:max_int;
  Ns_cache.store c "other" ~value:"fine" ~shard:0 ~gen:1 ~expiry:max_int;
  (* An advance that names no changes raises the floor; it retires shard
     1's entry lazily: it stays resident and surfaces as Stale on its next
     touch, which evicts it — the caller must then re-look-up. *)
  Alcotest.(check bool) "an unlisted advance raises the floor" true
    (Ns_cache.observe c ~shard:1 ~gen:7 ~changed:[]);
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
  Alcotest.(check bool) "non-increasing observation is a no-op" false
    (Ns_cache.observe c ~shard:1 ~gen:7 ~changed:[]);
  Alcotest.(check int) "and leaves the floor" 7 (Ns_cache.floor c ~shard:1);
  Alcotest.(check bool) "out-of-range shard is a no-op" false
    (Ns_cache.observe c ~shard:9 ~gen:3 ~changed:[]);
  Alcotest.(check int) "out-of-range floor reads 0" 0 (Ns_cache.floor c ~shard:9)

let test_cache_store_clamps_to_floor () =
  let c = Ns_cache.create ~capacity:8 ~nshards:2 in
  ignore (Ns_cache.observe c ~shard:0 ~gen:5 ~changed:[]);
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

(* A change list that reaches back to [seen] retires only the names it
   lists; every other entry of the shard stays a hit. *)
let test_cache_covered_change_retires_one_name () =
  let c = Ns_cache.create ~capacity:8 ~nshards:2 in
  Alcotest.(check bool) "first contact raises the floor" true
    (Ns_cache.observe c ~shard:0 ~gen:3 ~changed:[]);
  List.iter
    (fun k -> Ns_cache.store c ~name:k k ~value:k ~shard:0 ~gen:3 ~expiry:max_int)
    [ "a"; "b"; "c" ];
  Ns_cache.store c "anon" ~value:"anon" ~shard:0 ~gen:3 ~expiry:max_int;
  Ns_cache.store c ~name:"a" "other-shard" ~value:"a1" ~shard:1 ~gen:0 ~expiry:max_int;
  Alcotest.(check bool) "a covered change raises no floor" false
    (Ns_cache.observe c ~shard:0 ~gen:4 ~changed:[ "a"; "z" ]);
  Alcotest.(check (pair int int)) "floor stays, seen moves" (3, 4)
    (Ns_cache.floor c ~shard:0, Ns_cache.seen c ~shard:0);
  let hit k =
    match Ns_cache.find c ~now:0 k with Ns_cache.Hit _ -> true | _ -> false
  and stale k =
    match Ns_cache.find c ~now:0 k with Ns_cache.Stale _ -> true | _ -> false
  in
  Alcotest.(check bool) "the named entry is stale" true (stale "a");
  Alcotest.(check bool) "b still hits" true (hit "b");
  Alcotest.(check bool) "c still hits" true (hit "c");
  Alcotest.(check bool) "an unnamed entry is retired by any change" true (stale "anon");
  Alcotest.(check bool) "the same name in another shard still hits" true (hit "other-shard");
  (* Generations 6, 5, 4: gen 4 was already seen, so "c" is not retired
     again by it, while "b" (gen 5) is. *)
  ignore (Ns_cache.observe c ~shard:0 ~gen:6 ~changed:[ "x"; "b"; "c" ]);
  Alcotest.(check bool) "b changed at gen 5" true (stale "b");
  Alcotest.(check bool) "c's listed gen 4 was already applied" true (hit "c");
  (* A name listed twice keeps its newest generation. *)
  Ns_cache.store c ~name:"d" "d" ~value:"d" ~shard:0 ~gen:7 ~expiry:max_int;
  ignore (Ns_cache.observe c ~shard:0 ~gen:8 ~changed:[ "d"; "d" ]);
  Alcotest.(check bool) "the newer of two changes counts" true (stale "d")

(* More than K generations since [seen], or more pending names than the
   cache holds, and only the whole-shard floor is safe. *)
let test_cache_gap_falls_back_to_floor () =
  let k = Ns_proto.change_log_length in
  let names n = List.init n (Printf.sprintf "n%d") in
  let c = Ns_cache.create ~capacity:8 ~nshards:1 in
  ignore (Ns_cache.observe c ~shard:0 ~gen:4 ~changed:[]);
  Ns_cache.store c ~name:"a" "a" ~value:() ~shard:0 ~gen:4 ~expiry:max_int;
  Alcotest.(check bool) "exactly K generations are covered" false
    (Ns_cache.observe c ~shard:0 ~gen:(4 + k) ~changed:(names k));
  Alcotest.(check bool) "a survives" true
    (match Ns_cache.find c ~now:0 "a" with Ns_cache.Hit _ -> true | _ -> false);
  Alcotest.(check bool) "a gap of K + 1 raises the floor" true
    (Ns_cache.observe c ~shard:0 ~gen:(5 + (2 * k)) ~changed:(names k));
  Alcotest.(check int) "to the new generation" (5 + (2 * k)) (Ns_cache.floor c ~shard:0);
  Alcotest.(check bool) "a is retired with its shard" true
    (match Ns_cache.find c ~now:0 "a" with Ns_cache.Stale _ -> true | _ -> false);
  let small = Ns_cache.create ~capacity:2 ~nshards:1 in
  ignore (Ns_cache.observe small ~shard:0 ~gen:1 ~changed:[]);
  Alcotest.(check bool) "two pending names fit a capacity-2 cache" false
    (Ns_cache.observe small ~shard:0 ~gen:3 ~changed:[ "p"; "q" ]);
  Alcotest.(check bool) "a third raises the floor instead" true
    (Ns_cache.observe small ~shard:0 ~gen:4 ~changed:[ "r" ]);
  Alcotest.(check int) "floor at the overflowing generation" 4 (Ns_cache.floor small ~shard:0)

(* A server whose counter restarted answers below [seen]: the observation
   is a no-op, stores still clamp up to [seen], and nothing retired comes
   back as a hit. *)
let test_cache_restart_never_resurrects () =
  let c = Ns_cache.create ~capacity:8 ~nshards:1 in
  ignore (Ns_cache.observe c ~shard:0 ~gen:9 ~changed:[]);
  Ns_cache.store c ~name:"a" "a" ~value:"a" ~shard:0 ~gen:9 ~expiry:max_int;
  Ns_cache.store c ~name:"b" "b" ~value:"b" ~shard:0 ~gen:9 ~expiry:max_int;
  ignore (Ns_cache.observe c ~shard:0 ~gen:10 ~changed:[ "a" ]);
  Alcotest.(check bool) "a restarted server's stamp is a no-op" false
    (Ns_cache.observe c ~shard:0 ~gen:2 ~changed:[ "b" ]);
  Alcotest.(check (pair int int)) "floor and seen unmoved" (9, 10)
    (Ns_cache.floor c ~shard:0, Ns_cache.seen c ~shard:0);
  Alcotest.(check bool) "a stays retired" true
    (match Ns_cache.find c ~now:0 "a" with Ns_cache.Stale _ -> true | _ -> false);
  Ns_cache.store c ~name:"a" "a" ~value:"a2" ~shard:0 ~gen:2 ~expiry:max_int;
  (match Ns_cache.find c ~now:0 "a" with
   | Ns_cache.Hit ("a2", 0, 10) -> ()
   | _ -> Alcotest.fail "the restarted server's answer is stored at seen");
  match Ns_cache.find c ~now:0 "b" with
  | Ns_cache.Hit ("b", 0, 9) -> ()
  | _ -> Alcotest.fail "b was never retired by a change the cache applied"

let cache_props =
  [
    (* Whatever the interleaving of stores, floor raises and touches: a
       fresh hit is never below its shard's floor and a stale hit always
       is — the invariant Check_trace asserts over sim traces, here at
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
              ignore (Ns_cache.observe c ~shard:s ~gen:g ~changed:[]);
              true
            | `Find k -> (
              match Ns_cache.find c ~now:0 k with
              | Ns_cache.Hit (_, s, g) -> g >= Ns_cache.floor c ~shard:s
              | Ns_cache.Stale (_, s, g) -> g < Ns_cache.floor c ~shard:s
              | Ns_cache.Miss -> true))
          ops);
    (* Per-name retirement against a model of what the cache was told:
       a hit is never older than a change of its name the cache applied,
       and never below the floor. A stale hit is either. *)
    QCheck.Test.make ~name:"a hit postdates every applied change of its name" ~count:300
      (QCheck.make
         QCheck.Gen.(
           list_size (0 -- 60)
             (oneof
                [
                  map (fun k -> `Store k) (oneofl [ "a"; "b"; "c"; "d" ]);
                  map2
                    (fun step ch -> `Note (step, ch))
                    (1 -- 4)
                    (list_size (0 -- 4) (oneofl [ "a"; "b"; "c"; "d"; "e" ]));
                  map (fun k -> `Find k) (oneofl [ "a"; "b"; "c"; "d" ]);
                ])))
      (fun ops ->
        let c = Ns_cache.create ~capacity:3 ~nshards:1 in
        let applied = ref [] in
        let newest_change k =
          List.fold_left (fun acc (n, g) -> if n = k then max acc g else acc) 0 !applied
        in
        List.for_all
          (function
            | `Store k ->
              Ns_cache.store c ~name:k k ~value:k ~shard:0 ~gen:0 ~expiry:max_int;
              true
            | `Note (step, ch) ->
              let seen = Ns_cache.seen c ~shard:0 in
              let gen = seen + step in
              let raised = Ns_cache.observe c ~shard:0 ~gen ~changed:ch in
              (* listed generations the cache had not seen yet *)
              List.iteri
                (fun i n -> if gen - i > seen then applied := (n, gen - i) :: !applied)
                ch;
              (* a list that misses a generation must raise the floor *)
              List.length ch >= step || raised
            | `Find k -> (
              let floor = Ns_cache.floor c ~shard:0 in
              match Ns_cache.find c ~now:0 k with
              | Ns_cache.Hit (_, _, g) -> g >= floor && g >= newest_change k
              | Ns_cache.Stale (_, _, g) -> g < floor || g < newest_change k
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
    | Ns_proto.R_addr_v (addr, shard, gen, []) -> (
      match Name_server.handle_request ns (Ns_proto.Resolve_v addr) with
      | Ns_proto.R_entry_v (_, eshard, egen, []) -> (addr, (shard, gen), (eshard, egen))
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
let sharded_cluster ?seed ?(cache_capacity = 64) () =
  Cluster.build
    ~config:
      {
        (Helpers.world_config ?seed ()) with
        Ntcs_sim.World.Config.naming = { Ntcs_sim.World.Config.shards = 4; cache_capacity };
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

(* The first [n] names owned by [shard] from a deterministic candidate
   stream. *)
let names_on_shard shard n =
  let rec pick i acc =
    if List.length acc = n then List.rev acc
    else
      let name = Printf.sprintf "svc%d" i in
      pick (i + 1) (if Shard_map.hash_name name mod 4 = shard then name :: acc else acc)
  in
  pick 0 []

let name_on_shard shard = List.hd (names_on_shard shard 1)

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
   | Ns_proto.R_addr_v (addr, 2, gen, _) ->
     Alcotest.(check bool) "owner address resolved" true (Addr.is_unique addr);
     Alcotest.(check bool) "owner gen versioned" true
       (gen >= 1 && gen = Name_server.generation owner)
   | _ -> Alcotest.fail "owner did not answer R_addr_v for its shard");
  match Name_server.handle_request backup (Ns_proto.Lookup_v (name, 1)) with
  | Ns_proto.R_addr_v (_, 2, 0, []) -> ()
  | Ns_proto.R_addr_v (_, s, g, _) ->
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
   | Some h when Ntcs_obs.Histo.count h > 0 ->
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

(* The world's NSP cache outcomes so far: (hits, stale, misses), summed
   over every ComMod's lookup caches. *)
let cache_counts node =
  let get = Ntcs_obs.Registry.get (Node.metrics node) in
  (get "nsp.cache_hits", get "nsp.cache_stale", get "nsp.cache_misses")

let delta (h0, s0, m0) (h1, s1, m1) = (h1 - h0, s1 - s0, m1 - m0)

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
        cache_counts node)
  in
  Cluster.settle c;
  let hits, stale, misses = stats () in
  Alcotest.(check int) "five warm locates hit the cache" 5 hits;
  Alcotest.(check int) "no stale hits in a quiet plane" 0 stale;
  Alcotest.(check int) "one cold miss" 1 misses

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

let trace_of c = Ntcs_sim.Trace.entries (Ntcs_sim.World.trace (Cluster.world c))

(* The naming plane's coherence findings of [log]. *)
let naming_findings log =
  List.filter
    (fun v -> String.starts_with ~prefix:"naming-" v.Check_trace.v_invariant)
    (Check_trace.check ~races:false log)

let coherent c =
  Alcotest.(check (list string)) "naming coherence" []
    (List.map (Fmt.str "%a" Check_trace.pp_violation) (naming_findings (trace_of c)))

(* §3.5 relocation of one name: the owner's bump names it, and a client
   that kept up retires that name alone. A server that left the name out
   of its change list would let the client serve the old address after it
   had acknowledged the bump — Check_trace's per-name invariant. *)
let test_sharded_relocation_retires_one_name () =
  let c = sharded_cluster () in
  Cluster.settle ~dt:12_000_000 c;
  let moved, kept, cold =
    match names_on_shard 2 3 with [ a; b; z ] -> (a, b, z) | _ -> assert false
  in
  List.iter (fun name -> spawn_echo c ~machine:"ap1" ~name) [ moved; kept; cold ];
  Cluster.settle ~dt:6_000_000 c;
  let result =
    in_process c ~machine:"sun2" ~name:"client" (fun node ->
        let commod = bind_exn node ~name:"client" in
        let before = check_ok "locate moved" (Ali_layer.locate commod moved) in
        ignore (check_ok "locate kept" (Ali_layer.locate commod kept));
        Ntcs_sim.Sched.sleep (Node.sched node) 10_000_000;
        (* A cold lookup in the shard brings the bump and its name. *)
        ignore (check_ok "locate cold" (Ali_layer.locate commod cold));
        let s0 = cache_counts node in
        ignore (check_ok "re-locate kept" (Ali_layer.locate commod kept));
        let s1 = cache_counts node in
        let after = check_ok "re-locate moved" (Ali_layer.locate commod moved) in
        let s2 = cache_counts node in
        (before, after, delta s0 s1, delta s1 s2))
  in
  Cluster.settle ~dt:3_000_000 c;
  (* The relocation: a newer instance registers under the same name. *)
  spawn_echo c ~machine:"sun1" ~name:moved;
  Cluster.settle ~dt:15_000_000 c;
  coherent c;
  let before, after, kept_delta, moved_delta = result () in
  Alcotest.(check (triple int int int)) "the untouched name still hits" (1, 0, 0) kept_delta;
  Alcotest.(check (triple int int int)) "the relocated name is stale" (0, 1, 0) moved_delta;
  Alcotest.(check bool) "and re-resolves to the new instance" false (Addr.equal before after);
  Alcotest.(check int) "one whole-shard floor: the client's first contact" 1
    (Ntcs_obs.Registry.get (Cluster.metrics c) "nsp.cache_invalidations")

(* §3.5 re-registration: [svc] registers again at a new address while a
   client holds the old one cached. Once the client has seen the owner's
   bump it must never be handed the old address again. The shard logged a
   change (a deregistration) before the client's first contact, so a
   server that left the re-registration out of its change list would send
   a list whose head names that earlier change: the client would retire
   the wrong name and keep serving the old address. *)
let test_sharded_reregister_retires_cached_address () =
  let c = sharded_cluster () in
  Cluster.settle ~dt:12_000_000 c;
  let churn, cold =
    match names_on_shard (Shard_map.hash_name "svc" mod 4) 2 with
    | [ a; b ] -> (a, b)
    | _ -> assert false
  in
  List.iter (fun name -> spawn_echo c ~machine:"ap1" ~name) [ "svc"; cold ];
  ignore
    (Cluster.spawn c ~machine:"sun1" ~name:"churn" (fun node ->
         let commod = bind_exn node ~name:"churn" in
         let nsp = Commod.nsp_exn commod in
         let a =
           check_ok "register"
             (Nsp_layer.register nsp ~name:churn
                ~phys:(Nd_layer.my_listen_addrs (Commod.nd commod))
                ~nets:(Node.my_nets node) ~order:(Node.my_order node) ~attrs:[])
         in
         check_ok "deregister" (Nsp_layer.deregister nsp a)));
  Cluster.settle ~dt:6_000_000 c;
  let result =
    in_process c ~machine:"sun2" ~name:"client" (fun node ->
        let commod = bind_exn node ~name:"client" in
        let old = check_ok "locate svc" (Ali_layer.locate commod "svc") in
        Ntcs_sim.Sched.sleep (Node.sched node) 10_000_000;
        (* A cold lookup in the shard brings the bump. *)
        ignore (check_ok "locate cold" (Ali_layer.locate commod cold));
        let again =
          List.init 3 (fun _ -> check_ok "re-locate svc" (Ali_layer.locate commod "svc"))
        in
        (old, again))
  in
  Cluster.settle ~dt:3_000_000 c;
  spawn_echo c ~machine:"sun1" ~name:"svc";
  Cluster.settle ~dt:15_000_000 c;
  let old, again = result () in
  List.iter
    (fun a ->
      Alcotest.(check bool) "the old address is never served again" false (Addr.equal old a))
    again;
  coherent c

(* More than K bumps in a shard between two of a client's contacts: the
   answer's list cannot cover them, so the whole shard is retired. *)
let test_sharded_log_overflow_falls_back () =
  let c = sharded_cluster () in
  Cluster.settle ~dt:12_000_000 c;
  let kept, cold = match names_on_shard 3 2 with [ a; b ] -> (a, b) | _ -> assert false in
  List.iter (fun name -> spawn_echo c ~machine:"ap1" ~name) [ kept; cold ];
  Cluster.settle ~dt:6_000_000 c;
  let owner = List.nth (Cluster.name_servers c) 3 in
  let result =
    in_process c ~machine:"sun2" ~name:"client" (fun node ->
        let commod = bind_exn node ~name:"client" in
        ignore (check_ok "locate kept" (Ali_layer.locate commod kept));
        let gen0 = Name_server.generation owner in
        Ntcs_sim.Sched.sleep (Node.sched node) 20_000_000;
        let bumps = Name_server.generation owner - gen0 in
        ignore (check_ok "locate cold" (Ali_layer.locate commod cold));
        let s0 = cache_counts node in
        ignore (check_ok "re-locate kept" (Ali_layer.locate commod kept));
        (bumps, delta s0 (cache_counts node)))
  in
  Cluster.settle ~dt:3_000_000 c;
  let churn =
    List.filteri (fun i _ -> i >= 2) (names_on_shard 3 (Ns_proto.change_log_length + 3))
  in
  ignore
    (Cluster.spawn c ~machine:"sun1" ~name:"churn" (fun node ->
         let commod = bind_exn node ~name:"churn" in
         let nsp = Commod.nsp_exn commod in
         let phys = Nd_layer.my_listen_addrs (Commod.nd commod) in
         List.iter
           (fun name ->
             let a =
               check_ok "register"
                 (Nsp_layer.register nsp ~name ~phys ~nets:(Node.my_nets node)
                    ~order:(Node.my_order node) ~attrs:[])
             in
             check_ok "deregister" (Nsp_layer.deregister nsp a))
           churn));
  Cluster.settle ~dt:25_000_000 c;
  coherent c;
  let bumps, kept_delta = result () in
  Alcotest.(check int) "K + 1 bumps between contacts" (Ns_proto.change_log_length + 1) bumps;
  Alcotest.(check (triple int int int)) "the untouched name is retired with its shard"
    (0, 1, 0) kept_delta;
  Alcotest.(check bool) "through a floor raise" true
    (List.exists
       (fun (e : Ntcs_sim.Trace.entry) ->
         e.ev_name = "ns.cache.invalidate" && e.ev_actor = "client"
         && match e.ev_detail with Ntcs_obs.Span.Floor { shard = 3; _ } -> true | _ -> false)
       (trace_of c))

(* Deregistration goes to the address's owner first, like registration:
   when it returns, the owner already answers unknown-name, whichever
   replica answered the client last. *)
let test_deregister_reaches_owner () =
  let c = sharded_cluster () in
  Cluster.settle ~dt:12_000_000 c;
  let name = name_on_shard 2 and elsewhere = name_on_shard 1 in
  spawn_echo c ~machine:"ap1" ~name:elsewhere;
  Cluster.settle ~dt:6_000_000 c;
  let owner = List.nth (Cluster.name_servers c) 2 in
  let answer =
    in_process c ~machine:"sun2" ~name:"client" (fun node ->
        let commod = bind_exn node ~name:"client" in
        let nsp = Commod.nsp_exn commod in
        let addr =
          check_ok "register"
            (Nsp_layer.register nsp ~name ~phys:(Nd_layer.my_listen_addrs (Commod.nd commod))
               ~nets:(Node.my_nets node) ~order:(Node.my_order node) ~attrs:[])
        in
        (* Another shard answers last, so a request without a preferred
           owner would go there. *)
        ignore (check_ok "locate elsewhere" (Ali_layer.locate commod elsewhere));
        check_ok "deregister" (Nsp_layer.deregister nsp addr);
        Name_server.handle_request owner (Ns_proto.Lookup_v (name, 0)))
  in
  Cluster.settle ~dt:6_000_000 c;
  match answer () with
  | Ns_proto.R_error "unknown-name" -> ()
  | _ -> Alcotest.fail "the owner still answers for a deregistered name"

(* A name is one word. The NSP refuses an empty name, or one holding
   whitespace, before it asks; a server refuses one from a foreign client
   that skipped that check. The ns.* details render as space-separated
   words, so a name holding a space would read ambiguously in a dump. *)
let test_register_refuses_non_words () =
  let c = lan_cluster () in
  Cluster.settle c;
  let ns = Cluster.primary_ns c in
  let bad = [ ""; "two words"; "tab\there"; "line\n" ] in
  let refused = Errors.Bad_message "name is empty or holds whitespace" in
  let results =
    in_process c ~machine:"vax1" ~name:"client" (fun node ->
        let commod = bind_exn node ~name:"client" in
        let nsp = Commod.nsp_exn commod in
        let register name =
          Nsp_layer.register nsp ~name ~phys:(Nd_layer.my_listen_addrs (Commod.nd commod))
            ~nets:(Node.my_nets node) ~order:(Node.my_order node) ~attrs:[]
        in
        ( List.map register bad,
          register "one-word",
          Result.map ignore (Commod.bind node ~name:"two words") ))
  in
  Cluster.settle c;
  let refusals, good, bound = results () in
  List.iter2 (fun name r -> check_err (Printf.sprintf "NSP refuses %S" name) refused r) bad refusals;
  ignore (check_ok "a one-word name registers" good);
  let stored = List.length (Name_server.dump ns) in
  List.iter
    (fun name ->
      match
        Name_server.handle_request ns
          (Ns_proto.Register { r_name = name; r_phys = []; r_nets = []; r_order = 0; r_attrs = [] })
      with
      | Ns_proto.R_error "invalid-name" -> ()
      | _ -> Alcotest.failf "the server registered %S" name)
    bad;
  Alcotest.(check int) "the server stored none of them" stored (List.length (Name_server.dump ns));
  check_err "bind refuses it too" refused bound

(* A seeded 4-shard Zipf mix: 2,000 ops over 512 names, every 20th a
   register/deregister write of a name nobody looks up. Writes must not
   cost the looked-up names their cache entries: whole-shard invalidation
   reads a hit ratio near 0.3 here and stale hits on unwritten names. *)
let test_zipf_mix_keeps_hits () =
  let names = 512 and ops = 2000 and live_tmp = 8 in
  let svc = Array.init names (Printf.sprintf "svc-%d") in
  let rng = Random.State.make [| 1 |] in
  let cdf = Array.make names 0. in
  let total = ref 0. in
  Array.iteri
    (fun k _ ->
      total := !total +. (1. /. float_of_int (k + 1));
      cdf.(k) <- !total)
    cdf;
  let zipf () =
    let u = Random.State.float rng !total in
    let lo = ref 0 and hi = ref (names - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cdf.(mid) < u then lo := mid + 1 else hi := mid
    done;
    !lo
  in
  let mix = Array.init ops (fun i -> if i mod 20 = 19 then -1 else zipf ()) in
  let c = sharded_cluster ~seed:1 ~cache_capacity:512 () in
  Cluster.settle c;
  List.iter
    (fun ns ->
      Name_server.preload ns
        (List.filter_map
           (fun name -> if Name_server.owns ns name then Some (name, []) else None)
           (Array.to_list svc)))
    (Cluster.name_servers c);
  let result =
    in_process c ~machine:"ap1" ~name:"client" (fun node ->
        let commod = bind_exn node ~name:"client" in
        let nsp = Commod.nsp_exn commod in
        let phys = Nd_layer.my_listen_addrs (Commod.nd commod) in
        let tmp = Queue.create () and writes = ref 0 and failed = ref 0 in
        Array.iter
          (fun k ->
            if k >= 0 then (
              if Result.is_error (Ali_layer.locate commod svc.(k)) then incr failed)
            else begin
              let name = Printf.sprintf "tmp-%d" !writes in
              incr writes;
              Queue.push
                (check_ok "register"
                   (Nsp_layer.register nsp ~name ~phys ~nets:(Node.my_nets node)
                      ~order:(Node.my_order node) ~attrs:[]))
                tmp;
              if Queue.length tmp > live_tmp then
                check_ok "deregister" (Nsp_layer.deregister nsp (Queue.pop tmp))
            end)
          mix;
        (!failed, cache_counts node))
  in
  Cluster.settle ~dt:60_000_000 c;
  coherent c;
  let failed, (hits, stale, misses) = result () in
  Alcotest.(check int) "every locate succeeded" 0 failed;
  let ratio = float_of_int hits /. float_of_int (hits + stale + misses) in
  if ratio < 0.6 then Alcotest.failf "hit ratio %.3f below 0.6 (%d/%d/%d)" ratio hits stale misses;
  Alcotest.(check bool) "the writes bumped generations" true
    (Ntcs_obs.Registry.get (Cluster.metrics c) "ns.invalidations" >= 50);
  Alcotest.(check int) "no stale hit on a name never written" 0
    (List.length
       (List.filter
          (fun (e : Ntcs_sim.Trace.entry) ->
            e.ev_name = "ns.cache.stale"
            &&
            match e.ev_detail with
            | Ntcs_obs.Span.Cache_entry { kind = "name"; key; _ } ->
              String.starts_with ~prefix:"svc-" key
            | _ -> false)
          (trace_of c)))

(* --- the coherence checker over hand-built logs --- *)

(* One naming-plane event: cache events come from one caching actor,
   shard events from the name server. *)
let ev ?(actor = "sun2/app") at cat detail =
  Ntcs_obs.Span.event ~at_us:at ~ctx:Ntcs_obs.Span.none ~phase:Ntcs_obs.Span.I ~name:cat ~actor
    detail

let ns_ev at cat detail = ev ~actor:"name-server" at cat detail

(* The typed details of the naming events. *)
let entry kind key shard gen = Ntcs_obs.Span.Cache_entry { kind; key; shard; gen }
let svc = entry "name" "svc"
let floor shard floor = Ntcs_obs.Span.Floor { shard; floor }
let hop hop = Ntcs_obs.Span.Shard_hop { name = "svc"; from_shard = 0; to_shard = 1; hop }

let change ?addr what name =
  Ntcs_obs.Span.Shard_gen { shard = 1; gen = 3; what; name; addr }

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* [log] yields exactly one coherence finding: [inv] at [at], saying
   [phrase]. *)
let one_finding ~inv ~at ~phrase log =
  match naming_findings log with
  | [ v ] ->
    Alcotest.(check (pair string int)) "invariant and time" (inv, at)
      (v.Check_trace.v_invariant, v.Check_trace.v_at_us);
    if not (contains v.Check_trace.v_detail phrase) then
      Alcotest.failf "finding %S does not say %S" v.Check_trace.v_detail phrase
  | vs ->
    Alcotest.failf "expected one finding, got %d:@.%a" (List.length vs)
      Fmt.(list ~sep:cut Check_trace.pp_violation)
      vs

let no_finding log =
  Alcotest.(check (list string)) "coherent" []
    (List.map (Fmt.str "%a" Check_trace.pp_violation) (naming_findings log))

let test_coherence_store_monotonic () =
  no_finding
    [
      ev 1 "ns.cache.store" (svc 1 3);
      ev 2 "ns.cache.store" (svc 1 3);
      ev 3 "ns.cache.store" (svc 2 1);
      ev ~actor:"sun1/app" 4 "ns.cache.store" (svc 1 1);
    ];
  one_finding ~inv:"naming-store-monotonic" ~at:2
    ~phrase:"store gen went backwards on shard 1 (3 after 4"
    [ ev 1 "ns.cache.store" (svc 1 4); ev 2 "ns.cache.store" (entry "addr" "U5.1" 1 3) ]

(* A splice's invalidation is text, and no finding. *)
let test_coherence_floor () =
  no_finding
    [
      ev 1 "ns.cache.invalidate" (floor 1 5);
      ev 2 "ns.cache.hit" (svc 1 5);
      ev 3 "ns.cache.invalidate" (Text "splice addr:U5.1 dropped 2");
    ];
  one_finding ~inv:"naming-floor" ~at:2 ~phrase:"at gen 4 below shard 1's floor 5"
    [ ev 1 "ns.cache.invalidate" (floor 1 5); ev 2 "ns.cache.hit" (svc 1 4) ]

let test_coherence_stale_splice () =
  no_finding
    [ ev 1 "ns.cache.stale" (svc 1 2); ev 2 "ns.cache.store" (svc 1 3); ev 3 "ns.cache.hit" (svc 1 3) ];
  one_finding ~inv:"naming-stale-splice" ~at:3
    ~phrase:"after a stale hit at t=1us with no store in between"
    [
      ev 1 "ns.cache.stale" (svc 1 2);
      ev 2 "ns.cache.store" (entry "name" "other" 1 3);
      ev 3 "ns.cache.hit" (svc 1 3);
    ]

let test_coherence_hop_bound () =
  no_finding [ ns_ev 1 "ns.shard.forward" (hop 1) ];
  one_finding ~inv:"naming-hop-bound" ~at:1 ~phrase:"exceeded the one-hop bound (hop 2"
    [ ns_ev 1 "ns.shard.forward" (hop 2) ]

(* The server's change record, with and without the dead address, names
   [svc]; the actor then acknowledges gen 3 through another name's store
   and serves [svc] at gen 2. *)
let test_coherence_retirement () =
  let log change =
    [
      ns_ev 1 "ns.shard.gen" change;
      ev 2 "ns.cache.store" (entry "name" "other" 1 3);
      ev 3 "ns.cache.hit" (svc 1 2);
    ]
  in
  let phrase = "shard 1 changed it at gen 3 and the actor had acknowledged gen 3" in
  one_finding ~inv:"naming-retirement" ~at:3 ~phrase (log (change "register" "svc"));
  one_finding ~inv:"naming-retirement" ~at:3 ~phrase
    (log (change "deregister" "svc" ~addr:"U5.1"));
  no_finding (log (change "register" "other"));
  (* Not yet acknowledged: the actor may still serve what it has. *)
  no_finding [ ns_ev 1 "ns.shard.gen" (change "register" "svc"); ev 3 "ns.cache.hit" (svc 1 2) ]

let () =
  Alcotest.run "naming"
    [
      ( "service",
        [
          Alcotest.test_case "newest wins" `Quick test_newest_wins_on_duplicate_name;
          Alcotest.test_case "unsharded answers gen 0" `Quick test_unsharded_answers_gen_zero;
          Alcotest.test_case "attribute lookup" `Quick test_attribute_lookup;
          Alcotest.test_case "a name is one word" `Quick test_register_refuses_non_words;
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
        :: Alcotest.test_case "a covered change retires one name" `Quick
             test_cache_covered_change_retires_one_name
        :: Alcotest.test_case "a gap beyond K raises the floor" `Quick
             test_cache_gap_falls_back_to_floor
        :: Alcotest.test_case "a restart never resurrects" `Quick
             test_cache_restart_never_resurrects
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
          Alcotest.test_case "a relocation retires one name" `Quick
            test_sharded_relocation_retires_one_name;
          Alcotest.test_case "a re-registration retires the cached address" `Quick
            test_sharded_reregister_retires_cached_address;
          Alcotest.test_case "log overflow retires the shard" `Quick
            test_sharded_log_overflow_falls_back;
          Alcotest.test_case "deregister reaches the owner" `Quick
            test_deregister_reaches_owner;
          Alcotest.test_case "writes keep a Zipf mix's hits" `Quick test_zipf_mix_keeps_hits;
        ] );
      ( "coherence (§15)",
        [
          Alcotest.test_case "store monotonicity" `Quick test_coherence_store_monotonic;
          Alcotest.test_case "floor discipline" `Quick test_coherence_floor;
          Alcotest.test_case "stale splice" `Quick test_coherence_stale_splice;
          Alcotest.test_case "hop bound" `Quick test_coherence_hop_bound;
          Alcotest.test_case "per-name retirement" `Quick test_coherence_retirement;
        ] );
    ]
