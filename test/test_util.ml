(* Unit tests for ntcs_util: RNG, heap, LRU, bounded queue, stats, metrics. *)

open Ntcs_util

let test_rng_determinism () =
  let a = Rng.create 7 and b = Rng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Rng.int a max_int) (Rng.int b max_int)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 7 and b = Rng.create 8 in
  let same = ref 0 in
  for _ = 1 to 50 do
    if Rng.int a max_int = Rng.int b max_int then incr same
  done;
  Alcotest.(check bool) "different seeds diverge" true (!same < 5)

let test_rng_bounds () =
  let r = Rng.create 3 in
  for _ = 1 to 1000 do
    let v = Rng.int r 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done;
  for _ = 1 to 1000 do
    let f = Rng.float r 2.5 in
    Alcotest.(check bool) "float in range" true (f >= 0. && f < 2.5)
  done

let test_rng_between () =
  let r = Rng.create 11 in
  for _ = 1 to 200 do
    let v = Rng.between r 5 9 in
    Alcotest.(check bool) "between" true (v >= 5 && v < 9)
  done;
  Alcotest.(check int) "empty range" 5 (Rng.between r 5 5)

let test_rng_errors () =
  let r = Rng.create 1 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int r 0));
  Alcotest.check_raises "empty pick" (Invalid_argument "Rng.pick: empty array") (fun () ->
      ignore (Rng.pick r [||]))

let test_rng_shuffle_permutes () =
  let r = Rng.create 5 in
  let arr = Array.init 50 Fun.id in
  let copy = Array.copy arr in
  Rng.shuffle r arr;
  Alcotest.(check bool) "same multiset" true
    (List.sort compare (Array.to_list arr) = List.sort compare (Array.to_list copy));
  Alcotest.(check bool) "actually moved" true (arr <> copy)

let test_rng_split_independent () =
  let r = Rng.create 9 in
  let a = Rng.split r in
  let va = Rng.int a max_int and vr = Rng.int r max_int in
  Alcotest.(check bool) "split diverges from parent" true (va <> vr)

let int_heap () = Heap.create ~leq:(fun a b -> a <= b) ~gone:(fun _ -> false)

(* Pop every live element, smallest first. *)
let rec drain h =
  if Heap.is_empty h then []
  else
    let x = Heap.pop_min h in
    x :: drain h

let test_heap_sorts () =
  let h = int_heap () in
  let input = [ 5; 3; 9; 1; 7; 3; 0; -2; 8 ] in
  List.iter (Heap.push h) input;
  Alcotest.(check (list int)) "sorted drain" (List.sort compare input) (drain h)

let test_heap_peek_pop () =
  let h = int_heap () in
  Alcotest.(check bool) "starts empty" true (Heap.is_empty h);
  Alcotest.check_raises "empty top" (Invalid_argument "Heap.top: empty") (fun () ->
      ignore (Heap.top h));
  Alcotest.check_raises "empty pop" (Invalid_argument "Heap.pop_min: empty") (fun () ->
      ignore (Heap.pop_min h));
  Heap.push h 4;
  Heap.push h 2;
  Alcotest.(check int) "top is the min" 2 (Heap.top h);
  Alcotest.(check int) "length" 2 (Heap.length h);
  Alcotest.(check int) "pop min" 2 (Heap.pop_min h);
  Alcotest.(check int) "pop next" 4 (Heap.pop_min h);
  Alcotest.(check bool) "now empty" true (Heap.is_empty h)

let test_heap_stability_by_seq () =
  (* The scheduler orders by (time, seq); equal times must preserve seq
     order. *)
  let h =
    Heap.create
      ~leq:(fun (t1, s1) (t2, s2) -> t1 < t2 || (t1 = t2 && s1 <= s2))
      ~gone:(fun _ -> false)
  in
  List.iter (Heap.push h) [ (5, 1); (5, 0); (3, 2); (5, 2); (3, 3) ];
  Alcotest.(check (list (pair int int)))
    "time then seq" [ (3, 2); (3, 3); (5, 0); (5, 1); (5, 2) ] (drain h)

let test_lru_basics () =
  let c = Lru.create 2 in
  Lru.set c "a" 1;
  Lru.set c "b" 2;
  Alcotest.(check (option int)) "hit a" (Some 1) (Lru.find c "a");
  Lru.set c "c" 3;
  (* "b" was least recently used (a was just touched) *)
  Alcotest.(check (option int)) "b evicted" None (Lru.find c "b");
  Alcotest.(check (option int)) "a kept" (Some 1) (Lru.find c "a");
  Alcotest.(check (option int)) "c kept" (Some 3) (Lru.find c "c");
  Alcotest.(check int) "length" 2 (Lru.length c)

let test_lru_update_refreshes () =
  let c = Lru.create 2 in
  Lru.set c "a" 1;
  Lru.set c "b" 2;
  Lru.set c "a" 10;
  Lru.set c "c" 3;
  Alcotest.(check (option int)) "updated value survives" (Some 10) (Lru.find c "a");
  Alcotest.(check (option int)) "b evicted" None (Lru.find c "b")

let test_lru_stats_and_remove () =
  let c = Lru.create 4 in
  Lru.set c 1 "x";
  Alcotest.(check (option string)) "hit" (Some "x") (Lru.find c 1);
  Alcotest.(check (option string)) "miss" None (Lru.find c 2);
  Lru.remove c 1;
  Alcotest.(check (option string)) "removed" None (Lru.find c 1);
  Alcotest.check_raises "bad capacity"
    (Invalid_argument "Lru.create: capacity must be positive") (fun () ->
      ignore (Lru.create 0))

(* Model-based properties for predicate eviction: against the snapshot of
   the recency order, [invalidate_if] must drop exactly the selected
   entries and keep the survivors in their relative order. *)
let lru_props =
  [
    QCheck.Test.make ~name:"invalidate_if: count, survivors, recency order"
      ~count:300
      (QCheck.make QCheck.Gen.(list_size (0 -- 40) (pair (int_bound 7) (int_bound 100))))
      (fun ops ->
        let c = Lru.create 4 in
        List.iter (fun (k, v) -> Lru.set c k v) ops;
        let snapshot cache =
          let acc = ref [] in
          Lru.iter cache (fun k v -> acc := (k, v) :: !acc);
          List.rev !acc
        in
        let pred _ v = v mod 2 = 0 in
        let before = snapshot c in
        let dropped = Lru.invalidate_if c pred in
        let after = snapshot c in
        let selected, survivors = List.partition (fun (k, v) -> pred k v) before in
        dropped = List.length selected
        && after = survivors
        && Lru.length c = List.length survivors
        && List.for_all (fun (k, _) -> Lru.find c k = None) selected);
    QCheck.Test.make ~name:"invalidate_if: false predicate is the identity"
      ~count:100
      (QCheck.make QCheck.Gen.(list_size (0 -- 20) (pair (int_bound 5) (int_bound 100))))
      (fun ops ->
        let c = Lru.create 4 in
        List.iter (fun (k, v) -> Lru.set c k v) ops;
        let len = Lru.length c in
        Lru.invalidate_if c (fun _ _ -> false) = 0 && Lru.length c = len);
  ]

let test_bqueue () =
  let q = Bqueue.create 2 in
  Alcotest.(check bool) "push 1" true (Bqueue.push q 1);
  Alcotest.(check bool) "push 2" true (Bqueue.push q 2);
  Alcotest.(check bool) "full" true (Bqueue.is_full q);
  Alcotest.(check bool) "push 3 refused" false (Bqueue.push q 3);
  Alcotest.(check (option int)) "fifo pop" (Some 1) (Bqueue.pop q);
  Alcotest.(check bool) "room after pop" false (Bqueue.is_full q);
  Alcotest.(check bool) "push after pop" true (Bqueue.push q 4);
  Alcotest.(check (list int)) "the refused push left nothing" [ 2; 4 ]
    (let l = ref [] in
     Bqueue.iter q (fun x -> l := x :: !l);
     List.rev !l);
  Alcotest.(check (option int)) "next pop" (Some 2) (Bqueue.pop q)

let test_bqueue_ring () =
  let q = Bqueue.create 3 in
  List.iter (Bqueue.push_evict q) [ 1; 2; 3; 4; 5 ];
  Alcotest.(check bool) "still full" true (Bqueue.is_full q);
  Alcotest.(check (list int)) "the latest three, oldest first" [ 3; 4; 5 ] (Bqueue.newest q 10);
  Alcotest.(check (list int)) "the newest two" [ 4; 5 ] (Bqueue.newest q 2);
  Alcotest.(check (list int)) "none asked" [] (Bqueue.newest q 0);
  Alcotest.(check (list int)) "a negative count" [] (Bqueue.newest q (-1));
  Alcotest.(check (option int)) "the oldest left first" (Some 3) (Bqueue.pop q);
  Bqueue.push_evict q 6;
  Alcotest.(check (list int)) "room was used, nothing evicted" [ 4; 5; 6 ] (Bqueue.newest q 3)

let test_stats () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 1.; 2.; 3.; 4.; 5. ];
  Alcotest.(check int) "count" 5 (Stats.count s);
  Alcotest.(check (float 1e-9)) "mean" 3. (Stats.mean s);
  Alcotest.(check (float 1e-9)) "median" 3. (Stats.median s);
  Alcotest.(check (float 1e-9)) "p0 is the min" 1. (Stats.percentile s 0.);
  Alcotest.(check (float 1e-9)) "p100 is the max" 5. (Stats.percentile s 100.);
  Alcotest.(check (float 1e-9)) "p25 interp" 2. (Stats.percentile s 25.)

let test_stats_empty () =
  let s = Stats.create () in
  Alcotest.(check (float 1e-9)) "mean of empty" 0. (Stats.mean s);
  Alcotest.(check (float 1e-9)) "median of empty" 0. (Stats.median s)

let test_metrics () =
  let m = Ntcs_obs.Registry.create () in
  Ntcs_obs.Registry.incr m "x";
  Ntcs_obs.Registry.incr m "x" ~by:4;
  Ntcs_obs.Registry.incr m "y";
  Alcotest.(check int) "x" 5 (Ntcs_obs.Registry.get m "x");
  Alcotest.(check int) "y" 1 (Ntcs_obs.Registry.get m "y");
  Alcotest.(check int) "absent" 0 (Ntcs_obs.Registry.get m "z");
  Alcotest.(check (list (pair string int))) "alist sorted"
    [ ("x", 5); ("y", 1) ]
    (Ntcs_obs.Registry.counters_alist m);
  Ntcs_obs.Registry.set_gauge m "g" 2.5;
  Alcotest.(check (float 1e-9)) "gauge" 2.5 (Ntcs_obs.Registry.gauge m "g");
  Alcotest.(check (list (pair string (float 1e-9)))) "gauges alist"
    [ ("g", 2.5) ]
    (Ntcs_obs.Registry.gauges_alist m);
  Alcotest.(check (list (pair string int))) "a gauge is no counter"
    [ ("x", 5); ("y", 1) ]
    (Ntcs_obs.Registry.counters_alist m);
  (* [pp_stats] lists counters then gauges, each name-sorted. *)
  Alcotest.(check string) "pp lists counters then gauges"
    (Printf.sprintf "%-40s %d\n%-40s %d\n%-40s %s\n" "x" 5 "y" 1 "g" "2.500")
    (Fmt.str "%a" Ntcs_obs.Registry.pp_stats m)

let () =
  Alcotest.run "ntcs_util"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "between" `Quick test_rng_between;
          Alcotest.test_case "errors" `Quick test_rng_errors;
          Alcotest.test_case "shuffle permutes" `Quick test_rng_shuffle_permutes;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
        ] );
      ( "heap",
        [
          Alcotest.test_case "sorts" `Quick test_heap_sorts;
          Alcotest.test_case "peek/pop" `Quick test_heap_peek_pop;
          Alcotest.test_case "stability by seq" `Quick test_heap_stability_by_seq;
        ] );
      ( "lru",
        Alcotest.test_case "basics" `Quick test_lru_basics
        :: Alcotest.test_case "update refreshes" `Quick test_lru_update_refreshes
        :: Alcotest.test_case "stats and remove" `Quick test_lru_stats_and_remove
        :: List.map QCheck_alcotest.to_alcotest lru_props );
      ( "bqueue",
        [
          Alcotest.test_case "bounded fifo" `Quick test_bqueue;
          Alcotest.test_case "ring: evicting push, newest n" `Quick test_bqueue_ring;
        ] );
      ( "stats",
        [
          Alcotest.test_case "moments and percentiles" `Quick test_stats;
          Alcotest.test_case "empty" `Quick test_stats_empty;
        ] );
      ("metrics", [ Alcotest.test_case "counters and gauges" `Quick test_metrics ]);
    ]
