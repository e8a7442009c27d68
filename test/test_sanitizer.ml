(* Pool sanitizer tests: the dynamic half of the frame-ownership
   discipline. Unit tests pin each violation class (double release,
   foreign release, stale write through a released buffer, leak at
   teardown) and the release-side guards that hold even with the
   sanitizer off. The qcheck properties drive seeded alloc/release/abuse
   interleavings against a reference model and require that the
   sanitizer detects exactly the injected violations — no false
   positives on the clean ops, no misses on the dirty ones — and that
   the same seed yields a byte-identical violation trace. *)

module Pool = Ntcs_util.Pool
module Registry = Ntcs_obs.Registry

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* A pool with the sanitizer armed and violations captured as text, the
   way the world wires them into its trace. *)
let armed_pool () =
  let r = Registry.create () in
  let pool = Pool.create ~registry:r () in
  let events = Buffer.create 64 in
  Pool.set_emit pool (fun ~cat ~detail ->
      Buffer.add_string events (Printf.sprintf "%s %s\n" cat detail));
  Pool.set_sanitize pool true;
  (pool, r, events)

(* --- violation classes, one by one --- *)

let test_double_release () =
  let pool, r, events = armed_pool () in
  let b = Pool.alloc pool 100 in
  Pool.release pool b;
  Pool.release pool b;
  Alcotest.(check int) "double_release counted" 1
    (Registry.get r "pool.sanitizer.double_release");
  Alcotest.(check int) "also a bad_release" 1 (Registry.get r "pool.bad_release");
  Alcotest.(check int) "one violation" 1 (Pool.violations pool);
  Alcotest.(check int) "gauge not double-decremented" 0 (Pool.in_use pool);
  Alcotest.(check string) "event names size and class"
    "pool.sanitizer.double_release size=128 class=128\n" (Buffer.contents events);
  (* The freelist was not aliased: the two allocs after the double
     release must be distinct buffers. *)
  let b1 = Pool.alloc pool 100 and b2 = Pool.alloc pool 100 in
  Alcotest.(check bool) "first alloc reuses" true (b1 == b);
  Alcotest.(check bool) "second alloc is fresh" false (b1 == b2)

let test_foreign_release () =
  let pool, r, _ = armed_pool () in
  (* Never handed out by this pool, in every size shape: an exact class
     size, a size no alloc ever produces, and an unpooled size. *)
  Pool.release pool (Bytes.create 256);
  Pool.release pool (Bytes.create 100);
  Pool.release pool (Bytes.create (Pool.max_pooled + 1));
  Alcotest.(check int) "all three foreign" 3
    (Registry.get r "pool.sanitizer.foreign_release");
  Alcotest.(check int) "all three bad" 3 (Registry.get r "pool.bad_release");
  Alcotest.(check int) "gauge untouched" 0 (Pool.in_use pool)

let test_stale_write_poison () =
  let pool, r, events = armed_pool () in
  let b = Pool.alloc pool 128 in
  Pool.release pool b;
  (* A stale view kept across the release writes through the buffer
     while it rests on the freelist... *)
  Bytes.set b 5 'x';
  (* ...and the canary check on the next hand-out catches it. *)
  let b2 = Pool.alloc pool 128 in
  Alcotest.(check bool) "same buffer re-issued" true (b == b2);
  Alcotest.(check int) "poison tripped" 1 (Registry.get r "pool.sanitizer.poison");
  Alcotest.(check string) "event names the first stale byte"
    "pool.sanitizer.poison size=128 first_stale_byte=5\n" (Buffer.contents events);
  (* Once re-issued and released again, the buffer is re-poisoned: a
     clean cycle reports nothing further. *)
  Pool.release pool b2;
  let b3 = Pool.alloc pool 128 in
  ignore b3;
  Alcotest.(check int) "clean cycle stays clean" 1
    (Registry.get r "pool.sanitizer.poison")

let test_leak_report () =
  let pool, r, events = armed_pool () in
  let b1 = Pool.alloc pool 64 in
  let b2 = Pool.alloc pool 70_000 in
  ignore b1;
  ignore b2;
  Alcotest.(check int) "two leaked" 2 (Pool.leak_check pool);
  Alcotest.(check int) "leak counter" 2 (Registry.get r "pool.sanitizer.leak");
  Alcotest.(check string) "hand-out order, generation-tagged"
    "pool.sanitizer.leak gen=1 size=64\npool.sanitizer.leak gen=2 size=70000\n"
    (Buffer.contents events);
  Alcotest.(check int) "report drains the tracker" 0 (Pool.leak_check pool)

let test_arming_poisons_resting_buffers () =
  (* Buffers already resting on a freelist when the sanitizer arms
     predate the canary discipline; arming must poison them so their
     next hand-out verifies cleanly instead of tripping on old payload
     bytes. *)
  let r = Registry.create () in
  let pool = Pool.create ~registry:r () in
  let b = Pool.alloc pool 128 in
  Bytes.fill b 0 128 'q';
  Pool.release pool b;
  Pool.set_sanitize pool true;
  ignore (Pool.alloc pool 128);
  Alcotest.(check int) "no false poison hit" 0
    (Registry.get r "pool.sanitizer.poison")

(* --- the guards that hold with the sanitizer off --- *)

let test_guards_without_sanitizer () =
  let r = Registry.create () in
  let pool = Pool.create ~registry:r () in
  let b = Pool.alloc pool 100 in
  Pool.release pool b;
  Pool.release pool b;
  Pool.release pool (Bytes.create 100);
  Alcotest.(check int) "both rejections counted" 2 (Registry.get r "pool.bad_release");
  Alcotest.(check int) "no sanitizer violations" 0 (Pool.violations pool);
  Alcotest.(check int) "gauge still sane" 0 (Pool.in_use pool);
  let b1 = Pool.alloc pool 100 and b2 = Pool.alloc pool 100 in
  Alcotest.(check bool) "freelist reuses once" true (b1 == b);
  Alcotest.(check bool) "no aliased hand-out" false (b1 == b2)

let test_pooling_boundary () =
  (* n = max_pooled is the largest pooled request; n = max_pooled + 1
     falls through to plain allocation — and both must keep the
     in_use/high_water accounting consistent on the way out and back. *)
  let r = Registry.create () in
  let pool = Pool.create ~registry:r () in
  let at = Pool.alloc pool Pool.max_pooled in
  Alcotest.(check int) "boundary is pooled: class-sized" Pool.max_pooled
    (Bytes.length at);
  Alcotest.(check int) "boundary is a miss" 1 (Registry.get r "pool.misses");
  Alcotest.(check int) "not unpooled" 0 (Registry.get r "pool.unpooled");
  let over = Pool.alloc pool (Pool.max_pooled + 1) in
  Alcotest.(check int) "over the boundary: exact size" (Pool.max_pooled + 1)
    (Bytes.length over);
  Alcotest.(check int) "counted unpooled" 1 (Registry.get r "pool.unpooled");
  Alcotest.(check int) "both hand-outs owed back" 2 (Pool.in_use pool);
  Alcotest.(check int) "high water saw both" 2
    (int_of_float (Registry.gauge r "pool.high_water"));
  Pool.release pool over;
  Pool.release pool at;
  Alcotest.(check int) "gauge returns to zero" 0 (Pool.in_use pool);
  Alcotest.(check int) "gauge exported" 0
    (int_of_float (Registry.gauge r "pool.in_use"));
  let at2 = Pool.alloc pool Pool.max_pooled in
  Alcotest.(check bool) "boundary buffer recycled" true (at == at2);
  Alcotest.(check int) "recycle is a hit" 1 (Registry.get r "pool.hits")

(* --- seeded interleavings against a reference model ---

   Ops are interpreted against a real pool and, in lockstep, a model
   that mirrors the freelist discipline (per-class LIFO stacks with a
   dirty bit per resting buffer). The model predicts exactly which
   violations the sanitizer must report; anything more is a false
   positive, anything less is a miss. *)

type op =
  | Alloc of int  (* pooled size seed *)
  | Release_valid of int  (* index into the live set *)
  | Double_release of int  (* class seed: release a resting buffer again *)
  | Stale_write of int  (* class seed: write through a resting buffer *)
  | Foreign of int  (* size seed: release bytes the pool never issued *)

let op_gen =
  QCheck.Gen.(
    map
      (fun (tag, k) ->
        match tag with
        | 0 | 1 -> Alloc k
        | 2 -> Release_valid k
        | 3 -> Double_release k
        | 4 -> Stale_write k
        | _ -> Foreign k)
      (pair (int_range 0 5) (int_range 0 99_999)))

let ops_arb =
  QCheck.make
    ~print:(fun ops ->
      String.concat ";"
        (List.map
           (function
             | Alloc k -> Printf.sprintf "A%d" k
             | Release_valid k -> Printf.sprintf "R%d" k
             | Double_release k -> Printf.sprintf "D%d" k
             | Stale_write k -> Printf.sprintf "W%d" k
             | Foreign k -> Printf.sprintf "F%d" k)
           ops))
    QCheck.Gen.(list_size (int_range 1 60) op_gen)

let num_classes = 11

let class_of n =
  let rec go shift c = if 1 lsl shift >= n then c else go (shift + 1) (c + 1) in
  if n <= 64 then 0 else go 7 1

(* Interpret [ops] against a fresh armed pool. Returns the registry, the
   captured event text and the model's expected violation counts
   (poison, double, foreign, leaks). *)
let interpret ops =
  let pool, r, events = armed_pool () in
  let free = Array.make num_classes [] in (* (buffer, dirty) stacks, LIFO *)
  let live = ref [] in
  let exp_poison = ref 0 and exp_double = ref 0 and exp_foreign = ref 0 in
  (* Pick the first class with a resting buffer, scanning from a seeded
     start so both violation injectors reach every class. *)
  let resting_class k =
    let rec go i =
      if i >= num_classes then None
      else
        let c = (k + i) mod num_classes in
        match free.(c) with [] -> go (i + 1) | _ -> Some c
    in
    go 0
  in
  List.iter
    (fun op ->
      match op with
      | Alloc k ->
        let n = 1 + (k mod Pool.max_pooled) in
        let c = class_of n in
        let b = Pool.alloc pool n in
        (match free.(c) with
        | (top, dirty) :: rest ->
          assert (b == top);
          if dirty then incr exp_poison;
          free.(c) <- rest
        | [] -> ());
        live := b :: !live
      | Release_valid k ->
        if !live <> [] then begin
          let i = k mod List.length !live in
          let b = List.nth !live i in
          live := List.filteri (fun j _ -> j <> i) !live;
          Pool.release pool b;
          (* Accepted: poison-filled and resting clean. *)
          let c = class_of (Bytes.length b) in
          free.(c) <- (b, false) :: free.(c)
        end
      | Double_release k -> (
        match resting_class k with
        | None -> ()
        | Some c ->
          let b, _ = List.hd free.(c) in
          Pool.release pool b;
          incr exp_double)
      | Stale_write k -> (
        match resting_class k with
        | None -> ()
        | Some c ->
          let b, _ = List.hd free.(c) in
          Bytes.set b 0 'x';
          free.(c) <- (b, true) :: List.tl free.(c))
      | Foreign k ->
        let n = if k mod 2 = 0 then 100 else 64 lsl (k mod 4) in
        Pool.release pool (Bytes.create n);
        incr exp_foreign)
    ops;
  let exp_leaks = List.length !live in
  let leaks = Pool.leak_check pool in
  (pool, r, Buffer.contents events, (!exp_poison, !exp_double, !exp_foreign, exp_leaks, leaks))

let prop_detects_exactly =
  qtest "sanitizer detects exactly the injected violations" ops_arb (fun ops ->
      let pool, r, _, (poison, double, foreign, exp_leaks, leaks) = interpret ops in
      Registry.get r "pool.sanitizer.poison" = poison
      && Registry.get r "pool.sanitizer.double_release" = double
      && Registry.get r "pool.sanitizer.foreign_release" = foreign
      && Registry.get r "pool.sanitizer.leak" = exp_leaks
      && leaks = exp_leaks
      && Pool.violations pool = poison + double + foreign + exp_leaks)

let prop_trace_deterministic =
  qtest "same interleaving, byte-identical violation trace" ops_arb (fun ops ->
      let pool1, _, trace1, _ = interpret ops in
      let pool2, _, trace2, _ = interpret ops in
      String.equal trace1 trace2 && Pool.violations pool1 = Pool.violations pool2)

let () =
  Alcotest.run "sanitizer"
    [
      ( "violations",
        [
          Alcotest.test_case "double release" `Quick test_double_release;
          Alcotest.test_case "foreign release" `Quick test_foreign_release;
          Alcotest.test_case "stale write trips the canary" `Quick
            test_stale_write_poison;
          Alcotest.test_case "leak report at teardown" `Quick test_leak_report;
          Alcotest.test_case "arming poisons resting buffers" `Quick
            test_arming_poisons_resting_buffers;
        ] );
      ( "guards",
        [
          Alcotest.test_case "bad releases rejected unsanitized" `Quick
            test_guards_without_sanitizer;
          Alcotest.test_case "pooling boundary accounting" `Quick
            test_pooling_boundary;
        ] );
      ("interleavings", [ prop_detects_exactly; prop_trace_deterministic ]);
    ]
