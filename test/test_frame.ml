(* Property tests for the zero-copy frame pipeline: Proto.Frame views are
   observationally identical to the legacy encode/decode path, in-place
   header patches produce the exact bytes a decode-modify-re-encode would
   have produced (the invariant that makes gateway patching sound, §5.2),
   random, truncated and corrupted bytes can only surface as Bad_header or
   Shift_error, and the
   buffer pool really recycles. *)

open Ntcs
open Ntcs_wire

let qtest ?(count = 300) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* --- generators --- *)

let addr_gen =
  QCheck.Gen.(
    let id = int_range 0 0x3FFFFFFF and value = int_range 0 0xFFFFFFFF in
    oneof
      [
        map2 (fun s v -> Addr.unique ~server_id:s ~value:v) id value;
        map2 (fun a v -> Addr.temporary ~assigner:a ~value:v) id value;
      ])

let kind_gen =
  QCheck.Gen.oneofl
    [ Proto.Data; Proto.Dgram; Proto.Reply; Proto.Hello; Proto.Hello_ack;
      Proto.Ivc_open; Proto.Ivc_accept; Proto.Ivc_reject; Proto.Ivc_close;
      Proto.Ping; Proto.Pong ]

(* A full random header plus a payload whose length matches it. *)
let frame_gen =
  QCheck.Gen.(
    kind_gen >>= fun kind ->
    addr_gen >>= fun src ->
    addr_gen >>= fun dst ->
    oneofl [ Convert.Image; Convert.Packed ] >>= fun mode ->
    oneofl [ Endian.Le; Endian.Be ] >>= fun src_order ->
    int_range 0 255 >>= fun hops ->
    int_range 0 0xFFFFFFFF >>= fun seq ->
    int_range 0 0xFFFFFFFF >>= fun conv ->
    int_range 0 0xFFFFFFFF >>= fun app_tag ->
    int_range 0 0xFFFFFFFF >>= fun ivc ->
    int_range 0 0xFFFFFFFF >>= fun circuit ->
    int_range 0 0xFFFFFFFF >>= fun sp_seq ->
    string_size (int_range 0 300) >>= fun payload ->
    let payload = Bytes.of_string payload in
    return
      ( Proto.make_header ~kind ~src ~dst ~mode ~src_order ~hops ~seq ~conv ~app_tag
          ~ivc
          ~span:(Ntcs_obs.Span.make ~circuit ~seq:sp_seq)
          ~payload_len:(Bytes.length payload) (),
        payload ))

let frame_arb =
  QCheck.make
    ~print:(fun (h, payload) ->
      Printf.sprintf "%s src=%s dst=%s hops=%d ivc=%d |payload|=%d"
        (Proto.kind_to_string h.Proto.kind)
        (Addr.to_string h.Proto.src) (Addr.to_string h.Proto.dst) h.Proto.hops
        h.Proto.ivc (Bytes.length payload))
    frame_gen

(* A frame encoded into a fresh buffer of its exact size, as a send does,
   and the bytes a view spans. *)
let encoded h payload =
  Proto.Frame.encode_into h ~payload
    (Bytes.create (Proto.header_bytes + Bytes.length payload))
    ~off:0

let bytes_of v = Bytes.sub (Proto.Frame.buf v) (Proto.Frame.off v) (Proto.Frame.len v)

(* --- view round-trip equals the legacy path --- *)

let prop_view_equals_legacy =
  qtest "Frame view round-trip == legacy encode/decode" frame_arb (fun (h, payload) ->
      let legacy = Proto.encode_frame h payload in
      let v = encoded h payload in
      Bytes.equal legacy (bytes_of v)
      && Proto.Frame.header (Proto.Frame.of_bytes legacy) = h
      && Bytes.equal (Proto.Frame.payload_bytes (Proto.Frame.of_bytes legacy)) payload)

let prop_view_at_offset =
  qtest "view over an embedded frame sees the same header and payload"
    (QCheck.pair frame_arb (QCheck.make QCheck.Gen.(int_range 0 64)))
    (fun ((h, payload), pad) ->
      let frame = Proto.encode_frame h payload in
      let big = Bytes.make (pad + Bytes.length frame + 17) '\xAA' in
      Bytes.blit frame 0 big pad (Bytes.length frame);
      let v = Proto.Frame.of_bytes ~off:pad ~len:(Bytes.length frame) big in
      Proto.Frame.header v = h
      && Bytes.equal (Proto.Frame.payload_bytes v) payload
      && Bytes.equal (bytes_of v) frame)

(* --- in-place patches == decode-modify-re-encode --- *)

let patch_arb =
  QCheck.pair frame_arb
    (QCheck.make QCheck.Gen.(pair (int_range 0 0xFFFFFFFF) (int_range 0 255)))

let prop_patch_equals_reencode =
  qtest "patch_ivc/hops give the re-encoded bytes" patch_arb
    (fun ((h, payload), (ivc', hops')) ->
      let v = encoded h payload in
      Proto.Frame.patch_ivc v ivc';
      Proto.Frame.patch_hops v hops';
      let h' = { h with Proto.ivc = ivc'; hops = hops' } in
      Bytes.equal (bytes_of v) (Proto.encode_frame h' payload)
      && Proto.Frame.header v = h')

(* A patch drops the memo: a view whose header was read before the patches
   decodes the patched words the next time it is asked. *)
let prop_patch_redecodes =
  qtest "a memoised header re-decodes after patches" patch_arb
    (fun ((h, payload), (ivc', hops')) ->
      let v = Proto.Frame.of_bytes (Proto.encode_frame h payload) in
      ignore (Proto.Frame.header v);
      Proto.Frame.patch_ivc v ivc';
      Proto.Frame.patch_hops v hops';
      Proto.Frame.header v = { h with Proto.ivc = ivc'; hops = hops' })

(* A gateway forward patches two words of a view whose header is
   memoised: neither patch may allocate. *)
let test_patches_allocate_nothing () =
  let h =
    Proto.make_header ~kind:Proto.Data
      ~src:(Addr.unique ~server_id:1 ~value:1)
      ~dst:(Addr.unique ~server_id:1 ~value:2)
      ~ivc:7 ~hops:1 ~payload_len:0 ()
  in
  let v = encoded h (Bytes.of_string "payload") in
  let patch_words ivc hops =
    ignore (Proto.Frame.header v);
    let before = Gc.minor_words () in
    Proto.Frame.patch_ivc v ivc;
    Proto.Frame.patch_hops v hops;
    Gc.minor_words () -. before
  in
  let idle () =
    let before = Gc.minor_words () in
    Gc.minor_words () -. before
  in
  List.iter
    (fun (ivc, hops) ->
      Alcotest.(check (float 0.))
        (Printf.sprintf "patch_ivc %d + patch_hops %d: 0 minor words" ivc hops)
        (idle ()) (patch_words ivc hops))
    [ (8, 2); (0xFFFFFFFF, 255); (0, 0) ]

let prop_patch_keeps_snapshots =
  qtest "a header read before a patch is unaffected by it" frame_arb
    (fun (h, payload) ->
      let v = encoded h payload in
      let before = Proto.Frame.header v in
      Proto.Frame.patch_ivc v ((h.Proto.ivc + 1) land 0xFFFFFFFF);
      (* The gateway error path depends on this: it reports the pre-patch
         src/ivc after the forward has already rewritten the words. *)
      before.Proto.ivc = h.Proto.ivc && before = h)

(* --- hop-count range is enforced, not wrapped --- *)

let test_hops_never_wrap () =
  let h =
    Proto.make_header ~kind:Proto.Data
      ~src:(Addr.unique ~server_id:1 ~value:1)
      ~dst:(Addr.unique ~server_id:1 ~value:2)
      ~hops:256 ~payload_len:0 ()
  in
  Alcotest.(check bool) "encode_header raises" true
    (match Proto.encode_header h with exception Proto.Bad_header _ -> true | _ -> false);
  let v = encoded { h with Proto.hops = 255 } Bytes.empty in
  Alcotest.(check bool) "patch_hops 256 raises" true
    (match Proto.Frame.patch_hops v 256 with
     | exception Proto.Bad_header _ -> true
     | () -> false);
  Alcotest.(check bool) "patch_hops -1 raises" true
    (match Proto.Frame.patch_hops v (-1) with
     | exception Proto.Bad_header _ -> true
     | () -> false);
  (* The failed patches must not have corrupted the frame. *)
  Alcotest.(check int) "hops intact" 255 (Proto.Frame.header v).Proto.hops

(* --- fuzz: random, truncated and corrupted bytes surface only as codec errors --- *)

let only_codec_errors f =
  match f () with
  | _ -> true
  | exception (Proto.Bad_header _ | Shift.Shift_error _) -> true

let prop_random_safe =
  qtest "random bytes: view construction raises only Bad_header/Shift_error"
    (QCheck.make
       QCheck.Gen.(pair (string_size (int_range 0 120)) (int_range 0 60)))
    (fun (junk, off) ->
      let buf = Bytes.of_string junk in
      only_codec_errors (fun () ->
          let v = Proto.Frame.of_bytes ~off buf in
          ignore (Proto.Frame.header v);
          ignore (Proto.Frame.payload_bytes v)))

let fuzz_arb =
  QCheck.pair frame_arb
    (QCheck.make QCheck.Gen.(triple small_nat small_nat (int_range 0 7)))

let prop_truncation_safe =
  qtest "truncated frames: view construction raises only Bad_header/Shift_error" fuzz_arb
    (fun ((h, payload), (cut, _, _)) ->
      let frame = Proto.encode_frame h payload in
      let t = Bytes.sub frame 0 (cut mod Bytes.length frame) in
      only_codec_errors (fun () ->
          let v = Proto.Frame.of_bytes t in
          ignore (Proto.Frame.header v);
          ignore (Proto.Frame.payload_bytes v)))

let prop_corruption_safe =
  qtest "bit-flipped frames: decode raises only Bad_header/Shift_error" fuzz_arb
    (fun ((h, payload), (pos, bit, _)) ->
      let frame = Proto.encode_frame h payload in
      let pos = pos mod Bytes.length frame in
      Bytes.set frame pos
        (Char.chr (Char.code (Bytes.get frame pos) lxor (1 lsl (bit mod 8))));
      only_codec_errors (fun () ->
          let v = Proto.Frame.of_bytes frame in
          ignore (Proto.Frame.header v);
          ignore (Proto.Frame.payload_bytes v)))

let prop_bad_view_bounds =
  qtest "of_bytes rejects windows that cannot hold a frame"
    (QCheck.make QCheck.Gen.(triple (int_range (-8) 80) (int_range (-8) 80) (int_range 0 80)))
    (fun (off, len, size) ->
      let buf = Bytes.create size in
      match Proto.Frame.of_bytes ~off ~len buf with
      | v ->
        (* Accepted: the window must genuinely fit. *)
        off >= 0 && len >= Proto.header_bytes
        && off + len <= size
        && Proto.Frame.len v = len
      | exception Proto.Bad_header _ -> true)

(* --- the buffer pool recycles --- *)

module Pool = Ntcs_util.Pool

let test_pool_recycles () =
  let pool = Pool.create () in
  let b1 = Pool.alloc pool 300 in
  Alcotest.(check int) "rounded to a size class" 512 (Bytes.length b1);
  Pool.release pool b1;
  let b2 = Pool.alloc pool 400 in
  Alcotest.(check bool) "same class buffer reused" true (b1 == b2);
  Pool.release pool b2;
  let big = Pool.alloc pool 200_000 in
  Alcotest.(check int) "oversize allocations are exact" 200_000 (Bytes.length big);
  Pool.release pool big;
  Alcotest.(check bool) "oversize buffers are not recycled" false
    (Pool.alloc pool 200_000 == big)

let test_pool_size_classes () =
  let pool = Pool.create () in
  List.iter
    (fun (n, size) ->
      let b = Pool.alloc pool n in
      Alcotest.(check int) (Printf.sprintf "alloc %d" n) size (Bytes.length b);
      Pool.release pool b)
    [
      (1, 64); (63, 64); (64, 64); (65, 128); (511, 512); (512, 512); (513, 1024);
      (4096, 4096); (Pool.max_pooled, Pool.max_pooled);
      (Pool.max_pooled + 1, Pool.max_pooled + 1);
    ]

let test_pool_double_release () =
  (* A second release of the same buffer, or bytes of a size no [alloc]
     produces, must never reach a freelist: either would hand one buffer
     to two later [alloc]s. *)
  let pool = Pool.create () in
  let b = Pool.alloc pool 100 in
  Pool.release pool b;
  Pool.release pool b;
  Pool.release pool (Bytes.create 100);
  let b1 = Pool.alloc pool 100 and b2 = Pool.alloc pool 100 in
  Alcotest.(check bool) "the released buffer comes back once" true (b1 == b);
  Alcotest.(check bool) "two allocs never alias" false (b1 == b2);
  Alcotest.(check int) "a fresh class-sized buffer" 128 (Bytes.length b2)

let test_pool_foreign_release () =
  (* Bytes the pool never handed out: one of a size no [alloc] produces
     and one above [max_pooled] are dropped; one of an exact class size
     is indistinguishable from a pooled buffer and is recycled once. *)
  let pool = Pool.create () in
  let odd = Bytes.create 100 and over = Bytes.create (Pool.max_pooled + 1) in
  let classed = Bytes.create 256 in
  Pool.release pool odd;
  Pool.release pool over;
  Pool.release pool classed;
  let b = Pool.alloc pool 100 in
  Alcotest.(check bool) "odd size never handed out" false (b == odd);
  Alcotest.(check int) "class 128 served fresh" 128 (Bytes.length b);
  Alcotest.(check bool) "oversize never handed out" false
    (Pool.alloc pool (Pool.max_pooled + 1) == over);
  let c1 = Pool.alloc pool 256 and c2 = Pool.alloc pool 256 in
  Alcotest.(check bool) "class-sized bytes recycled" true (c1 == classed);
  Alcotest.(check bool) "and only once" false (c2 == classed)

let test_pool_boundary () =
  (* [max_pooled] is the largest pooled request: recycled by identity.
     One byte more is a plain allocation that is never recycled. *)
  let pool = Pool.create () in
  let at = Pool.alloc pool Pool.max_pooled in
  let over = Pool.alloc pool (Pool.max_pooled + 1) in
  Pool.release pool at;
  Pool.release pool over;
  Alcotest.(check bool) "boundary buffer recycled" true
    (Pool.alloc pool Pool.max_pooled == at);
  Alcotest.(check bool) "past the boundary not recycled" false
    (Pool.alloc pool (Pool.max_pooled + 1) == over)

let test_pool_classes_separate () =
  (* Each class is its own LIFO freelist: a released 64 B buffer never
     serves a 65 B request, and the last buffer released comes back first. *)
  let pool = Pool.create () in
  let s1 = Pool.alloc pool 64 and s2 = Pool.alloc pool 64 in
  Pool.release pool s1;
  Pool.release pool s2;
  let m = Pool.alloc pool 65 in
  Alcotest.(check bool) "another class is not served" true (m != s1 && m != s2);
  Alcotest.(check bool) "last released first" true (Pool.alloc pool 64 == s2);
  Alcotest.(check bool) "then the one before" true (Pool.alloc pool 64 == s1)

(* Seeded alloc/release interleavings, with double releases and foreign
   bytes mixed in, against a model of the freelists: per-class LIFO
   stacks that a double release or a non-class size never enters. *)
type pool_op =
  | Alloc of int  (* request size seed *)
  | Release of int  (* index into the live buffers *)
  | Release_again of int  (* class seed: release a resting buffer again *)
  | Foreign of int  (* size seed: release bytes the pool never issued *)

let pool_ops_arb =
  let op =
    QCheck.Gen.(
      map
        (fun (tag, k) ->
          match tag with
          | 0 | 1 -> Alloc k
          | 2 | 3 -> Release k
          | 4 -> Release_again k
          | _ -> Foreign k)
        (pair (int_range 0 5) (int_range 0 99_999)))
  in
  QCheck.make
    ~print:(fun ops ->
      String.concat ";"
        (List.map
           (function
             | Alloc k -> Printf.sprintf "A%d" k
             | Release k -> Printf.sprintf "R%d" k
             | Release_again k -> Printf.sprintf "D%d" k
             | Foreign k -> Printf.sprintf "F%d" k)
           ops))
    QCheck.Gen.(list_size (int_range 1 60) op)

(* Class size a request of [n] bytes is served at. *)
let model_class_size n =
  let rec go s = if s >= n then s else go (2 * s) in
  go 64

(* Run [ops] on a fresh pool. [on_alloc ~n ~predicted b ~live] sees each
   hand-out [b] for a request of [n] bytes, the buffer the model says must
   come back ([None]: a fresh one) and the buffers still out before it. *)
let run_pool_ops ops ~on_alloc =
  let pool = Pool.create () in
  let free = Hashtbl.create 11 in (* class size -> resting buffers, LIFO *)
  let resting c = Option.value ~default:[] (Hashtbl.find_opt free c) in
  let live = ref [] in
  List.iter
    (function
      | Alloc k ->
        let n = 1 + (k mod Pool.max_pooled) in
        let c = model_class_size n in
        let predicted =
          match resting c with
          | b :: rest ->
            Hashtbl.replace free c rest;
            Some b
          | [] -> None
        in
        let b = Pool.alloc pool n in
        on_alloc ~n ~predicted b ~live:!live;
        live := b :: !live
      | Release k ->
        if !live <> [] then begin
          let i = k mod List.length !live in
          let b = List.nth !live i in
          live := List.filteri (fun j _ -> j <> i) !live;
          Pool.release pool b;
          let c = Bytes.length b in
          Hashtbl.replace free c (b :: resting c)
        end
      | Release_again k -> (
        let classes = List.sort compare (List.of_seq (Hashtbl.to_seq_keys free)) in
        match List.filter (fun c -> resting c <> []) classes with
        | [] -> ()
        | cs -> Pool.release pool (List.hd (resting (List.nth cs (k mod List.length cs)))))
      | Foreign k ->
        (* A size no alloc produces, or one past the largest class. *)
        let n =
          if k mod 2 = 0 then 65 + (k mod 1000) else Pool.max_pooled + 1 + (k mod 64)
        in
        let n = if n land (n - 1) = 0 then n + 1 else n in
        Pool.release pool (Bytes.create n))
    ops

let prop_pool_matches_model =
  qtest ~count:200 "every alloc hands out what the freelist model predicts" pool_ops_arb
    (fun ops ->
      run_pool_ops ops ~on_alloc:(fun ~n ~predicted b ~live:_ ->
          match predicted with
          | Some p -> if b != p then Alcotest.fail "pool did not reissue the model's buffer"
          | None ->
            if Bytes.length b <> model_class_size n then
              Alcotest.failf "%d-byte request served %d bytes" n (Bytes.length b));
      true)

let prop_pool_never_aliases =
  qtest ~count:200 "no hand-out aliases a buffer still out" pool_ops_arb (fun ops ->
      run_pool_ops ops ~on_alloc:(fun ~n:_ ~predicted:_ b ~live ->
          if List.exists (fun l -> l == b) live then
            Alcotest.fail "one buffer handed to two owners");
      true)

let () =
  Alcotest.run "frame"
    [
      ( "views",
        [
          prop_view_equals_legacy;
          prop_view_at_offset;
          prop_patch_equals_reencode;
          prop_patch_keeps_snapshots;
          Alcotest.test_case "hops never wrap" `Quick test_hops_never_wrap;
          prop_patch_redecodes;
          Alcotest.test_case "patches allocate nothing" `Quick test_patches_allocate_nothing;
        ] );
      ( "fuzz",
        [ prop_random_safe; prop_truncation_safe; prop_corruption_safe; prop_bad_view_bounds ] );
      ( "pool",
        [
          Alcotest.test_case "recycles buffers" `Quick test_pool_recycles;
          Alcotest.test_case "size classes" `Quick test_pool_size_classes;
          Alcotest.test_case "double release" `Quick test_pool_double_release;
          Alcotest.test_case "foreign release" `Quick test_pool_foreign_release;
          Alcotest.test_case "pooling boundary" `Quick test_pool_boundary;
          Alcotest.test_case "classes are separate" `Quick test_pool_classes_separate;
          prop_pool_matches_model;
          prop_pool_never_aliases;
        ] );
    ]
