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

(* --- view round-trip equals the legacy path --- *)

let prop_view_equals_legacy =
  qtest "Frame view round-trip == legacy encode/decode" frame_arb (fun (h, payload) ->
      let legacy = Proto.encode_frame h payload in
      let v = Proto.Frame.of_parts h payload in
      Bytes.equal legacy (Proto.Frame.to_bytes v)
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
      && Bytes.equal (Proto.Frame.to_bytes v) frame)

(* --- in-place patches == decode-modify-re-encode --- *)

let patch_arb =
  QCheck.pair frame_arb
    (QCheck.make
       QCheck.Gen.(
         triple (int_range 0 0xFFFFFFFF) (int_range 0 255) addr_gen))

let prop_patch_equals_reencode =
  qtest "patch_ivc/hops/dst produce the re-encoded bytes" patch_arb
    (fun ((h, payload), (ivc', hops', dst')) ->
      let v = Proto.Frame.of_parts h payload in
      Proto.Frame.patch_ivc v ivc';
      Proto.Frame.patch_hops v hops';
      Proto.Frame.patch_dst v dst';
      let h' = { h with Proto.ivc = ivc'; hops = hops'; dst = dst' } in
      Bytes.equal (Proto.Frame.to_bytes v) (Proto.encode_frame h' payload)
      && Proto.Frame.header v = h')

let prop_patch_keeps_snapshots =
  qtest "a header read before a patch is unaffected by it" frame_arb
    (fun (h, payload) ->
      let v = Proto.Frame.of_parts h payload in
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
  let v = Proto.Frame.of_parts { h with Proto.hops = 255 } Bytes.empty in
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

let test_pool_recycles () =
  let r = Ntcs_obs.Registry.create () in
  let pool = Ntcs_util.Pool.create ~registry:r () in
  let b1 = Ntcs_util.Pool.alloc pool 300 in
  Alcotest.(check bool) "rounded to a size class" true (Bytes.length b1 = 512);
  Alcotest.(check int) "one out" 1 (Ntcs_util.Pool.in_use pool);
  Ntcs_util.Pool.release pool b1;
  Alcotest.(check int) "none out" 0 (Ntcs_util.Pool.in_use pool);
  let b2 = Ntcs_util.Pool.alloc pool 400 in
  Alcotest.(check bool) "same class buffer reused" true (b1 == b2);
  Ntcs_util.Pool.release pool b2;
  let big = Ntcs_util.Pool.alloc pool 200_000 in
  Alcotest.(check int) "oversize allocations are exact" 200_000 (Bytes.length big);
  Ntcs_util.Pool.release pool big;
  Alcotest.(check int) "one miss then a hit" 1
    (Ntcs_obs.Registry.get r "pool.misses");
  Alcotest.(check int) "hit counted" 1 (Ntcs_obs.Registry.get r "pool.hits");
  Alcotest.(check int) "oversize counted" 1 (Ntcs_obs.Registry.get r "pool.unpooled");
  Alcotest.(check int) "high water" 1
    (int_of_float (Ntcs_obs.Registry.gauge r "pool.high_water"))

let test_pool_size_classes () =
  let pool = Ntcs_util.Pool.create () in
  List.iter
    (fun n ->
      let b = Ntcs_util.Pool.alloc pool n in
      Alcotest.(check bool)
        (Printf.sprintf "alloc %d fits" n)
        true
        (Bytes.length b >= n);
      Ntcs_util.Pool.release pool b)
    [ 1; 63; 64; 65; 511; 512; 513; 4096; 65536; 65537 ];
  Alcotest.(check int) "all returned" 0 (Ntcs_util.Pool.in_use pool)

let test_pool_boundary_accounting () =
  (* Unpooled hand-outs are owed back like pooled ones: the in_use gauge
     must rise and fall across the max_pooled boundary, and a bogus
     release must be rejected and counted instead of corrupting it. *)
  let r = Ntcs_obs.Registry.create () in
  let pool = Ntcs_util.Pool.create ~registry:r () in
  let at = Ntcs_util.Pool.alloc pool Ntcs_util.Pool.max_pooled in
  let over = Ntcs_util.Pool.alloc pool (Ntcs_util.Pool.max_pooled + 1) in
  Alcotest.(check int) "boundary pooled to class size" Ntcs_util.Pool.max_pooled
    (Bytes.length at);
  Alcotest.(check int) "past the boundary allocated exactly"
    (Ntcs_util.Pool.max_pooled + 1) (Bytes.length over);
  Alcotest.(check int) "both owed back" 2 (Ntcs_util.Pool.in_use pool);
  Ntcs_util.Pool.release pool at;
  Ntcs_util.Pool.release pool over;
  Alcotest.(check int) "both returned" 0 (Ntcs_util.Pool.in_use pool);
  Ntcs_util.Pool.release pool at;
  Alcotest.(check int) "double release rejected" 1
    (Ntcs_obs.Registry.get r "pool.bad_release");
  Alcotest.(check int) "gauge not driven negative" 0 (Ntcs_util.Pool.in_use pool)

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
        ] );
      ( "fuzz",
        [ prop_random_safe; prop_truncation_safe; prop_corruption_safe; prop_bad_view_bounds ] );
      ( "pool",
        [
          Alcotest.test_case "recycles buffers" `Quick test_pool_recycles;
          Alcotest.test_case "size classes" `Quick test_pool_size_classes;
          Alcotest.test_case "boundary accounting" `Quick
            test_pool_boundary_accounting;
        ] );
    ]
