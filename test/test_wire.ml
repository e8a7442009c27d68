(* Tests for the data-conversion library (§5): endian primitives, image mode
   (including cross-representation garbling), packed mode, shift mode, and
   mode selection. *)

open Ntcs_wire

let test_endian_u16_u32_u64 () =
  let check_roundtrip order v width =
    let b = Bytes.create 8 in
    (match width with
     | 16 -> Endian.set_u16 ~order b 0 v
     | 32 -> Endian.set_u32 ~order b 0 v
     | _ -> Endian.set_u64 ~order b 0 v);
    let back =
      match width with
      | 16 -> Endian.get_u16 ~order b 0
      | 32 -> Endian.get_u32 ~order b 0
      | _ -> Endian.get_u64 ~order b 0
    in
    Alcotest.(check int) (Printf.sprintf "u%d %s" width (Endian.order_to_string order)) v back
  in
  List.iter
    (fun order ->
      check_roundtrip order 0 16;
      check_roundtrip order 0xBEEF 16;
      check_roundtrip order 0xDEADBEEF 32;
      check_roundtrip order 0x1122334455667788 64)
    [ Endian.Le; Endian.Be ]

let test_endian_byte_layout () =
  (* Written at offset 1: the bytes either side stay as they were. *)
  let b = Bytes.make 6 '.' in
  Endian.set_u32 ~order:Endian.Be b 1 0x01020304;
  Alcotest.(check string) "big endian bytes" ".\x01\x02\x03\x04." (Bytes.to_string b);
  let b = Bytes.make 6 '.' in
  Endian.set_u32 ~order:Endian.Le b 1 0x01020304;
  Alcotest.(check string) "little endian bytes" ".\x04\x03\x02\x01." (Bytes.to_string b)

let test_endian_sign_extension () =
  Alcotest.(check int) "sign8" (-1) (Endian.sign8 0xFF);
  Alcotest.(check int) "sign8 positive" 127 (Endian.sign8 0x7F);
  Alcotest.(check int) "sign16" (-2) (Endian.sign16 0xFFFE);
  Alcotest.(check int) "sign32" (-1) (Endian.sign32 0xFFFFFFFF);
  Alcotest.(check int) "sign32 positive" 0x7FFFFFFF (Endian.sign32 0x7FFFFFFF)

(* --- image mode --- *)

let sample_layout =
  [ Layout.F_i32; Layout.F_i16; Layout.F_i8; Layout.F_char_array 8; Layout.F_i64 ]

let sample_values =
  [ Layout.V_int 123456; Layout.V_int (-42); Layout.V_int 7; Layout.V_str "ursa";
    Layout.V_int 987654321 ]

let test_layout_roundtrip_same_order () =
  List.iter
    (fun order ->
      let img = Layout.encode ~order sample_layout sample_values in
      Alcotest.(check int) "image size" (4 + 2 + 1 + 8 + 8) (Bytes.length img);
      let back = Layout.decode ~order sample_layout img in
      Alcotest.(check bool) "values preserved" true
        (sample_values = back))
    [ Endian.Le; Endian.Be ]

let test_layout_cross_order_garbles () =
  (* The §5 hazard made concrete: a VAX image read by a Sun is garbage. *)
  let img = Layout.encode ~order:Endian.Le [ Layout.F_i32 ] [ Layout.V_int 0x01020304 ] in
  match Layout.decode ~order:Endian.Be [ Layout.F_i32 ] img with
  | [ Layout.V_int v ] -> Alcotest.(check int) "byte-swapped" 0x04030201 v
  | _ -> Alcotest.fail "decode shape"

let test_layout_strings_safe_across_orders () =
  (* Character data has no byte-order problem — why the paper's packed mode
     can use a character transport format. *)
  let img = Layout.encode ~order:Endian.Le [ Layout.F_char_array 6 ] [ Layout.V_str "abc" ] in
  match Layout.decode ~order:Endian.Be [ Layout.F_char_array 6 ] img with
  | [ Layout.V_str s ] -> Alcotest.(check string) "chars survive" "abc" s
  | _ -> Alcotest.fail "decode shape"

let test_layout_errors () =
  Alcotest.(check bool) "too few values" true
    (match Layout.encode ~order:Endian.Le [ Layout.F_i32 ] [] with
     | exception Layout.Layout_error _ -> true
     | _ -> false);
  Alcotest.(check bool) "wrong value type" true
    (match Layout.encode ~order:Endian.Le [ Layout.F_i32 ] [ Layout.V_str "x" ] with
     | exception Layout.Layout_error _ -> true
     | _ -> false);
  Alcotest.(check bool) "oversized string" true
    (match
       Layout.encode ~order:Endian.Le [ Layout.F_char_array 2 ] [ Layout.V_str "xyz" ]
     with
     | exception Layout.Layout_error _ -> true
     | _ -> false);
  Alcotest.(check bool) "size mismatch on decode" true
    (match Layout.decode ~order:Endian.Le [ Layout.F_i32 ] (Bytes.create 3) with
     | exception Layout.Layout_error _ -> true
     | _ -> false)

(* An i64 field holds the int64 of its value: a negative int is written
   sign-extended, as a 64-bit machine would store it. *)
let test_layout_i64_negative () =
  List.iter
    (fun (v, be) ->
      List.iter
        (fun order ->
          let expect =
            match order with Endian.Be -> be | Endian.Le -> String.init 8 (fun i -> be.[7 - i])
          in
          Alcotest.(check string)
            (Printf.sprintf "%d %s" v (Endian.order_to_string order))
            expect
            (Bytes.to_string (Layout.encode ~order [ Layout.F_i64 ] [ Layout.V_int v ])))
        [ Endian.Le; Endian.Be ])
    [ (-1, "\xff\xff\xff\xff\xff\xff\xff\xff"); (min_int, "\xc0\x00\x00\x00\x00\x00\x00\x00") ];
  match Layout.decode ~order:Endian.Be [ Layout.F_i64 ] (Bytes.make 8 '\xff') with
  | [ Layout.V_int v ] -> Alcotest.(check int) "int64 -1 image" (-1) v
  | _ -> Alcotest.fail "decode shape"

(* --- packed mode --- *)

let test_packed_primitives () =
  let roundtrip codec v = Packed.run_unpack codec (Packed.run_pack codec v) in
  Alcotest.(check int) "int" (-12345) (roundtrip Packed.int (-12345));
  Alcotest.(check bool) "bool t" true (roundtrip Packed.bool true);
  Alcotest.(check bool) "bool f" false (roundtrip Packed.bool false);
  Alcotest.(check (float 0.)) "float exact" 3.14159 (roundtrip Packed.float 3.14159);
  Alcotest.(check string) "string" "hello\nworld\x00!" (roundtrip Packed.string "hello\nworld\x00!");
  Alcotest.(check (list int)) "list" [ 1; 2; 3 ] (roundtrip (Packed.list Packed.int) [ 1; 2; 3 ]);
  Alcotest.(check (pair int string)) "pair" (1, "x")
    (roundtrip (Packed.pair Packed.int Packed.string) (1, "x"));
  Alcotest.(check (option int)) "option some" (Some 9)
    (roundtrip (Packed.option Packed.int) (Some 9));
  Alcotest.(check (option int)) "option none" None (roundtrip (Packed.option Packed.int) None)

let test_packed_unpack_errors () =
  let expect_err data codec =
    match Packed.run_unpack_result codec (Bytes.of_string data) with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail "expected unpack error"
  in
  expect_err "" Packed.int;
  expect_err "notanint\n" Packed.int;
  expect_err "5\nab\n" Packed.string (* truncated raw block *);
  expect_err "X\n" Packed.bool;
  expect_err "1\n2\n" Packed.int (* trailing bytes *);
  (* A length near max_int must not overflow the bounds check. *)
  expect_err "4611686018427387903\nabc\n" Packed.string;
  expect_err "1\n4611686018427387903\nabc\n" (Packed.list Packed.string);
  (* Values image mode could not carry for the field. *)
  expect_err "5\nhello\n" (Packed.of_layout [ Layout.F_char_array 2 ]);
  expect_err "3\na\000b\n" (Packed.of_layout [ Layout.F_char_array 4 ]);
  expect_err "200\n" (Packed.of_layout [ Layout.F_i8 ])

let test_packed_of_layout_matches_image_semantics () =
  let codec = Packed.of_layout sample_layout in
  let bytes = Packed.run_pack codec sample_values in
  let back = Packed.run_unpack codec bytes in
  Alcotest.(check bool) "values preserved" true
    (sample_values = back)

let test_packed_is_order_independent () =
  (* The packed transport format contains no machine representation at all:
     the same bytes decode identically anywhere. *)
  let codec = Packed.of_layout [ Layout.F_i32 ] in
  let bytes = Packed.run_pack codec [ Layout.V_int 0x01020304 ] in
  Alcotest.(check bool) "character transport" true
    (String.length (Bytes.to_string bytes) > 4);
  match Packed.run_unpack codec bytes with
  | [ Layout.V_int v ] -> Alcotest.(check int) "exact" 0x01020304 v
  | _ -> Alcotest.fail "shape"

let test_packed_tagged () =
  let codec =
    Packed.(
      tagged
        [
          case "i" int (fun v -> `I v) (function `I v -> Some v | _ -> None);
          case "s" string (fun v -> `S v) (function `S v -> Some v | _ -> None);
          case "n" unit (fun () -> `N) (function `N -> Some () | _ -> None);
        ])
  in
  List.iter
    (fun (v, wire) ->
      Alcotest.(check string) "bytes" wire (Bytes.to_string (Packed.run_pack codec v));
      Alcotest.(check bool) "roundtrip" true (Packed.run_unpack codec (Bytes.of_string wire) = v))
    [ (`I 5, "1\ni\n5\n"); (`S "v", "1\ns\n1\nv\n"); (`N, "1\nn\n") ];
  match Packed.run_unpack_result codec (Packed.run_pack Packed.string "zz") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown tag must fail"

(* --- allocation ---

   Minor words per call after warm-up, over 1,000 calls, on the echo-3gw
   bench payload: 32 i32 fields and a 128-byte char array, a 256-byte image.
   A codec that builds per-field closures again, an image built through
   a growing buffer, or a decode that copies a char array twice, fails
   these bounds (decode: 182 words, the list and its values). *)

let bench_layout = List.init 32 (fun _ -> Layout.F_i32) @ [ Layout.F_char_array 128 ]

let bench_values =
  List.map
    (function
      | Layout.F_char_array n -> Layout.V_str (String.make (n - 1) 'x')
      | Layout.F_i8 | Layout.F_i16 | Layout.F_i32 | Layout.F_i64 -> Layout.V_int 305419896)
    bench_layout

let bench_image = Layout.encode ~order:Endian.Be bench_layout bench_values

let words_per_call f =
  for _ = 1 to 100 do
    f ()
  done;
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do
    f ()
  done;
  (Gc.minor_words () -. before) /. 1000.

let test_conversion_allocation () =
  List.iter
    (fun (name, bound, f) ->
      let words = words_per_call f in
      Alcotest.(check bool) (Printf.sprintf "%s: %.1f words <= %.0f" name words bound) true
        (words <= bound))
    [
      ( "Packed.of_layout", 32.,
        fun () -> ignore (Sys.opaque_identity (Packed.of_layout bench_layout)) );
      ( "run_pack (of_layout l) v", 260.,
        fun () ->
          ignore (Sys.opaque_identity (Packed.run_pack (Packed.of_layout bench_layout) bench_values))
      );
      ( "Layout.encode", 60.,
        fun () ->
          ignore (Sys.opaque_identity (Layout.encode ~order:Endian.Be bench_layout bench_values)) );
      ( "Layout.decode", 195.,
        fun () ->
          ignore (Sys.opaque_identity (Layout.decode ~order:Endian.Be bench_layout bench_image)) );
    ]

(* --- shift mode --- *)

(* Shift mode is exercised through the Nucleus header, whose codec reads
   and writes its words with shifts straight on the buffer (§5.2). *)

let header_with ?mode ?src_order ?(hops = 0) ?(seq = 0) ?(conv = 0) ?(app_tag = 0) ?(ivc = 0)
    () =
  Ntcs.Proto.make_header ~kind:Ntcs.Proto.Data
    ~src:(Ntcs.Addr.unique ~server_id:1 ~value:2)
    ~dst:(Ntcs.Addr.temporary ~assigner:3 ~value:4)
    ?mode ?src_order ~hops ~seq ~conv ~app_tag ~ivc ~payload_len:0 ()

let test_shift_words () =
  (* Boundary words survive every 32-bit header field. *)
  let words = [ 0; 1; 0xFFFFFFFF; 0x80000000; 0x12345678 ] in
  List.iter
    (fun w ->
      let h = header_with ~seq:w ~conv:w ~app_tag:w ~ivc:w () in
      let b = Ntcs.Proto.encode_header h in
      Alcotest.(check int) "13 words of 4 bytes" (4 * 13) (Bytes.length b);
      Alcotest.(check bool) (Printf.sprintf "0x%x roundtrips" w) true
        (Helpers.decode_header b = h);
      Alcotest.(check int) "get_word reads it back" w (Shift.get_word b 24))
    words

let test_shift_is_order_free () =
  (* Shift mode always produces the same byte sequence — no host order
     involved, by construction. *)
  let b = Ntcs.Proto.encode_header (header_with ~seq:0x01020304 ()) in
  Alcotest.(check string) "canonical bytes" "\x01\x02\x03\x04" (Bytes.sub_string b 24 4);
  let buf = Bytes.create 4 in
  Shift.poke_word buf 0 0x01020304;
  Alcotest.(check string) "poke_word agrees" "\x01\x02\x03\x04" (Bytes.to_string buf)

let test_shift_errors () =
  let shift_error f = match f () with exception Shift.Shift_error _ -> true | _ -> false in
  Alcotest.(check bool) "word too large" true
    (shift_error (fun () -> Ntcs.Proto.encode_header (header_with ~seq:(1 lsl 32) ())));
  Alcotest.(check bool) "negative word" true
    (shift_error (fun () -> Ntcs.Proto.encode_header (header_with ~conv:(-1) ())));
  Alcotest.(check bool) "truncated read" true
    (shift_error (fun () -> Shift.get_word (Bytes.create 3) 0));
  Alcotest.(check bool) "negative read offset" true
    (shift_error (fun () -> Shift.get_word (Bytes.create 8) (-1)));
  Alcotest.(check bool) "negative write offset" true
    (shift_error (fun () -> Shift.poke_word (Bytes.create 8) (-1) 0));
  Alcotest.(check bool) "short header" true
    (match Helpers.decode_header (Bytes.create 3) with
     | exception Ntcs.Proto.Bad_header _ -> true
     | _ -> false)

let test_bitfields () =
  (* Word 5 divides into mode(4) | order(4) | hops(8) | flags(16). *)
  let h = header_with ~mode:Convert.Packed ~src_order:Endian.Be ~hops:0xAB () in
  let b = Ntcs.Proto.encode_header h in
  Alcotest.(check string) "word 5 fields" "\x11\xab\x00\x00" (Bytes.sub_string b 20 4);
  let v = Ntcs.Proto.Frame.of_bytes b in
  Ntcs.Proto.Frame.patch_hops v 0x3C;
  Alcotest.(check string) "patch_hops keeps the other fields" "\x11\x3c\x00\x00"
    (Bytes.sub_string b 20 4);
  Alcotest.(check bool) "hops must fit 8 bits" true
    (match Ntcs.Proto.encode_header (header_with ~hops:256 ()) with
     | exception Ntcs.Proto.Bad_header _ -> true
     | _ -> false);
  let bad_mode = Bytes.copy b in
  Bytes.set bad_mode 20 '\x21';
  Alcotest.(check bool) "unknown mode rejected" true
    (match Helpers.decode_header bad_mode with
     | exception Ntcs.Proto.Bad_header _ -> true
     | _ -> false)

(* --- mode selection --- *)

let test_mode_selection () =
  let vax = Endian.Le and sun = Endian.Be and apollo = Endian.Be in
  Alcotest.(check string) "same machine" "image"
    (Convert.mode_to_string (Convert.choose ~src:vax ~dst:vax));
  Alcotest.(check string) "compatible repr" "image"
    (Convert.mode_to_string (Convert.choose ~src:sun ~dst:apollo));
  Alcotest.(check string) "incompatible repr" "packed"
    (Convert.mode_to_string (Convert.choose ~src:vax ~dst:sun))

let test_payload_forcing () =
  let image_calls = ref 0 and packed_calls = ref 0 in
  let p =
    Convert.payload
      ~image:(fun () -> incr image_calls; Bytes.of_string "IMG")
      ~packed:(fun () -> incr packed_calls; Bytes.of_string "PKD")
  in
  Alcotest.(check string) "image forced" "IMG" (Bytes.to_string (Convert.force Convert.Image p));
  Alcotest.(check (pair int int)) "exactly one conversion" (1, 0) (!image_calls, !packed_calls);
  Alcotest.(check string) "packed forced" "PKD"
    (Bytes.to_string (Convert.force Convert.Packed p));
  Alcotest.(check (pair int int)) "no needless conversions" (1, 1)
    (!image_calls, !packed_calls)

(* --- shift-mode headers across every machine-type pair --- *)

let test_header_roundtrip_all_machine_pairs () =
  (* The NTCS header travels in shift mode, so it must survive any
     (sender, receiver) combination of machine types — including the mode
     byte that the pair itself determines — for every message kind. *)
  let mtypes = [ Ntcs_sim.Machine.Vax; Ntcs_sim.Machine.Sun3; Ntcs_sim.Machine.Apollo ] in
  let name = function
    | Ntcs_sim.Machine.Vax -> "vax"
    | Ntcs_sim.Machine.Sun3 -> "sun3"
    | Ntcs_sim.Machine.Apollo -> "apollo"
  in
  let order_of m =
    match Ntcs_sim.Machine.byte_order m with
    | Ntcs_sim.Machine.Little_endian -> Endian.Le
    | Ntcs_sim.Machine.Big_endian -> Endian.Be
  in
  let kinds =
    [
      Ntcs.Proto.Data; Ntcs.Proto.Dgram; Ntcs.Proto.Reply; Ntcs.Proto.Hello;
      Ntcs.Proto.Hello_ack; Ntcs.Proto.Ivc_open; Ntcs.Proto.Ivc_accept;
      Ntcs.Proto.Ivc_reject; Ntcs.Proto.Ivc_close; Ntcs.Proto.Ping; Ntcs.Proto.Pong;
    ]
  in
  List.iter
    (fun sender ->
      List.iter
        (fun receiver ->
          let pair =
            name sender ^ "->" ^ name receiver
          in
          List.iter
            (fun kind ->
              let h =
                Ntcs.Proto.make_header ~kind
                  ~src:(Ntcs.Addr.unique ~server_id:7 ~value:0xABCD)
                  ~dst:(Ntcs.Addr.temporary ~assigner:3 ~value:99)
                  ~mode:(Convert.choose ~src:(order_of sender) ~dst:(order_of receiver))
                  ~src_order:(order_of sender) ~hops:2 ~seq:0x7FFF ~conv:41 ~app_tag:5
                  ~ivc:123 ~payload_len:17 ()
              in
              let b = Ntcs.Proto.encode_header h in
              Alcotest.(check int)
                (pair ^ " header size")
                Ntcs.Proto.header_bytes (Bytes.length b);
              let h' = Helpers.decode_header (Ntcs.Proto.encode_frame h (Bytes.make 17 'p')) in
              Alcotest.(check bool)
                (pair ^ " " ^ Ntcs.Proto.kind_to_string kind ^ " roundtrip")
                true (h' = h))
            kinds)
        mtypes)
    mtypes

(* --- pinned header bytes ---

   The exact shift-mode bytes of sixteen headers: bit 0 of [i] picks the
   address spaces (Unique src and Temporary dst, or the reverse), bit 1 the
   hop count (0 or 255), bit 2 the source byte order and bit 3 the payload
   mode; the kinds cycle through all eleven. Any codec rewrite must leave
   these bytes unchanged. *)

let pinned_header i =
  let kinds =
    Ntcs.Proto.
      [| Data; Dgram; Reply; Hello; Hello_ack; Ivc_open; Ivc_accept; Ivc_reject; Ivc_close;
         Ping; Pong |]
  in
  let unique v = Ntcs.Addr.unique ~server_id:(0x3FFFFFFF - i) ~value:v in
  let temporary v = Ntcs.Addr.temporary ~assigner:(i + 1) ~value:v in
  let src, dst =
    if i land 1 = 0 then (unique (0xFFFFFFFF - i), temporary i)
    else (temporary (0xFFFFFFFF - i), unique i)
  in
  Ntcs.Proto.make_header ~kind:kinds.(i mod Array.length kinds) ~src ~dst
    ~mode:(if i land 8 = 0 then Convert.Image else Convert.Packed)
    ~src_order:(if i land 4 = 0 then Endian.Le else Endian.Be)
    ~hops:(if i land 2 = 0 then 0 else 255)
    ~seq:(i * 0x01010101) ~conv:(0xFFFFFFFF - i) ~app_tag:(i * 1000) ~ivc:(i lsl 28)
    ~span:(Ntcs_obs.Span.make ~circuit:(0x80000000 + i) ~seq:(i * 7))
    ~payload_len:(i * 65537) ()

let pinned_header_hex =
  [
    "4e5401003fffffffffffffff80000001000000000000000000000000ffffffff0000000000000000000000008000000000000000";
    "4e54010180000002fffffffe3ffffffe000000010000000001010101fffffffe000003e810000000000100018000000100000007";
    "4e5401023ffffffdfffffffd800000030000000200ff000002020202fffffffd000007d02000000000020002800000020000000e";
    "4e54010380000004fffffffc3ffffffc0000000300ff000003030303fffffffc00000bb830000000000300038000000300000015";
    "4e5401043ffffffbfffffffb80000005000000040100000004040404fffffffb00000fa04000000000040004800000040000001c";
    "4e54010580000006fffffffa3ffffffa000000050100000005050505fffffffa0000138850000000000500058000000500000023";
    "4e5401063ffffff9fffffff9800000070000000601ff000006060606fffffff9000017706000000000060006800000060000002a";
    "4e54010780000008fffffff83ffffff80000000701ff000007070707fffffff800001b5870000000000700078000000700000031";
    "4e5401083ffffff7fffffff780000009000000081000000008080808fffffff700001f4080000000000800088000000800000038";
    "4e5401098000000afffffff63ffffff6000000091000000009090909fffffff6000023289000000000090009800000090000003f";
    "4e54010a3ffffff5fffffff58000000b0000000a10ff00000a0a0a0afffffff500002710a0000000000a000a8000000a00000046";
    "4e5401008000000cfffffff43ffffff40000000b10ff00000b0b0b0bfffffff400002af8b0000000000b000b8000000b0000004d";
    "4e5401013ffffff3fffffff38000000d0000000c110000000c0c0c0cfffffff300002ee0c0000000000c000c8000000c00000054";
    "4e5401028000000efffffff23ffffff20000000d110000000d0d0d0dfffffff2000032c8d0000000000d000d8000000d0000005b";
    "4e5401033ffffff1fffffff18000000f0000000e11ff00000e0e0e0efffffff1000036b0e0000000000e000e8000000e00000062";
    "4e54010480000010fffffff03ffffff00000000f11ff00000f0f0f0ffffffff000003a98f0000000000f000f8000000f00000069";
  ]

let hex b =
  let out = Buffer.create (2 * Bytes.length b) in
  Bytes.iter (fun c -> Buffer.add_string out (Printf.sprintf "%02x" (Char.code c))) b;
  Buffer.contents out

let test_pinned_header_bytes () =
  let headers = List.init 16 pinned_header in
  Alcotest.(check (list string)) "encoded bytes" pinned_header_hex
    (List.map (fun h -> hex (Ntcs.Proto.encode_header h)) headers);
  List.iter
    (fun h ->
      let buf = Bytes.make (Ntcs.Proto.header_bytes + 3) '\xAA' in
      let v = Ntcs.Proto.Frame.encode_into h ~payload:Bytes.empty buf ~off:3 in
      Alcotest.(check string) "encode_into writes the same bytes"
        (hex (Ntcs.Proto.encode_header { h with Ntcs.Proto.payload_len = 0 }))
        (hex (Bytes.sub buf 3 Ntcs.Proto.header_bytes));
      Alcotest.(check bool) "decodes back" true
        (Helpers.decode_header
           (Bytes.extend (Ntcs.Proto.encode_header h) 0 h.Ntcs.Proto.payload_len)
         = h
        && Ntcs.Proto.Frame.header v = { h with Ntcs.Proto.payload_len = 0 }))
    headers

let () =
  Alcotest.run "ntcs_wire"
    [
      ( "endian",
        [
          Alcotest.test_case "roundtrips" `Quick test_endian_u16_u32_u64;
          Alcotest.test_case "byte layout" `Quick test_endian_byte_layout;
          Alcotest.test_case "sign extension" `Quick test_endian_sign_extension;
        ] );
      ( "image",
        [
          Alcotest.test_case "roundtrip same order" `Quick test_layout_roundtrip_same_order;
          Alcotest.test_case "cross order garbles" `Quick test_layout_cross_order_garbles;
          Alcotest.test_case "strings safe" `Quick test_layout_strings_safe_across_orders;
          Alcotest.test_case "errors" `Quick test_layout_errors;
          Alcotest.test_case "negative i64" `Quick test_layout_i64_negative;
        ] );
      ( "packed",
        [
          Alcotest.test_case "primitives" `Quick test_packed_primitives;
          Alcotest.test_case "unpack errors" `Quick test_packed_unpack_errors;
          Alcotest.test_case "generated from layout" `Quick
            test_packed_of_layout_matches_image_semantics;
          Alcotest.test_case "order independent" `Quick test_packed_is_order_independent;
          Alcotest.test_case "tagged unions" `Quick test_packed_tagged;
          Alcotest.test_case "allocation" `Quick test_conversion_allocation;
        ] );
      ( "shift",
        [
          Alcotest.test_case "words" `Quick test_shift_words;
          Alcotest.test_case "order free" `Quick test_shift_is_order_free;
          Alcotest.test_case "errors" `Quick test_shift_errors;
          Alcotest.test_case "bitfields" `Quick test_bitfields;
          Alcotest.test_case "headers across all machine pairs" `Quick
            test_header_roundtrip_all_machine_pairs;
          Alcotest.test_case "pinned header bytes" `Quick test_pinned_header_bytes;
        ] );
      ( "convert",
        [
          Alcotest.test_case "mode selection" `Quick test_mode_selection;
          Alcotest.test_case "payload forcing" `Quick test_payload_forcing;
        ] );
    ]
