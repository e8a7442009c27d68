(* Tests for the data-conversion library (§5): endian primitives, image mode
   (including cross-representation garbling), packed mode, shift mode, and
   mode selection. *)

open Ntcs_wire

let test_endian_u16_u32_u64 () =
  let check_roundtrip order v width =
    let buf = Buffer.create 8 in
    (match width with
     | 16 -> Endian.put_u16 ~order buf v
     | 32 -> Endian.put_u32 ~order buf v
     | _ -> Endian.put_u64 ~order buf v);
    let b = Buffer.to_bytes buf in
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
  let buf = Buffer.create 4 in
  Endian.put_u32 ~order:Endian.Be buf 0x01020304;
  Alcotest.(check string) "big endian bytes" "\x01\x02\x03\x04" (Buffer.contents buf);
  let buf = Buffer.create 4 in
  Endian.put_u32 ~order:Endian.Le buf 0x01020304;
  Alcotest.(check string) "little endian bytes" "\x04\x03\x02\x01" (Buffer.contents buf)

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
      Alcotest.(check int) "image size" (Layout.size sample_layout) (Bytes.length img);
      let back = Layout.decode ~order sample_layout img in
      Alcotest.(check bool) "values preserved" true
        (List.for_all2 Layout.value_equal sample_values back))
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
  expect_err "1\n4611686018427387903\nabc\n" (Packed.list Packed.string)

let test_packed_of_layout_matches_image_semantics () =
  let codec = Packed.of_layout sample_layout in
  let bytes = Packed.run_pack codec sample_values in
  let back = Packed.run_unpack codec bytes in
  Alcotest.(check bool) "values preserved" true
    (List.for_all2 Layout.value_equal sample_values back)

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

(* --- shift mode --- *)

let test_shift_words () =
  let words = [| 0; 1; 0xFFFFFFFF; 0x80000000; 0x12345678 |] in
  let b = Shift.encode_words words in
  Alcotest.(check int) "4 bytes per word" (4 * Array.length words) (Bytes.length b);
  let back = Shift.decode_words b ~off:0 ~count:(Array.length words) in
  Alcotest.(check (array int)) "roundtrip" words back

let test_shift_is_order_free () =
  (* Shift mode always produces the same byte sequence — no host order
     involved, by construction. *)
  let b = Shift.encode_words [| 0x01020304 |] in
  Alcotest.(check string) "canonical bytes" "\x01\x02\x03\x04" (Bytes.to_string b)

let test_shift_errors () =
  Alcotest.(check bool) "word too large" true
    (match Shift.encode_words [| 1 lsl 32 |] with
     | exception Shift.Shift_error _ -> true
     | _ -> false);
  Alcotest.(check bool) "negative word" true
    (match Shift.encode_words [| -1 |] with exception Shift.Shift_error _ -> true | _ -> false);
  Alcotest.(check bool) "truncated read" true
    (match Shift.decode_words (Bytes.create 3) ~off:0 ~count:1 with
     | exception Shift.Shift_error _ -> true
     | _ -> false)

let test_bitfields () =
  let word = Shift.pack_bits [ (0xAB, 8); (0x3, 4); (0x7FF, 12); (0xFF, 8) ] in
  Alcotest.(check (list int)) "unpack" [ 0xAB; 0x3; 0x7FF; 0xFF ]
    (Shift.unpack_bits word [ 8; 4; 12; 8 ]);
  Alcotest.(check bool) "sum must be 32" true
    (match Shift.pack_bits [ (1, 8) ] with exception Shift.Shift_error _ -> true | _ -> false);
  Alcotest.(check bool) "value must fit" true
    (match Shift.pack_bits [ (256, 8); (0, 24) ] with
     | exception Shift.Shift_error _ -> true
     | _ -> false)

(* --- mode selection --- *)

let test_mode_selection () =
  let vax = { Convert.repr_name = "vax"; order = Endian.Le } in
  let sun = { Convert.repr_name = "sun"; order = Endian.Be } in
  let apollo = { Convert.repr_name = "apollo"; order = Endian.Be } in
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
  let order_of m =
    match Ntcs_sim.Machine.byte_order m with
    | Ntcs_sim.Machine.Little_endian -> Endian.Le
    | Ntcs_sim.Machine.Big_endian -> Endian.Be
  in
  let repr_of m =
    { Convert.repr_name = Ntcs_sim.Machine.mtype_to_string m; order = order_of m }
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
            Ntcs_sim.Machine.mtype_to_string sender ^ "->"
            ^ Ntcs_sim.Machine.mtype_to_string receiver
          in
          List.iter
            (fun kind ->
              let h =
                Ntcs.Proto.make_header ~kind
                  ~src:(Ntcs.Addr.unique ~server_id:7 ~value:0xABCD)
                  ~dst:(Ntcs.Addr.temporary ~assigner:3 ~value:99)
                  ~mode:(Convert.choose ~src:(repr_of sender) ~dst:(repr_of receiver))
                  ~src_order:(order_of sender) ~hops:2 ~seq:0x7FFF ~conv:41 ~app_tag:5
                  ~ivc:123 ~payload_len:17 ()
              in
              let b = Ntcs.Proto.encode_header h in
              Alcotest.(check int)
                (pair ^ " header size")
                Ntcs.Proto.header_bytes (Bytes.length b);
              let h' = Ntcs.Proto.decode_header b in
              Alcotest.(check bool)
                (pair ^ " " ^ Ntcs.Proto.kind_to_string kind ^ " roundtrip")
                true (h' = h))
            kinds)
        mtypes)
    mtypes

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
        ] );
      ( "packed",
        [
          Alcotest.test_case "primitives" `Quick test_packed_primitives;
          Alcotest.test_case "unpack errors" `Quick test_packed_unpack_errors;
          Alcotest.test_case "generated from layout" `Quick
            test_packed_of_layout_matches_image_semantics;
          Alcotest.test_case "order independent" `Quick test_packed_is_order_independent;
          Alcotest.test_case "tagged unions" `Quick test_packed_tagged;
        ] );
      ( "shift",
        [
          Alcotest.test_case "words" `Quick test_shift_words;
          Alcotest.test_case "order free" `Quick test_shift_is_order_free;
          Alcotest.test_case "errors" `Quick test_shift_errors;
          Alcotest.test_case "bitfields" `Quick test_bitfields;
          Alcotest.test_case "headers across all machine pairs" `Quick
            test_header_roundtrip_all_machine_pairs;
        ] );
      ( "convert",
        [
          Alcotest.test_case "mode selection" `Quick test_mode_selection;
          Alcotest.test_case "payload forcing" `Quick test_payload_forcing;
        ] );
    ]
