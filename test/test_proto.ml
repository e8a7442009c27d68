(* Tests for NTCS addressing (UAdds/TAdds) and the nucleus wire protocol. *)

open Ntcs
open Ntcs_wire

let addr = Alcotest.testable (Fmt.of_to_string Addr.to_string) Addr.equal

let test_addr_words_roundtrip () =
  let cases =
    [
      Addr.unique ~server_id:0 ~value:0;
      Addr.unique ~server_id:3 ~value:12345;
      Addr.unique ~server_id:0x3FFFFFFF ~value:0xFFFFFFFF;
      Addr.temporary ~assigner:1 ~value:1;
      Addr.temporary ~assigner:0x3FFFFFFF ~value:77;
    ]
  in
  List.iter
    (fun a ->
      Alcotest.check addr "roundtrip" a (Addr.of_words (Addr.space_word a) (Addr.value_word a)))
    cases

let test_addr_kinds () =
  Alcotest.(check bool) "unique" true (Addr.is_unique (Addr.unique ~server_id:1 ~value:2));
  Alcotest.(check bool) "temp" true (Addr.is_temporary (Addr.temporary ~assigner:1 ~value:2));
  Alcotest.(check string) "unique str" "U1.2" (Addr.to_string (Addr.unique ~server_id:1 ~value:2));
  Alcotest.(check string) "temp str" "T1.2"
    (Addr.to_string (Addr.temporary ~assigner:1 ~value:2));
  Alcotest.check_raises "server id range" (Invalid_argument "Addr.unique: bad server id")
    (fun () -> ignore (Addr.unique ~server_id:(-1) ~value:0))

let test_tadd_gen_unique () =
  let g = Addr.Tadd_gen.create ~assigner:9 in
  let seen = Hashtbl.create 16 in
  for _ = 1 to 100 do
    let a = Addr.Tadd_gen.fresh g in
    Alcotest.(check bool) "temporary" true (Addr.is_temporary a);
    Alcotest.(check bool) "locally unique" false (Hashtbl.mem seen a);
    Hashtbl.replace seen a ()
  done

let test_header_roundtrip () =
  let h =
    Proto.make_header ~kind:Proto.Data
      ~src:(Addr.unique ~server_id:1 ~value:10)
      ~dst:(Addr.temporary ~assigner:44 ~value:3)
      ~mode:Convert.Image ~src_order:Endian.Le ~hops:3 ~seq:99 ~conv:7 ~app_tag:1234 ~ivc:55
      ~payload_len:0 ()
  in
  let payload = Bytes.of_string "abcdef" in
  let frame = Proto.encode_frame h payload in
  let h', payload' = Helpers.decode_frame frame in
  Alcotest.(check string) "payload" "abcdef" (Bytes.to_string payload');
  Alcotest.check addr "src" h.Proto.src h'.Proto.src;
  Alcotest.check addr "dst" h.Proto.dst h'.Proto.dst;
  Alcotest.(check bool) "kind" true (h'.Proto.kind = Proto.Data);
  Alcotest.(check bool) "mode" true (h'.Proto.mode = Convert.Image);
  Alcotest.(check bool) "order" true (h'.Proto.src_order = Endian.Le);
  Alcotest.(check int) "hops" 3 h'.Proto.hops;
  Alcotest.(check int) "seq" 99 h'.Proto.seq;
  Alcotest.(check int) "conv" 7 h'.Proto.conv;
  Alcotest.(check int) "app_tag" 1234 h'.Proto.app_tag;
  Alcotest.(check int) "ivc" 55 h'.Proto.ivc;
  Alcotest.(check int) "payload_len" 6 h'.Proto.payload_len

let test_all_kinds_roundtrip () =
  List.iter
    (fun kind ->
      let h =
        Proto.make_header ~kind
          ~src:(Addr.unique ~server_id:0 ~value:1)
          ~dst:(Addr.unique ~server_id:0 ~value:2)
          ~payload_len:0 ()
      in
      let h', _ = Helpers.decode_frame (Proto.encode_frame h Bytes.empty) in
      Alcotest.(check string) "kind" (Proto.kind_to_string kind)
        (Proto.kind_to_string h'.Proto.kind))
    [ Proto.Data; Proto.Dgram; Proto.Reply; Proto.Hello; Proto.Hello_ack; Proto.Ivc_open;
      Proto.Ivc_accept; Proto.Ivc_reject; Proto.Ivc_close; Proto.Ping; Proto.Pong ]

let test_header_rejects_garbage () =
  Alcotest.(check bool) "short" true
    (match Helpers.decode_header (Bytes.create 4) with
     | exception Proto.Bad_header _ -> true
     | _ -> false);
  let h =
    Proto.make_header ~kind:Proto.Data
      ~src:(Addr.unique ~server_id:0 ~value:1)
      ~dst:(Addr.unique ~server_id:0 ~value:2)
      ~payload_len:0 ()
  in
  let frame = Proto.encode_frame h (Bytes.of_string "xy") in
  (* Corrupt the magic. *)
  Bytes.set frame 0 '\xFF';
  Alcotest.(check bool) "bad magic" true
    (match Helpers.decode_frame frame with exception Proto.Bad_header _ -> true | _ -> false);
  (* Each header check names what it rejected. *)
  let corrupt pos byte =
    let b = Proto.encode_header h in
    Bytes.set b pos byte;
    b
  in
  List.iter
    (fun (msg, b) ->
      Alcotest.check_raises msg (Proto.Bad_header msg) (fun () -> ignore (Helpers.decode_header b)))
    [
      ("bad magic", corrupt 1 '\x00');
      ("unsupported version 2", corrupt 2 '\x02');
      ("unknown message kind 200", corrupt 3 '\xC8');
      ("unknown byte order tag 5", corrupt 20 '\x05');
      ("unknown conversion mode 3", corrupt 20 '\x30');
      ("unknown byte order tag 2", corrupt 20 '\x32');
    ];
  (* Length mismatch. *)
  let frame = Proto.encode_frame h (Bytes.of_string "xy") in
  Alcotest.(check bool) "length mismatch" true
    (match Helpers.decode_frame (Bytes.sub frame 0 (Bytes.length frame - 1)) with
     | exception Proto.Bad_header _ -> true
     | _ -> false)

let hello =
  {
    Proto.h_addr = Addr.temporary ~assigner:12 ~value:1;
    h_order = Endian.Be;
    h_listen = [ "tcp://vax1:4000"; "mbx://x/y" ];
  }

let test_hello_codec () =
  let b = Packed.run_pack Proto.hello_codec hello in
  let back = Packed.run_unpack Proto.hello_codec b in
  Alcotest.check addr "addr" hello.Proto.h_addr back.Proto.h_addr;
  Alcotest.(check bool) "order" true (back.Proto.h_order = Endian.Be);
  Alcotest.(check (list string)) "listen" hello.Proto.h_listen back.Proto.h_listen;
  (* A peer's unknown byte-order tag is malformed data: [Error], alone or
     carried inside an IVC_OPEN, never an exception. *)
  let refused codec wire = Result.is_error (Packed.run_unpack_result codec (Bytes.of_string wire)) in
  let bad_hello = "0\n0\n2\n0\n" in
  Alcotest.(check bool) "unknown order tag" true (refused Proto.hello_codec bad_hello);
  Alcotest.(check bool) "inside ivc open" true
    (refused Proto.ivc_open_codec ("0\n0\n9\n" ^ bad_hello))

let ivc_open =
  {
    Proto.route = [ Addr.unique ~server_id:900 ~value:2; Addr.unique ~server_id:901 ~value:3 ];
    final_dst = Addr.unique ~server_id:0 ~value:9;
    origin_hello =
      { Proto.h_addr = Addr.unique ~server_id:0 ~value:4; h_order = Endian.Le; h_listen = [] };
  }

let test_ivc_open_codec () =
  let back =
    Packed.run_unpack Proto.ivc_open_codec (Packed.run_pack Proto.ivc_open_codec ivc_open)
  in
  Alcotest.(check int) "route length" 2 (List.length back.Proto.route);
  Alcotest.check addr "final" ivc_open.Proto.final_dst back.Proto.final_dst;
  Alcotest.check addr "origin" ivc_open.Proto.origin_hello.Proto.h_addr
    back.Proto.origin_hello.Proto.h_addr

(* Every naming-protocol constructor, each with its exact packed bytes. The
   literals pin the wire format: a codec rewrite must reproduce them. *)
let ns_entry =
  {
    Ns_proto.e_name = "m";
    e_addr = Addr.unique ~server_id:1 ~value:9;
    e_phys = [ "tcp://h:1" ];
    e_nets = [ 3 ];
    e_order = 0;
    e_attrs = [ ("k", "v") ];
    e_alive = true;
  }

let entry_bytes = "1\nm\n1\n9\n1\n9\ntcp://h:1\n1\n3\n0\n1\n1\nk\n1\nv\nT\n"

let ns_requests =
  let a5 = Addr.unique ~server_id:0 ~value:5 in
  [
    ( Ns_proto.Register
        { r_name = "m"; r_phys = [ "tcp://h:1" ]; r_nets = [ 1; 2 ]; r_order = 1;
          r_attrs = [ ("service", "x") ] },
      "3\nreg\n1\nm\n1\n9\ntcp://h:1\n2\n1\n2\n1\n1\n7\nservice\n1\nx\n" );
    (Ns_proto.Lookup_v ("m", 1), "3\nlkv\n1\nm\n1\n");
    (Ns_proto.Lookup_attrs [ ("a", "b") ], "3\nlka\n1\n1\na\n1\nb\n");
    (Ns_proto.Resolve_v a5, "3\nrsv\n0\n5\n");
    (Ns_proto.Forward a5, "3\nfwd\n0\n5\n");
    (Ns_proto.Deregister a5, "3\nder\n0\n5\n");
    (Ns_proto.List_gateways, "3\ngws\n");
    (Ns_proto.Sync_push [ (12, ns_entry) ], "3\nsyp\n1\n12\n" ^ entry_bytes);
  ]

let ns_responses =
  let a = ns_entry.Ns_proto.e_addr in
  [
    (Ns_proto.R_registered a, "3\nrgd\n1\n9\n");
    (Ns_proto.R_addr_v (a, 2, 7, [ "m"; "n" ]), "3\nadv\n1\n9\n2\n7\n2\n1\nm\n1\nn\n");
    (Ns_proto.R_addr_v (a, 2, 0, []), "3\nadv\n1\n9\n2\n0\n");
    (Ns_proto.R_entry_v (ns_entry, 2, 7, [ "m" ]), "3\nenv\n" ^ entry_bytes ^ "2\n7\n1\n1\nm\n");
    (Ns_proto.R_entries [ ns_entry; ns_entry ], "3\nens\n2\n" ^ entry_bytes ^ entry_bytes);
    (Ns_proto.R_forward (Some a), "3\nfwr\nT\n1\n9\n");
    (Ns_proto.R_forward None, "3\nfwr\nF\n");
    (Ns_proto.R_ok, "3\nok_\n");
    (Ns_proto.R_error "unknown-name", "3\nerr\n12\nunknown-name\n");
  ]

let check_pinned what pack unpack cases =
  List.iter
    (fun (v, wire) ->
      Alcotest.(check string) (what ^ " bytes") wire (Bytes.to_string (pack v));
      match unpack (Bytes.of_string wire) with
      | Ok v' -> Alcotest.(check bool) (what ^ " roundtrip") true (v = v')
      | Error m -> Alcotest.fail m)
    cases

let test_ns_proto_roundtrips () =
  check_pinned "request" Ns_proto.pack_request Ns_proto.unpack_request ns_requests;
  check_pinned "response" Ns_proto.pack_response Ns_proto.unpack_response ns_responses

(* The retired replication pull decodes like any unknown tag. *)
let test_ns_proto_retired_sync () =
  Alcotest.(check bool) "syn is unknown" true
    (Result.is_error (Ns_proto.unpack_request (Bytes.of_string "3\nsyn\n17\n")));
  Alcotest.(check bool) "snc is unknown" true
    (Result.is_error (Ns_proto.unpack_response (Bytes.of_string "3\nsnc\n0\n")))

(* A versioned answer's change list: a count that is negative, not a
   number, larger than what follows, or above K decodes to Error. *)
let test_ns_proto_change_list_bounds () =
  let adv tail = Bytes.of_string ("3\nadv\n1\n9\n2\n7\n" ^ tail) in
  let refused what tail =
    Alcotest.(check bool) what true (Result.is_error (Ns_proto.unpack_response (adv tail)))
  in
  refused "negative count" "-1\n";
  refused "non-numeric count" "x\n";
  refused "missing count" "";
  refused "count above the names sent" "2\n1\nm\n";
  refused "huge count" (string_of_int max_int ^ "\n1\nm\n");
  let k = Ns_proto.change_log_length in
  let names n = string_of_int n ^ "\n" ^ String.concat "" (List.init n (fun _ -> "1\nm\n")) in
  Alcotest.(check bool) "K names decode" true
    (Result.is_ok (Ns_proto.unpack_response (adv (names k))));
  refused "K + 1 names" (names (k + 1));
  let a = Addr.unique ~server_id:1 ~value:9 in
  Alcotest.(check bool) "an over-long entry answer is refused too" true
    (Result.is_error
       (Ns_proto.unpack_response
          (Ns_proto.pack_response
             (Ns_proto.R_entry_v (ns_entry, 2, 9, List.init (k + 1) (fun _ -> "m"))))));
  Alcotest.(check bool) "as is an over-long address answer" true
    (Result.is_error
       (Ns_proto.unpack_response
          (Ns_proto.pack_response (Ns_proto.R_addr_v (a, 2, 9, List.init (k + 1) (fun _ -> "m"))))))

(* Hostile bytes: truncated, bit-flipped and length-inflated encodings of
   valid messages must decode to [Ok] or [Error], never raise. A name
   server's receive loop, the ND readers that carry frames up through IP
   and every service loop have no exception arm to fall back on. *)
let decimal_tokens wire =
  let n = String.length wire in
  let rec scan i acc =
    if i >= n then List.rev acc
    else
      let j = ref i in
      while !j < n && wire.[!j] >= '0' && wire.[!j] <= '9' do incr j done;
      if !j > i && !j < n && wire.[!j] = '\n' && (i = 0 || wire.[i - 1] = '\n') then
        scan (!j + 1) ((i, !j - i) :: acc)
      else scan (max (i + 1) !j) acc
  in
  scan 0 []

let mutate wire (kind, at, bit) =
  let n = String.length wire in
  match kind with
  | 0 -> String.sub wire 0 (at mod (n + 1))
  | 1 ->
    let b = Bytes.of_string wire in
    let i = at mod n in
    Bytes.set b i (Char.chr (Char.code wire.[i] lxor (1 lsl bit)));
    Bytes.to_string b
  | _ -> (
    match decimal_tokens wire with
    | [] -> wire
    | toks ->
      let off, len = List.nth toks (at mod List.length toks) in
      let huge = [| max_int; max_int - 1; max_int / 2; 1 lsl 40 |].(bit mod 4) in
      String.sub wire 0 off ^ string_of_int huge ^ String.sub wire (off + len) (n - off - len))

(* Each decoder with the pinned encodings of some of its messages. *)
let hostile_families =
  let packed codec samples =
    ( (fun w -> match Packed.run_unpack_result codec w with Ok _ | Error _ -> ()),
      List.map (Packed.run_pack codec) samples )
  in
  let module D = Ntcs_drts.Drts_proto in
  let module U = Ursa.Ursa_msg in
  let monitor = { D.mr_module = "m"; mr_kind = "send"; mr_detail = "d"; mr_time = 3 } in
  let log = { D.lr_module = "m"; lr_severity = D.Warning; lr_message = "x"; lr_time = 4 } in
  let layout = Layout.[ F_i8; F_i32; F_char_array 8; F_i64 ] in
  [
    ( (fun w ->
        (match Ns_proto.unpack_request w with Ok _ | Error _ -> ());
        match Ns_proto.unpack_response w with Ok _ | Error _ -> ()),
      List.map (fun (r, _) -> Ns_proto.pack_request r) ns_requests
      @ List.map (fun (r, _) -> Ns_proto.pack_response r) ns_responses );
    packed Proto.hello_codec [ hello ];
    packed Proto.ivc_open_codec [ ivc_open ];
    packed Proto.reason_codec [ ""; "no route" ];
    packed D.time_request_codec [ { D.tq_client_time = 5 } ];
    packed D.time_reply_codec [ { D.tr_server_time = 7 } ];
    packed D.monitor_record_codec [ monitor ];
    packed D.monitor_query_codec [ D.Q_stats; D.Q_recent 5 ];
    packed D.monitor_stats_codec
      [ { D.ms_total = 2; ms_by_kind = [ ("send", 2) ]; ms_by_module = [ ("m", 2) ] } ];
    packed D.monitor_recent_codec [ [ monitor ] ];
    packed D.log_record_codec [ log ];
    packed D.log_query_codec [ D.L_count 2; D.L_recent 4 ];
    packed D.log_recent_codec [ [ log ] ];
    packed U.term_query_codec [ { U.tq_terms = [ "a"; "b" ] } ];
    packed U.index_reply_codec
      [ { U.ir_doc_count = 3;
          ir_results = [ { U.tp_term = "a"; tp_df = 1; tp_postings = [ (1, 2) ] } ] } ];
    packed U.doc_request_codec [ { U.dr_doc = 17 } ];
    packed U.doc_reply_codec [ U.Doc_found { df_title = "t"; df_body = "b" }; U.Doc_missing ];
    packed U.search_request_codec [ { U.sq_query = "q"; sq_k = 3 } ];
    packed U.search_reply_codec
      [ { U.sr_hits = [ { U.h_doc = 1; h_score_milli = 500; h_title = "t" } ];
          sr_partitions = 2 } ];
    packed (Packed.of_layout layout)
      [ Layout.[ V_int (-3); V_int 305419896; V_str "ursa"; V_int 1 ] ];
  ]

let prop_hostile_bytes_never_raise =
  let decoders = List.map fst hostile_families in
  let wires = Array.of_list (List.concat_map snd hostile_families) in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:2000 ~name:"decoders answer hostile bytes with Error"
       QCheck.(
         pair (int_bound (Array.length wires - 1))
           (triple (int_bound 2) (int_bound 10_000) (int_bound 7)))
       (fun (which, m) ->
         let wire = Bytes.of_string (mutate (Bytes.to_string wires.(which)) m) in
         List.iter (fun decode -> decode wire) decoders;
         true))

(* A log record whose severity is outside 0–3 is refused, not read as
   Fatal. *)
let test_log_severity_range () =
  let module D = Ntcs_drts.Drts_proto in
  let wire sev =
    Packed.run_pack
      Packed.(pair (pair string int) (pair string int))
      (("m", sev), ("x", 4))
  in
  let decoded sev =
    match Packed.run_unpack_result D.log_record_codec (wire sev) with
    | Ok r -> Some r.D.lr_severity
    | Error _ -> None
  in
  Alcotest.(check bool) "severity 3 is Fatal" true (decoded 3 = Some D.Fatal);
  Alcotest.(check bool) "severity 4 refused" true (decoded 4 = None);
  Alcotest.(check bool) "severity -1 refused" true (decoded (-1) = None)

let test_app_union_bytes () =
  let check what codec cases =
    check_pinned what (Packed.run_pack codec) (Packed.run_unpack_result codec) cases
  in
  let open Ntcs_drts.Drts_proto in
  check "monitor query" monitor_query_codec [ (Q_stats, "3\nsta\n"); (Q_recent 5, "3\nrec\n5\n") ];
  check "log query" log_query_codec [ (L_count 2, "3\ncnt\n2\n"); (L_recent 4, "3\nrec\n4\n") ];
  check "doc reply" Ursa.Ursa_msg.doc_reply_codec
    [
      (Ursa.Ursa_msg.Doc_found { df_title = "t"; df_body = "b\n" }, "3\ndoc\n1\nt\n2\nb\n\n");
      (Ursa.Ursa_msg.Doc_missing, "3\nmis\n");
    ]

let () =
  Alcotest.run "ntcs_proto"
    [
      ( "addr",
        [
          Alcotest.test_case "words roundtrip" `Quick test_addr_words_roundtrip;
          Alcotest.test_case "kinds" `Quick test_addr_kinds;
          Alcotest.test_case "tadd generator" `Quick test_tadd_gen_unique;
        ] );
      ( "header",
        [
          Alcotest.test_case "roundtrip" `Quick test_header_roundtrip;
          Alcotest.test_case "all kinds" `Quick test_all_kinds_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick test_header_rejects_garbage;
        ] );
      ( "control",
        [
          Alcotest.test_case "hello codec" `Quick test_hello_codec;
          Alcotest.test_case "ivc open codec" `Quick test_ivc_open_codec;
          Alcotest.test_case "ns proto roundtrips" `Quick test_ns_proto_roundtrips;
          Alcotest.test_case "retired sync tags" `Quick test_ns_proto_retired_sync;
          Alcotest.test_case "change list bounds" `Quick test_ns_proto_change_list_bounds;
          Alcotest.test_case "app union bytes" `Quick test_app_union_bytes;
          Alcotest.test_case "log severity range" `Quick test_log_severity_range;
          prop_hostile_bytes_never_raise;
        ] );
    ]
