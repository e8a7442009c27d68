(* Property-based tests (QCheck) on the core data structures and codecs:
   every wire format round-trips, containers respect their invariants, and
   the conversion machinery preserves values under arbitrary layouts. *)

open Ntcs_wire

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* --- generators --- *)

let field_gen =
  QCheck.Gen.(
    frequency
      [
        (2, return Layout.F_i8);
        (2, return Layout.F_i16);
        (3, return Layout.F_i32);
        (2, return Layout.F_i64);
        (2, map (fun n -> Layout.F_char_array (1 + (n mod 24))) small_nat);
      ])

let layout_gen = QCheck.Gen.(list_size (int_range 1 12) field_gen)

let value_for_field rng field =
  match field with
  | Layout.F_i8 -> Layout.V_int (QCheck.Gen.generate1 ~rand:rng (QCheck.Gen.int_range (-128) 127))
  | Layout.F_i16 ->
    Layout.V_int (QCheck.Gen.generate1 ~rand:rng (QCheck.Gen.int_range (-32768) 32767))
  | Layout.F_i32 ->
    Layout.V_int
      (QCheck.Gen.generate1 ~rand:rng (QCheck.Gen.int_range (-0x40000000) 0x3FFFFFFF))
  | Layout.F_i64 ->
    Layout.V_int (QCheck.Gen.generate1 ~rand:rng (QCheck.Gen.int_range 0 0x3FFFFFFFFFFF))
  | Layout.F_char_array n ->
    let len = QCheck.Gen.generate1 ~rand:rng (QCheck.Gen.int_range 0 (n - 1)) in
    let s =
      QCheck.Gen.generate1 ~rand:rng
        (QCheck.Gen.string_size ~gen:(QCheck.Gen.char_range 'a' 'z') (QCheck.Gen.return len))
    in
    Layout.V_str s

(* A field's C declaration and its size in the image. *)
let field_name = function
  | Layout.F_i8 -> "i8"
  | Layout.F_i16 -> "i16"
  | Layout.F_i32 -> "i32"
  | Layout.F_i64 -> "i64"
  | Layout.F_char_array n -> Printf.sprintf "char[%d]" n

let field_bytes = function
  | Layout.F_i8 -> 1
  | Layout.F_i16 -> 2
  | Layout.F_i32 -> 4
  | Layout.F_i64 -> 8
  | Layout.F_char_array n -> n

let layout_with_values =
  QCheck.make
    ~print:(fun (layout, _) -> String.concat ";" (List.map field_name layout))
    QCheck.Gen.(
      layout_gen >>= fun layout ->
      (fun rng -> (layout, List.map (value_for_field rng) layout)))

let order_gen = QCheck.Gen.oneofl [ Endian.Le; Endian.Be ]

(* --- image mode --- *)

let prop_image_roundtrip =
  qtest "image encode/decode roundtrip (same order)"
    (QCheck.pair layout_with_values (QCheck.make order_gen))
    (fun ((layout, values), order) ->
      let img = Layout.encode ~order layout values in
      let back = Layout.decode ~order layout img in
      values = back)

let prop_image_size =
  qtest "image size equals layout size"
    (QCheck.pair layout_with_values (QCheck.make order_gen))
    (fun ((layout, values), order) ->
      Bytes.length (Layout.encode ~order layout values)
      = List.fold_left (fun n f -> n + field_bytes f) 0 layout)

(* --- packed mode --- *)

let prop_packed_roundtrip =
  qtest "packed codec generated from layout roundtrips" layout_with_values
    (fun (layout, values) ->
      let codec = Packed.of_layout layout in
      let back = Packed.run_unpack codec (Packed.run_pack codec values) in
      values = back)

(* Any value of the field's type, in its range or not: what an application
   might hand to either conversion mode. *)
let any_value_for_field rng field =
  let open QCheck.Gen in
  generate1 ~rand:rng
    (match field with
     | Layout.F_char_array n ->
       let char = frequency [ (9, char_range 'a' 'z'); (1, return '\000') ] in
       map (fun s -> Layout.V_str s) (string_size ~gen:char (int_range 0 (n + 2)))
     | Layout.F_i8 | Layout.F_i16 | Layout.F_i32 | Layout.F_i64 ->
       map (fun i -> Layout.V_int i)
         (oneof [ int; int_range (-0x1_0000_0000) 0x1_0000_0000; int_range (-300) 300 ]))

let prop_image_packed_agree =
  qtest ~count:500 "image and packed decode the same list or both refuse"
    (QCheck.pair
       (QCheck.make
          QCheck.Gen.(
            layout_gen >>= fun layout rng -> (layout, List.map (any_value_for_field rng) layout)))
       (QCheck.make order_gen))
    (fun ((layout, values), order) ->
      let image =
        match Layout.decode ~order layout (Layout.encode ~order layout values) with
        | back -> Some back
        | exception Layout.Layout_error _ -> None
      in
      let codec = Packed.of_layout layout in
      let packed =
        match Packed.run_unpack_result codec (Packed.run_pack codec values) with
        | Ok back -> Some back
        | Error _ | (exception Invalid_argument _) -> None
      in
      match (image, packed) with
      | None, None -> true
      | Some a, Some b -> a = b
      | Some _, None | None, Some _ -> false)

let prop_packed_primitive_roundtrips =
  qtest "packed primitive combinators roundtrip"
    QCheck.(triple (list small_int) (pair string bool) (option (pair int string)))
    (fun v ->
      let codec =
        Packed.triple (Packed.list Packed.int)
          (Packed.pair Packed.string Packed.bool)
          (Packed.option (Packed.pair Packed.int Packed.string))
      in
      Packed.run_unpack codec (Packed.run_pack codec v) = v)

let prop_packed_float_exact =
  qtest "packed float is exact" QCheck.float (fun f ->
      let back = Packed.run_unpack Packed.float (Packed.run_pack Packed.float f) in
      (Float.is_nan f && Float.is_nan back) || back = f)

let prop_packed_garbage_never_crashes =
  qtest "unpacking random bytes returns Error, never raises"
    QCheck.(pair string (make layout_gen))
    (fun (junk, layout) ->
      let codec = Packed.of_layout layout in
      match Packed.run_unpack_result codec (Bytes.of_string junk) with
      | Ok _ | Error _ -> true)

(* Differential checks of the packed int codec against the stdlib: the
   digits are written and parsed without [string_of_int]/[int_of_string_opt],
   and must agree with them byte for byte and token for token. *)

let prop_packed_int_bytes =
  qtest ~count:1000 "packed int bytes equal string_of_int"
    QCheck.(
      make ~print:string_of_int
        Gen.(oneof [ oneofl [ min_int; max_int; 0; -1; min_int + 1; max_int - 1 ]; int; small_signed_int ]))
    (fun v -> Bytes.to_string (Packed.run_pack Packed.int v) = string_of_int v ^ "\n")

let int_token_gen =
  QCheck.Gen.(
    oneof
      [
        oneofl
          [ "4611686018427387904"; "4611686018427387903"; "-4611686018427387904";
            "-4611686018427387905"; "9999999999999999999"; "-9223372036854775808";
            "00000000000000000000004611686018427387903"; "0x3fffffffffffffff"; "0u4611686018427387904";
            "-"; ""; "+"; "-0"; "+7"; "1_000"; "_1"; "0b101"; "0o17"; "--1"; "1-" ];
        string_size ~gen:(oneofl (List.init 17 (String.get "0123456789-+_xobu"))) (int_range 0 22);
        string_size ~gen:(map Char.chr (int_range 0 255)) (int_range 0 6);
      ]
    >|= String.map (function '\n' -> ' ' | c -> c))

let prop_packed_int_tokens =
  qtest ~count:2000 "packed int unpack agrees with int_of_string_opt"
    (QCheck.make ~print:(Printf.sprintf "%S") int_token_gen)
    (fun tok ->
      match
        (Packed.run_unpack_result Packed.int (Bytes.of_string (tok ^ "\n")), int_of_string_opt tok)
      with
      | Ok v, Some w -> v = w
      | Error _, None -> true
      | Ok _, None | Error _, Some _ -> false)

(* A 33-field layout over every field kind, its bounds and awkward strings.
   Packed bytes are a wire format, so they are pinned as a literal: a codec
   rewrite may change how they are produced, never what they are. *)
let test_packed_layout_pinned () =
  let layout =
    Layout.
      [ F_i8; F_i8; F_i8; F_i8; F_i16; F_i16; F_i16; F_i16; F_i32; F_i32; F_i32; F_i32;
        F_i64; F_i64; F_i64; F_i64; F_i64; F_i64; F_i64;
        F_char_array 1; F_char_array 1; F_char_array 2; F_char_array 3; F_char_array 8;
        F_char_array 8; F_char_array 4; F_char_array 2; F_char_array 20; F_char_array 5;
        F_char_array 6; F_char_array 3; F_char_array 12; F_char_array 2 ]
  in
  let values =
    Layout.
      [ V_int (-128); V_int (-1); V_int 0; V_int 127; V_int (-32768); V_int (-1); V_int 0;
        V_int 32767; V_int (-0x80000000); V_int (-1); V_int 0; V_int 0x7FFFFFFF;
        V_int min_int; V_int (-1); V_int 0; V_int 1; V_int max_int; V_int 305419896;
        V_int (-1000000007);
        V_str ""; V_str "a"; V_str "\n"; V_str "-12"; V_str "T\nF"; V_str "tab\tend";
        V_str "\xff\x01"; V_str "0"; V_str "4611686018427387904"; V_str "x y z";
        V_str "\n\n\n"; V_str "+1"; V_str "ends with \n"; V_str "" ]
  in
  let codec = Packed.of_layout layout in
  let bytes = Packed.run_pack codec values in
  Alcotest.(check string) "packed bytes"
    "-128\n-1\n0\n127\n-32768\n-1\n0\n32767\n-2147483648\n-1\n0\n2147483647\n\
     -4611686018427387904\n-1\n0\n1\n4611686018427387903\n305419896\n-1000000007\n\
     0\n\n1\na\n1\n\n\n3\n-12\n3\nT\nF\n7\ntab\tend\n2\n\255\001\n1\n0\n\
     19\n4611686018427387904\n5\nx y z\n3\n\n\n\n\n2\n+1\n11\nends with \n\n0\n\n"
    (Bytes.to_string bytes);
  Alcotest.(check bool) "unpacks to the values" true
    (values = Packed.run_unpack codec bytes)

(* --- shift mode --- *)

let word_gen = QCheck.(map (fun n -> n land 0xFFFFFFFF) (int_bound max_int))

let words_header seq conv app_tag ivc =
  Ntcs.Proto.make_header ~kind:Ntcs.Proto.Data
    ~src:(Ntcs.Addr.unique ~server_id:1 ~value:2)
    ~dst:(Ntcs.Addr.unique ~server_id:1 ~value:3)
    ~seq ~conv ~app_tag ~ivc ~payload_len:0 ()

let prop_shift_roundtrip =
  qtest "shift words roundtrip" QCheck.(quad word_gen word_gen word_gen word_gen)
    (fun (seq, conv, app_tag, ivc) ->
      let h = words_header seq conv app_tag ivc in
      let b = Ntcs.Proto.encode_header h in
      Helpers.decode_header b = h
      && Shift.get_word b 24 = seq && Shift.get_word b 28 = conv
      && Shift.get_word b 32 = app_tag && Shift.get_word b 36 = ivc)

let prop_bitfields_roundtrip =
  qtest "bit fields roundtrip"
    QCheck.(triple (make order_gen) (make (Gen.oneofl [ Convert.Image; Convert.Packed ]))
              (pair (int_bound 255) (int_bound 255)))
    (fun (src_order, mode, (hops, hops')) ->
      let h = { (words_header 0 0 0 0) with Ntcs.Proto.src_order; mode; hops } in
      let v = Ntcs.Proto.Frame.of_bytes (Ntcs.Proto.encode_header h) in
      let ok = Ntcs.Proto.Frame.header v = h in
      Ntcs.Proto.Frame.patch_hops v hops';
      ok
      && Helpers.decode_header (Ntcs.Proto.Frame.buf v)
         = { h with Ntcs.Proto.hops = hops' })

(* --- addressing + header --- *)

let addr_gen =
  QCheck.Gen.(
    bool >>= fun temp ->
    int_range 0 0x3FFFFFFF >>= fun space ->
    map
      (fun v ->
        if temp then Ntcs.Addr.temporary ~assigner:space ~value:v
        else Ntcs.Addr.unique ~server_id:space ~value:v)
      (int_range 0 0xFFFFFFF))

let prop_addr_roundtrip =
  qtest "address words roundtrip" (QCheck.make addr_gen) (fun a ->
      Ntcs.Addr.equal a
        (Ntcs.Addr.of_words (Ntcs.Addr.space_word a) (Ntcs.Addr.value_word a)))

let header_gen =
  QCheck.Gen.(
    addr_gen >>= fun src ->
    addr_gen >>= fun dst ->
    oneofl
      [ Ntcs.Proto.Data; Ntcs.Proto.Dgram; Ntcs.Proto.Reply; Ntcs.Proto.Ping; Ntcs.Proto.Pong ]
    >>= fun kind ->
    order_gen >>= fun order ->
    int_range 0 255 >>= fun hops ->
    int_range 0 0xFFFFFF >>= fun seq ->
    int_range 0 0xFFFFFF >>= fun conv ->
    int_range 0 8999 >>= fun app_tag ->
    map
      (fun ivc ->
        Ntcs.Proto.make_header ~kind ~src ~dst ~src_order:order ~hops ~seq ~conv ~app_tag ~ivc
          ~payload_len:0 ())
      (int_range 0 0xFFFFFF))

let prop_header_roundtrip =
  qtest "nucleus header roundtrips through shift mode"
    (QCheck.pair (QCheck.make header_gen) QCheck.string)
    (fun (h, payload) ->
      let payload = Bytes.of_string payload in
      let h', payload' = Helpers.decode_frame (Ntcs.Proto.encode_frame h payload) in
      Ntcs.Addr.equal h.Ntcs.Proto.src h'.Ntcs.Proto.src
      && Ntcs.Addr.equal h.Ntcs.Proto.dst h'.Ntcs.Proto.dst
      && h.Ntcs.Proto.kind = h'.Ntcs.Proto.kind
      && h.Ntcs.Proto.src_order = h'.Ntcs.Proto.src_order
      && h.Ntcs.Proto.hops = h'.Ntcs.Proto.hops
      && h.Ntcs.Proto.seq = h'.Ntcs.Proto.seq
      && h.Ntcs.Proto.conv = h'.Ntcs.Proto.conv
      && h.Ntcs.Proto.app_tag = h'.Ntcs.Proto.app_tag
      && h.Ntcs.Proto.ivc = h'.Ntcs.Proto.ivc
      && Bytes.equal payload payload')

(* --- containers --- *)

(* Pop every live element, smallest first. *)
let rec drain h =
  if Ntcs_util.Heap.is_empty h then []
  else
    let x = Ntcs_util.Heap.pop_min h in
    x :: drain h

let prop_heap_sorts =
  qtest "heap drains sorted" QCheck.(list int) (fun l ->
      let h = Ntcs_util.Heap.create ~leq:(fun a b -> a <= b) ~gone:(fun _ -> false) in
      List.iter (Ntcs_util.Heap.push h) l;
      drain h = List.sort compare l)

let prop_lru_capacity =
  qtest "lru never exceeds capacity" QCheck.(pair (int_range 1 16) (list (pair small_int small_int)))
    (fun (cap, ops) ->
      let c = Ntcs_util.Lru.create cap in
      List.iter (fun (k, v) -> Ntcs_util.Lru.set c k v) ops;
      Ntcs_util.Lru.length c <= cap)

let prop_lru_last_write_wins =
  qtest "lru find returns last write" QCheck.(list (pair (int_bound 7) small_int))
    (fun ops ->
      let c = Ntcs_util.Lru.create 100 (* larger than key space: no evictions *) in
      List.iter (fun (k, v) -> Ntcs_util.Lru.set c k v) ops;
      List.for_all
        (fun (k, _) ->
          let expected = List.assoc k (List.rev ops) in
          Ntcs_util.Lru.find c k = Some expected)
        ops)

let prop_heap_equal_keys_fifo =
  qtest "heap with (key, seq) tie-break drains equal keys in insertion order"
    QCheck.(list (int_bound 3))
    (fun keys ->
      (* The simulator's usage pattern: stability comes from the (time,
         sequence) key, so equal times must drain in push order. *)
      let h =
        Ntcs_util.Heap.create
          ~leq:(fun (a, sa) (b, sb) -> a < b || (a = b && sa <= sb))
          ~gone:(fun _ -> false)
      in
      List.iteri (fun i k -> Ntcs_util.Heap.push h (k, i)) keys;
      drain h = List.sort compare (List.mapi (fun i k -> (k, i)) keys))

let prop_heap_withdrawals =
  qtest "heap with withdrawals pops exactly the live elements, in order"
    QCheck.(list (pair (int_bound 9) (int_bound 2)))
    (fun ops ->
      (* Op 0 pushes (key, seq); op 1 withdraws the live element at index
         key of the model; op 2 pops. The model is the sorted live list. *)
      let module H = Ntcs_util.Heap in
      let h =
        H.create
          ~leq:(fun (a, sa, _) (b, sb, _) -> a < b || (a = b && sa <= sb))
          ~gone:(fun (_, _, g) -> !g)
      in
      let live = ref [] and ok = ref true in
      List.iteri
        (fun i (k, op) ->
          (match op with
           | 0 ->
             let e = (k, i, ref false) in
             H.push h e;
             live := List.sort compare (e :: !live)
           | 1 when !live <> [] ->
             let ((_, _, g) as e) = List.nth !live (k mod List.length !live) in
             g := true;
             H.withdrawn h;
             live := List.filter (fun x -> x != e) !live
           | 1 -> ()
           | _ -> (
             match !live with
             | [] -> ok := !ok && H.is_empty h
             | y :: rest ->
               ok := !ok && (not (H.is_empty h)) && H.pop_min h == y;
               live := rest));
          ok := !ok && H.length h = List.length !live)
        ops;
      !ok && drain h = !live)

let prop_lru_iter_preserves_recency =
  qtest "lru iter is recency order and does not perturb it"
    QCheck.(pair (int_range 1 8) (list (pair (int_bound 7) small_int)))
    (fun (cap, ops) ->
      let c = Ntcs_util.Lru.create cap in
      (* Model recency as a most-recent-first key list. *)
      let model = ref [] in
      List.iter
        (fun (k, v) ->
          Ntcs_util.Lru.set c k v;
          model := k :: List.filter (fun k' -> k' <> k) !model;
          model := List.filteri (fun i _ -> i < cap) !model)
        ops;
      let snapshot () =
        let acc = ref [] in
        Ntcs_util.Lru.iter c (fun k _ -> acc := k :: !acc);
        List.rev !acc
      in
      let order1 = snapshot () in
      let order2 = snapshot () in
      order1 = !model && order2 = order1
      && (* Eviction after iter still removes the true LRU entry. *)
      (match List.rev !model with
       | lru :: _ when List.length !model = cap ->
         Ntcs_util.Lru.set c 1000 0;
         Ntcs_util.Lru.find c lru = None
       | _ -> true))

let prop_bqueue_fifo =
  qtest "bqueue preserves order of accepted items" QCheck.(pair (int_range 1 8) (list small_int))
    (fun (cap, items) ->
      let q = Ntcs_util.Bqueue.create cap in
      let accepted = List.filter (fun x -> Ntcs_util.Bqueue.push q x) items in
      let rec drain acc =
        match Ntcs_util.Bqueue.pop q with Some x -> drain (x :: acc) | None -> List.rev acc
      in
      drain [] = accepted)

let prop_stats_bounds =
  qtest "percentiles lie within min/max" QCheck.(list_of_size (QCheck.Gen.int_range 1 50) float)
    (fun xs ->
      if List.exists Float.is_nan xs then true
      else begin
        let s = Ntcs_util.Stats.create () in
        List.iter (Ntcs_util.Stats.add s) xs;
        let lo = List.fold_left Float.min infinity xs
        and hi = List.fold_left Float.max neg_infinity xs in
        List.for_all
          (fun p ->
            let v = Ntcs_util.Stats.percentile s p in
            v >= lo -. 1e-9 && v <= hi +. 1e-9)
          [ 0.; 10.; 50.; 90.; 99.; 100. ]
      end)

(* --- tokenizer / corpus --- *)

let prop_tokenizer_idempotent_text =
  qtest "tokens of rejoined tokens are stable" QCheck.(string_of_size (QCheck.Gen.int_range 0 80))
    (fun s ->
      let once = Ursa.Tokenizer.tokens s in
      let again = Ursa.Tokenizer.tokens (String.concat " " once) in
      once = again)

let prop_corpus_partition_preserves =
  qtest "corpus partition loses nothing" QCheck.(pair (int_range 1 7) (int_range 0 60))
    (fun (k, n) ->
      let docs = Ursa.Corpus.generate n in
      let parts = Ursa.Corpus.partition k docs in
      List.length parts = k
      && List.sort compare (List.concat_map (List.map (fun d -> d.Ursa.Corpus.d_id)) parts)
         = List.init n Fun.id)

let prop_distributed_search_equals_local =
  qtest ~count:60 "partitioned search merge equals single-index reference"
    QCheck.(triple (int_range 1 5) (int_range 1 40) small_int)
    (fun (parts, ndocs, qseed) ->
      let docs = Ursa.Corpus.generate ~seed:(qseed + 3) ndocs in
      let query_terms =
        let _, vocab = Ursa.Corpus.topics.(qseed mod Array.length Ursa.Corpus.topics) in
        [ vocab.(0); vocab.(1 mod Array.length vocab) ]
      in
      (* Distributed: per-partition indexes queried + merged. *)
      let replies =
        List.map
          (fun part ->
            let idx = Ursa.Index.of_docs part in
            {
              Ursa.Ursa_msg.ir_doc_count = Ursa.Index.doc_count idx;
              ir_results =
                List.map
                  (fun term ->
                    let postings = Ursa.Index.postings idx term in
                    {
                      Ursa.Ursa_msg.tp_term = term;
                      tp_df = List.length postings;
                      tp_postings =
                        List.map (fun p -> (p.Ursa.Index.p_doc, p.Ursa.Index.p_tf)) postings;
                    })
                  query_terms;
            })
          (Ursa.Corpus.partition parts docs)
      in
      let merged = Ursa.Servers.merge_scores replies in
      (* Reference: one index over everything. *)
      let idx = Ursa.Index.of_docs docs in
      let n_docs = Ursa.Index.doc_count idx in
      let scores = Hashtbl.create 16 in
      List.iter
        (fun term ->
          let postings = Ursa.Index.postings idx term in
          let df = List.length postings in
          List.iter
            (fun p ->
              let add = Ursa.Index.tf_idf ~tf:p.Ursa.Index.p_tf ~df ~n_docs in
              let cur =
                match Hashtbl.find_opt scores p.Ursa.Index.p_doc with Some x -> x | None -> 0.
              in
              Hashtbl.replace scores p.Ursa.Index.p_doc (cur +. add))
            postings)
        query_terms;
      let reference =
        Hashtbl.fold (fun d x acc -> (d, x) :: acc) scores []
        |> List.sort (fun (d1, x1) (d2, x2) ->
               match compare x2 x1 with 0 -> compare d1 d2 | c -> c)
      in
      List.map fst merged = List.map fst reference
      && List.for_all2 (fun (_, a) (_, b) -> Float.abs (a -. b) < 1e-9) merged reference)

let prop_phys_addr_roundtrip =
  qtest "physical addresses roundtrip their string form"
    QCheck.(pair (pair string small_int) bool)
    (fun ((name, port), is_tcp) ->
      let clean =
        String.map (fun c -> if c = '\n' || c = ':' || c = '/' || c = '\x00' then '_' else c)
          name
      in
      let clean = if clean = "" then "h" else clean in
      let a =
        if is_tcp then Ntcs_ipcs.Phys_addr.tcp ~host:clean ~port:(port + 1)
        else Ntcs_ipcs.Phys_addr.mbx ~path:("//" ^ clean ^ "/mbx/x")
      in
      match Ntcs_ipcs.Phys_addr.of_string (Ntcs_ipcs.Phys_addr.to_string a) with
      | Some b -> a = b
      | None -> false)

(* --- observability histograms --- *)

let histo_of l =
  let h = Ntcs_obs.Histo.create () in
  List.iter (Ntcs_obs.Histo.add h) l;
  h

(* The top of the bucket [v] lands in, read through the public surface:
   with two samples [v] and one far above them, the median is the upper
   bound of [v]'s bucket (only the observed maximum clamps a percentile). *)
let bucket_top v = Ntcs_obs.Histo.p50 (histo_of [ v; v; max_int ])

let prop_histo_bucket_bounds =
  qtest "histo bucket bounds bracket every value"
    QCheck.(oneof [ int_bound 100; int_bound 100_000; map abs int ])
    (fun v ->
      let v = abs v in
      let top = bucket_top v in
      (* [top] shares [v]'s bucket and the next value does not; the bucket
         is at most a quarter of its values wide. *)
      v <= top
      && bucket_top top = top
      && (top = max_int || bucket_top (top + 1) > top)
      && top - v <= max 0 (v / 4))

let prop_histo_buckets_partition =
  qtest "histo buckets tile the value range without gaps"
    QCheck.(oneof [ int_bound 300; int_bound 1_000_000 ])
    (fun v ->
      (* Consecutive values share a bucket, or the first tops its own. *)
      let top = bucket_top v and next = bucket_top (v + 1) in
      top <= next && (top = next || top = v))

let summary_of l = Ntcs_obs.Histo.summary (histo_of l)

(* A histogram is a function of its samples, not of their order or
   grouping: that is what lets per-world registries be read as one. *)
let prop_histo_merge_assoc =
  qtest "histo merge is associative"
    QCheck.(triple (list small_nat) (list small_nat) (list small_nat))
    (fun (a, b, c) -> summary_of ((a @ b) @ c) = summary_of (c @ b @ a))

let prop_histo_merge_is_union =
  qtest "merging histograms equals one histogram of all samples"
    QCheck.(pair (list small_nat) (list small_nat))
    (fun (a, b) ->
      let h = histo_of a in
      List.iter (Ntcs_obs.Histo.add h) b;
      Ntcs_obs.Histo.summary h = summary_of (b @ a))

let prop_histo_percentiles_bounded =
  qtest "histo percentiles lie within min/max"
    QCheck.(list_of_size (QCheck.Gen.int_range 1 60) small_nat)
    (fun xs ->
      let s = summary_of xs in
      List.for_all
        (fun v -> v >= s.Ntcs_obs.Histo.s_min && v <= s.Ntcs_obs.Histo.s_max)
        [ s.Ntcs_obs.Histo.s_p50; s.s_p95; s.s_p99 ])

let prop_rng_int_bounds =
  qtest "rng int respects bounds" QCheck.(pair (int_range 1 1000) small_int)
    (fun (bound, seed) ->
      let r = Ntcs_util.Rng.create seed in
      let ok = ref true in
      for _ = 1 to 50 do
        let v = Ntcs_util.Rng.int r bound in
        if v < 0 || v >= bound then ok := false
      done;
      !ok)

let () =
  Alcotest.run "properties"
    [
      ("image", [ prop_image_roundtrip; prop_image_size ]);
      ( "packed",
        [
          prop_packed_roundtrip;
          prop_packed_primitive_roundtrips;
          prop_packed_float_exact;
          prop_packed_garbage_never_crashes;
          prop_image_packed_agree;
          prop_packed_int_bytes;
          prop_packed_int_tokens;
          Alcotest.test_case "layout codec bytes pinned" `Quick test_packed_layout_pinned;
        ] );
      ("shift", [ prop_shift_roundtrip; prop_bitfields_roundtrip ]);
      ("protocol", [ prop_addr_roundtrip; prop_header_roundtrip ]);
      ( "containers",
        [ prop_heap_sorts; prop_heap_equal_keys_fifo; prop_lru_capacity;
          prop_lru_last_write_wins; prop_lru_iter_preserves_recency; prop_bqueue_fifo;
          prop_stats_bounds; prop_heap_withdrawals ] );
      ( "obs",
        [ prop_histo_bucket_bounds; prop_histo_buckets_partition; prop_histo_merge_assoc;
          prop_histo_merge_is_union; prop_histo_percentiles_bounded ] );
      ( "application",
        [ prop_tokenizer_idempotent_text; prop_corpus_partition_preserves;
          prop_distributed_search_equals_local; prop_phys_addr_roundtrip; prop_rng_int_bounds ]
      );
    ]
