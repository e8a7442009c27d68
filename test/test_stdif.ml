(* Unit tests of the STD-IF adapters (§2.2): message framing over the TCP
   byte stream, fragmentation/reassembly over bounded MBX messages, and the
   failure surface both present uniformly. *)

open Ntcs
open Ntcs_sim
open Ntcs_ipcs

type rig = {
  world : World.t;
  reg : Registry.t;
  m1 : Machine.t;
  m2 : Machine.t;
  a1 : Machine.t;
  a2 : Machine.t;
}

let make_rig () =
  let world = World.create ~config:{ World.Config.default with World.Config.seed = 23 } () in
  let lan = World.add_net world ~name:"lan" Net.Tcp_lan () in
  let ring = World.add_net world ~name:"ring" Net.Mbx_ring () in
  let m1 = World.add_machine world ~name:"m1" Machine.Sun3 () in
  let m2 = World.add_machine world ~name:"m2" Machine.Sun3 () in
  let a1 = World.add_machine world ~name:"a1" Machine.Apollo () in
  let a2 = World.add_machine world ~name:"a2" Machine.Apollo () in
  World.attach world m1 lan;
  World.attach world m2 lan;
  World.attach world a1 ring;
  World.attach world a2 ring;
  { world; reg = Registry.create world; m1; m2; a1; a2 }

(* Build a connected (client_lvc, server_lvc) pair over the chosen backend. *)
let tcp_pair rig k =
  ignore
    (World.spawn rig.world ~machine:rig.m1 ~name:"server" (fun () ->
         match Std_if.listen_tcp ~port:7000 rig.reg ~machine:rig.m1 with
         | Error _ -> Alcotest.fail "listen"
         | Ok acceptor -> (
           match acceptor.Std_if.accept () with
           | Error _ -> Alcotest.fail "accept"
           | Ok server_lvc -> k `Server server_lvc)));
  ignore
    (World.spawn rig.world ~machine:rig.m2 ~name:"client" (fun () ->
         match
           Std_if.connect rig.reg ~machine:rig.m2 ~dst:(Phys_addr.tcp ~host:"m1" ~port:7000)
         with
         | Error _ -> Alcotest.fail "connect"
         | Ok client_lvc -> k `Client client_lvc))

let mbx_pair rig k =
  ignore
    (World.spawn rig.world ~machine:rig.a1 ~name:"server" (fun () ->
         match Std_if.listen_mbx ~path:"//a1/mbx/t" rig.reg ~machine:rig.a1 ~hint:"t" with
         | Error _ -> Alcotest.fail "listen"
         | Ok acceptor -> (
           match acceptor.Std_if.accept () with
           | Error _ -> Alcotest.fail "accept"
           | Ok server_lvc -> k `Server server_lvc)));
  ignore
    (World.spawn rig.world ~machine:rig.a2 ~name:"client" (fun () ->
         Sched.sleep (World.sched rig.world) 1000;
         match
           Std_if.connect rig.reg ~machine:rig.a2 ~dst:(Phys_addr.mbx ~path:"//a1/mbx/t")
         with
         | Error _ -> Alcotest.fail "connect"
         | Ok client_lvc -> k `Client client_lvc))

(* A received slice's bytes, after checking the slice lies inside its
   buffer. *)
let slice_string (m : Std_if.slice) =
  if m.Std_if.off < 0 || m.Std_if.len < 0 || m.Std_if.off + m.Std_if.len > Bytes.length m.Std_if.buf
  then Alcotest.failf "slice [%d,+%d) outside %d-byte buffer" m.Std_if.off m.Std_if.len
         (Bytes.length m.Std_if.buf);
  Bytes.sub_string m.Std_if.buf m.Std_if.off m.Std_if.len

(* Send a list of messages one way; expect them back intact and in order. *)
let roundtrip_case make_pair messages () =
  let rig = make_rig () in
  let received = ref [] in
  let dispatch role lvc =
    match role with
    | `Client ->
      List.iter
        (fun m ->
          match Helpers.lvc_send lvc (Bytes.of_string m) with
          | Ok () -> ()
          | Error e -> Alcotest.failf "send: %s" (Ipcs_error.to_string e))
        messages
    | `Server ->
      for _ = 1 to List.length messages do
        match lvc.Std_if.recv_msg ~timeout_us:20_000_000 () with
        | Ok m -> received := slice_string m :: !received
        | Error e -> Alcotest.failf "recv: %s" (Ipcs_error.to_string e)
      done
  in
  make_pair rig dispatch;
  World.run rig.world;
  Alcotest.(check (list string)) "messages intact and ordered" messages (List.rev !received)

let mixed_messages =
  [ ""; "x"; String.make 100 'a'; String.make 5000 'b'; "tail" ]

(* Large enough to require several MBX fragments / many TCP segments. *)
let big_messages = [ String.make 100_000 'z'; String.make 70_001 'q' ]

let test_tcp_roundtrip = roundtrip_case tcp_pair mixed_messages
let test_tcp_large = roundtrip_case tcp_pair big_messages
let test_mbx_roundtrip = roundtrip_case mbx_pair mixed_messages
let test_mbx_large = roundtrip_case mbx_pair big_messages

(* The receiver owns every slice it is handed: keep them all and read
   them only after the last receive, so a receive that reuses an earlier
   slice's bytes shows. [spaced] paces the sender so each message travels
   alone; otherwise the receiver starts late and the messages queue up
   together. *)
let slices_case make_pair ~spaced messages () =
  let rig = make_rig () in
  let sched = World.sched rig.world in
  let received = ref [] in
  let dispatch role lvc =
    match role with
    | `Client ->
      List.iter
        (fun m ->
          if spaced then Sched.sleep sched 50_000;
          match Helpers.lvc_send lvc (Bytes.of_string m) with
          | Ok () -> ()
          | Error e -> Alcotest.failf "send: %s" (Ipcs_error.to_string e))
        messages
    | `Server ->
      if not spaced then Sched.sleep sched 1_000_000;
      List.iter
        (fun _ ->
          match lvc.Std_if.recv_msg ~timeout_us:20_000_000 () with
          | Ok s -> received := s :: !received
          | Error e -> Alcotest.failf "recv: %s" (Ipcs_error.to_string e))
        messages
  in
  make_pair rig dispatch;
  World.run rig.world;
  Alcotest.(check (list string)) "every slice intact after the last receive" messages
    (List.rev_map slice_string !received)

(* Distinct bytes per message, so a slice overwritten by a later receive
   cannot compare equal by accident. *)
let distinct_messages sizes =
  List.mapi (fun i n -> String.init n (fun j -> Char.chr ((i * 31 + j * 7 + 1) land 0xFF))) sizes

(* The fragment header an MBX LVC reserves as its headroom, and the payload
   one fragment carries after it; "fragment arithmetic" checks both against
   a live LVC. *)
let mbx_frag_header = 12
let mbx_frag_payload = Ipcs_mbx.max_message_size - mbx_frag_header

let test_tcp_slices_one_segment =
  slices_case tcp_pair ~spaced:true (distinct_messages [ 40; 40; Ipcs_tcp.mss - 4; 1; 40 ])

(* Long messages outrun the first read and are reassembled one at a
   time, the reassembly buffer emptied between them. *)
let test_tcp_slices_reassembled =
  slices_case tcp_pair ~spaced:true (distinct_messages [ 20_000; 30_000; 40; 25_000; 2 * Ipcs_tcp.mss ])

(* Queued messages coalesce into one chunk, and several are cut from the
   reassembly buffer, which outgrows its first size. *)
let test_tcp_slices_coalesced =
  slices_case tcp_pair ~spaced:false
    (distinct_messages [ 40; 40; Ipcs_tcp.mss - 3; 7; 9000; 40; 2 * Ipcs_tcp.mss ])

let test_mbx_slices_one_fragment =
  slices_case mbx_pair ~spaced:true
    (distinct_messages [ 40; mbx_frag_payload; 1; 40 ])

let test_mbx_slices_fragmented =
  slices_case mbx_pair ~spaced:false
    (distinct_messages
       [ mbx_frag_payload + 1; 40; 3 * mbx_frag_payload; mbx_frag_payload + 7 ])

(* Where a message sits in the buffer handed to [lvc.send]: exactly the
   LVC's headroom in (the shape ND encodes into), [k] bytes more than
   that, or at offset 0 — each with [trailing] bytes after it. Only the
   first shape with nothing after the message may travel as it is. *)
type shape = { front : [ `Headroom | `More of int | `Zero ]; trailing : int }

let shape_to_string { front; trailing } =
  (match front with `Headroom -> "h" | `More k -> Printf.sprintf "h+%d" k | `Zero -> "0")
  ^ if trailing > 0 then Printf.sprintf "+%dt" trailing else ""

(* Send [m] from a buffer of the given shape, filled around it with bytes
   a receiver must never see. *)
let send_shaped (lvc : Std_if.lvc) shape m =
  let off =
    match shape.front with
    | `Headroom -> lvc.Std_if.headroom
    | `More k -> lvc.Std_if.headroom + k
    | `Zero -> 0
  in
  let len = String.length m in
  let buf = Bytes.make (off + len + shape.trailing) '\xEE' in
  Bytes.blit_string m 0 buf off len;
  lvc.Std_if.send buf ~off ~len

(* Any sequence of messages, over either backend and in any buffer shape,
   arrives byte-equal and in order, each as a slice inside its buffer —
   and stays byte-equal until the last message is in: the slices are
   compared only then, so a receive that reuses an earlier slice's buffer
   fails.
   Sizes mix the edges — empty, one byte, the last single-segment TCP
   message (mss - 4) and the first two-segment one, one MBX fragment's
   payload +/- 1 — with anything up to 3 x mss. Sent back to back to a
   receiver that starts late, the TCP segments coalesce and take the
   reassembly path; spaced out, every single-segment (single-fragment)
   message must arrive as a slice of the IPCS's own buffer, just past the
   length word (fragment header). *)
let prop_messages_arrive_in_order =
  let mss = Ipcs_tcp.mss and payload = mbx_frag_payload in
  let edges = [ 0; 1; mss - 4; mss - 3; payload - 1; payload; payload + 1 ] in
  let size = QCheck.Gen.(oneof [ oneofl edges; int_bound (3 * mss) ]) in
  let shape =
    QCheck.Gen.(
      map2
        (fun front trailing -> { front; trailing })
        (oneof [ return `Headroom; map (fun k -> `More k) (int_range 1 16); return `Zero ])
        (oneof [ return 0; int_range 1 16 ]))
  in
  let case =
    QCheck.make
      ~print:(fun (mbx, spaced, msgs) ->
        Printf.sprintf "%s %s [%s]" (if mbx then "mbx" else "tcp")
          (if spaced then "spaced" else "back-to-back")
          (String.concat "; "
             (List.map (fun (n, sh) -> Printf.sprintf "%d@%s" n (shape_to_string sh)) msgs)))
      QCheck.Gen.(triple bool bool (list_size (int_range 1 6) (pair size shape)))
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:120 ~name:"messages arrive whole, in order, as slices" case
       (fun (mbx, spaced, msgs) ->
         let rig = make_rig () in
         let sched = World.sched rig.world in
         let messages =
           List.mapi
             (fun i (n, _) -> String.init n (fun j -> Char.chr ((i * 7 + j * 13) land 0xFF)))
             msgs
         in
         let received = ref [] in
         let header = if mbx then mbx_frag_header else 4 in
         let single n = if mbx then n <= payload else n + 4 <= mss in
         let dispatch role lvc =
           match role with
           | `Client ->
             List.iter2
               (fun m (_, sh) ->
                 if spaced then Sched.sleep sched 50_000;
                 match send_shaped lvc sh m with
                 | Ok () -> ()
                 | Error e -> Alcotest.failf "send: %s" (Ipcs_error.to_string e))
               messages msgs
           | `Server ->
             if not spaced then Sched.sleep sched 1_000_000;
             List.iter
               (fun m ->
                 match lvc.Std_if.recv_msg ~timeout_us:20_000_000 () with
                 | Ok s ->
                   let n = String.length m in
                   let own_buffer =
                     s.Std_if.off = header && Bytes.length s.Std_if.buf = n + header
                   in
                   if spaced && single n && not own_buffer then
                     Alcotest.failf "%d-byte message not a slice of its own buffer" n;
                   received := s :: !received
                 | Error e -> Alcotest.failf "recv: %s" (Ipcs_error.to_string e))
               messages
         in
         (if mbx then mbx_pair else tcp_pair) rig dispatch;
         World.run rig.world;
         (* Read only after the last receive: the receiver owns every
            slice, so no later receive may have reused its bytes. *)
         List.rev_map slice_string !received = messages))

(* Either backend refuses a message longer than [max_frame] at send. *)
let test_send_beyond_max_frame () =
  let check_backend name make_pair =
    let rig = make_rig () in
    let result = ref None in
    let dispatch role lvc =
      match role with
      | `Client -> result := Some (Helpers.lvc_send lvc (Bytes.create (Std_if.max_frame + 1)))
      | `Server -> ()
    in
    make_pair rig dispatch;
    World.run rig.world;
    match !result with
    | Some (Error Ipcs_error.Too_big) -> ()
    | Some (Error e) -> Alcotest.failf "%s: wrong error %s" name (Ipcs_error.to_string e)
    | Some (Ok ()) -> Alcotest.failf "%s: sent a message beyond max_frame" name
    | None -> Alcotest.failf "%s: client never ran" name
  in
  check_backend "tcp" tcp_pair;
  check_backend "mbx" mbx_pair

(* A raw TCP peer whose length word claims more than [max_frame]: the
   reader fails with [Closed] at once instead of waiting for bytes that
   will never come. *)
let test_tcp_length_word_beyond_max_frame () =
  let rig = make_rig () in
  let got = ref None in
  ignore
    (World.spawn rig.world ~machine:rig.m1 ~name:"server" (fun () ->
         match Std_if.listen_tcp ~port:7000 rig.reg ~machine:rig.m1 with
         | Error _ -> Alcotest.fail "listen"
         | Ok acceptor -> (
           match acceptor.Std_if.accept () with
           | Error _ -> Alcotest.fail "accept"
           | Ok lvc -> got := Some (lvc.Std_if.recv_msg ~timeout_us:5_000_000 ()))));
  ignore
    (World.spawn rig.world ~machine:rig.m2 ~name:"client" (fun () ->
         match
           Ipcs_tcp.connect (Registry.tcp rig.reg) ~machine:rig.m2
             ~dst:(Phys_addr.tcp ~host:"m1" ~port:7000)
         with
         | Error _ -> Alcotest.fail "connect"
         | Ok conn ->
           let buf = Bytes.make 16 'x' in
           Ntcs_wire.Shift.poke_word buf 0 0xFFFFFFF0;
           ignore (Ipcs_tcp.send conn buf)));
  World.run rig.world;
  match !got with
  | Some (Error Ipcs_error.Closed) -> ()
  | Some (Error e) -> Alcotest.failf "wrong error: %s" (Ipcs_error.to_string e)
  | Some (Ok _) -> Alcotest.fail "delivered a message from a hostile length word"
  | None -> Alcotest.fail "reader never returned"

(* A live MBX LVC reserves the fragment header as its headroom, and a
   message that fills one IPCS message after it travels as one fragment;
   one byte more is reassembled from two. *)
let test_mbx_fragment_arithmetic () =
  let rig = make_rig () in
  let headroom = ref 0 and got = ref [] in
  let sizes = [ mbx_frag_payload; mbx_frag_payload + 1 ] in
  let dispatch role lvc =
    match role with
    | `Client ->
      headroom := lvc.Std_if.headroom;
      List.iter
        (fun n ->
          match Helpers.lvc_send lvc (Bytes.make n 'f') with
          | Ok () -> ()
          | Error e -> Alcotest.failf "send: %s" (Ipcs_error.to_string e))
        sizes
    | `Server ->
      List.iter
        (fun _ ->
          match lvc.Std_if.recv_msg ~timeout_us:20_000_000 () with
          | Ok s -> got := s :: !got
          | Error e -> Alcotest.failf "recv: %s" (Ipcs_error.to_string e))
        sizes
  in
  mbx_pair rig dispatch;
  World.run rig.world;
  Alcotest.(check int) "header accounted" mbx_frag_header !headroom;
  match List.rev !got with
  | [ one; two ] ->
    Alcotest.(check (pair int int)) "a full fragment is a slice of its IPCS message"
      (mbx_frag_header, Ipcs_mbx.max_message_size)
      (one.Std_if.off, Bytes.length one.Std_if.buf);
    Alcotest.(check (pair int int)) "one byte more is reassembled"
      (0, mbx_frag_payload + 1) (two.Std_if.off, two.Std_if.len)
  | l -> Alcotest.failf "%d messages received, want 2" (List.length l)

(* Raw fragments [(frame id, index, count, body)] sent straight onto the
   MBX channel a listening LVC reads: what reassembly makes of a peer whose
   fragment headers it cannot trust, as the reader's first result. *)
let raw_fragments frags =
  let rig = make_rig () in
  let got = ref None in
  ignore
    (World.spawn rig.world ~machine:rig.a1 ~name:"server" (fun () ->
         match Std_if.listen_mbx ~path:"//a1/mbx/t" rig.reg ~machine:rig.a1 ~hint:"t" with
         | Error _ -> Alcotest.fail "listen"
         | Ok acceptor -> (
           match acceptor.Std_if.accept () with
           | Error _ -> Alcotest.fail "accept"
           | Ok lvc -> got := Some (lvc.Std_if.recv_msg ~timeout_us:2_000_000 ()))));
  ignore
    (World.spawn rig.world ~machine:rig.a2 ~name:"client" (fun () ->
         Sched.sleep (World.sched rig.world) 1000;
         match
           Ipcs_mbx.open_chan (Registry.mbx rig.reg) ~machine:rig.a2
             ~dst:(Phys_addr.mbx ~path:"//a1/mbx/t")
         with
         | Error _ -> Alcotest.fail "open"
         | Ok chan ->
           List.iter
             (fun (id, idx, count, body) ->
               let buf = Bytes.of_string ("hdr-id-count" ^ body) in
               List.iteri (fun i w -> Ntcs_wire.Shift.poke_word buf (4 * i) w) [ id; idx; count ];
               ignore (Ipcs_mbx.send chan buf))
             frags));
  World.run rig.world;
  match !got with
  | Some (Ok m) -> Printf.sprintf "delivered %S" (slice_string m)
  | Some (Error e) -> "error " ^ Ipcs_error.to_string e
  | None -> "reader never returned"

let closed = "error " ^ Ipcs_error.to_string Ipcs_error.Closed

let test_mbx_repeated_index () =
  Alcotest.(check string) "repeat ignored, frame whole" "delivered \"abcd\""
    (raw_fragments [ (1, 0, 2, "ab"); (1, 0, 2, "ab"); (1, 1, 2, "cd") ])

let test_mbx_index_beyond_count () =
  Alcotest.(check string) "rejected" closed
    (raw_fragments [ (1, 0, 2, "ab"); (1, 5, 2, "cd"); (1, 1, 2, "cd") ])

let test_mbx_zero_count () =
  Alcotest.(check string) "rejected" closed (raw_fragments [ (1, 0, 0, "ab") ])

let test_mbx_huge_count () =
  Alcotest.(check string) "rejected, nothing allocated" closed
    (raw_fragments [ (1, 0, 1 lsl 31, "ab") ])

let test_mbx_count_disagrees () =
  Alcotest.(check string) "rejected" closed
    (raw_fragments [ (1, 0, 3, "ab"); (1, 1, 2, "cd") ])

let test_close_surfaces_uniformly () =
  (* Both backends: close on one side -> recv on the other returns Closed. *)
  let check_backend make_pair =
    let rig = make_rig () in
    let result = ref None in
    let dispatch role lvc =
      match role with
      | `Client -> lvc.Std_if.close ()
      | `Server -> result := Some (lvc.Std_if.recv_msg ~timeout_us:10_000_000 ())
    in
    make_pair rig dispatch;
    World.run rig.world;
    match !result with
    | Some (Error Ipcs_error.Closed) -> ()
    | Some (Error e) -> Alcotest.failf "wrong error: %s" (Ipcs_error.to_string e)
    | Some (Ok _) -> Alcotest.fail "got data from a closed circuit"
    | None -> Alcotest.fail "server never ran"
  in
  check_backend tcp_pair;
  check_backend mbx_pair

let test_interleaved_bidirectional () =
  (* Full duplex: both ends talk simultaneously; no cross-contamination. *)
  let rig = make_rig () in
  let got_at_server = ref [] and got_at_client = ref [] in
  let dispatch role lvc =
    match role with
    | `Client ->
      for i = 1 to 5 do
        ignore (Helpers.lvc_send lvc (Bytes.of_string (Printf.sprintf "c%d" i)));
        match lvc.Std_if.recv_msg ~timeout_us:10_000_000 () with
        | Ok m -> got_at_client := slice_string m :: !got_at_client
        | Error _ -> ()
      done
    | `Server ->
      for i = 1 to 5 do
        ignore (Helpers.lvc_send lvc (Bytes.of_string (Printf.sprintf "s%d" i)));
        match lvc.Std_if.recv_msg ~timeout_us:10_000_000 () with
        | Ok m -> got_at_server := slice_string m :: !got_at_server
        | Error _ -> ()
      done
  in
  tcp_pair rig dispatch;
  World.run rig.world;
  Alcotest.(check (list string)) "server got client's stream" [ "c1"; "c2"; "c3"; "c4"; "c5" ]
    (List.rev !got_at_server);
  Alcotest.(check (list string)) "client got server's stream" [ "s1"; "s2"; "s3"; "s4"; "s5" ]
    (List.rev !got_at_client)

let () =
  Alcotest.run "std_if"
    [
      ( "framing",
        [
          Alcotest.test_case "tcp roundtrip" `Quick test_tcp_roundtrip;
          Alcotest.test_case "tcp large" `Quick test_tcp_large;
          Alcotest.test_case "mbx roundtrip" `Quick test_mbx_roundtrip;
          Alcotest.test_case "mbx large (fragmentation)" `Quick test_mbx_large;
          Alcotest.test_case "fragment arithmetic" `Quick test_mbx_fragment_arithmetic;
          prop_messages_arrive_in_order;
        ] );
      ( "slice ownership",
        [
          Alcotest.test_case "tcp one segment each" `Quick test_tcp_slices_one_segment;
          Alcotest.test_case "tcp reassembled" `Quick test_tcp_slices_reassembled;
          Alcotest.test_case "tcp coalesced" `Quick test_tcp_slices_coalesced;
          Alcotest.test_case "mbx one fragment each" `Quick test_mbx_slices_one_fragment;
          Alcotest.test_case "mbx fragmented" `Quick test_mbx_slices_fragmented;
        ] );
      ( "hostile fragments",
        [
          Alcotest.test_case "repeated index" `Quick test_mbx_repeated_index;
          Alcotest.test_case "index beyond count" `Quick test_mbx_index_beyond_count;
          Alcotest.test_case "zero count" `Quick test_mbx_zero_count;
          Alcotest.test_case "huge count" `Quick test_mbx_huge_count;
          Alcotest.test_case "count disagrees" `Quick test_mbx_count_disagrees;
        ] );
      ( "hostile length word",
        [
          Alcotest.test_case "beyond max_frame" `Quick test_tcp_length_word_beyond_max_frame;
        ] );
      ( "semantics",
        [
          Alcotest.test_case "close surfaces uniformly" `Quick test_close_surfaces_uniformly;
          Alcotest.test_case "bidirectional" `Quick test_interleaved_bidirectional;
          Alcotest.test_case "send beyond max_frame" `Quick test_send_beyond_max_frame;
        ] );
    ]
