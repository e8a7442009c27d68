(* The circuit-lifecycle automaton, declared exactly once.

   idle -> opening -> established -> draining -> closed, with reject and
   break edges. Both halves of ntcs_check consume this single declaration:

   - statically, the kind table below says which protocol constructors map
     to which automaton input and which modules must dispatch on them
     (Check_proto verifies the table against proto.ml/ns_proto.ml and the
     modules against the table);
   - dynamically, [transition] is the oracle Check_trace replays every
     simulation trace through, schedule by schedule.

   So a drift between what the code handles and what the automaton admits is
   a diagnostic in both directions, not a silently stale comment. *)

type state = Idle | Opening | Established | Draining | Closed

type input =
  | Open_sent (* origin asked for a circuit: IVC_OPEN / ND HELLO sent *)
  | Open_rcvd (* target (or gateway splice) saw the open and committed *)
  | Accept (* origin learned the open succeeded: IVC_ACCEPT / HELLO_ACK *)
  | Reject (* origin learned the open failed: IVC_REJECT *)
  | Traffic (* payload-bearing frame: DATA / DGRAM / REPLY / PING / PONG *)
  | Close (* orderly teardown: IVC_CLOSE, cascade included (§4.3) *)
  | Break (* the circuit underneath failed *)

let all_states = [ Idle; Opening; Established; Draining; Closed ]
let all_inputs = [ Open_sent; Open_rcvd; Accept; Reject; Traffic; Close; Break ]

let state_to_string = function
  | Idle -> "idle"
  | Opening -> "opening"
  | Established -> "established"
  | Draining -> "draining"
  | Closed -> "closed"

let input_to_string = function
  | Open_sent -> "open-sent"
  | Open_rcvd -> "open-received"
  | Accept -> "accept"
  | Reject -> "reject"
  | Traffic -> "traffic"
  | Close -> "close"
  | Break -> "break"

type step =
  | Goto of state
  | Stay
  | Violation of string

let transition state input =
  match (state, input) with
  | Idle, Open_sent -> Goto Opening
  | Idle, Open_rcvd -> Goto Established (* target side commits on the open *)
  | Idle, (Accept | Reject) -> Violation "accept/reject for a circuit that was never opened"
  | Idle, Traffic -> Violation "traffic on a circuit that was never opened"
  | Idle, Close -> Stay (* cascades may cross a leg already forgotten *)
  | Idle, Break -> Stay
  | Opening, Open_sent -> Stay (* open retry *)
  | Opening, Open_rcvd -> Violation "open collision on a label still being opened"
  | Opening, Accept -> Goto Established
  | Opening, Reject -> Goto Closed
  | Opening, Traffic -> Violation "traffic before the open was accepted"
  | Opening, Close -> Goto Closed (* opener gave up (timeout) *)
  | Opening, Break -> Goto Closed
  | Established, Open_sent -> Violation "re-open of a live label"
  | Established, Open_rcvd -> Violation "open/splice on a live label"
  | Established, Accept -> Stay (* duplicate accept: benign *)
  | Established, Reject -> Violation "reject on an established circuit"
  | Established, Traffic -> Stay
  | Established, Close -> Goto Draining
  | Established, Break -> Goto Closed
  | Draining, (Open_sent | Open_rcvd) -> Violation "label reused while draining"
  | Draining, (Accept | Reject) -> Violation "accept/reject while draining"
  | Draining, Traffic -> Violation "traffic forwarded after close (§4.3 teardown ordering)"
  | Draining, Close -> Goto Closed (* both directions of the cascade met *)
  | Draining, Break -> Goto Closed
  | Closed, (Open_sent | Open_rcvd) -> Violation "label reused after close"
  | Closed, (Accept | Reject) -> Violation "accept/reject after close"
  | Closed, Traffic -> Violation "traffic on a closed circuit"
  | Closed, (Close | Break) -> Stay (* teardown is idempotent *)

(* Structural self-check, run by ntcs_check and the test suite: the checker
   must not silently rot either. *)
let check_automaton () =
  let problems = ref [] in
  let note fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  (* Every state is reachable from Idle through legal steps. *)
  let reachable = ref [ Idle ] in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun s ->
        if List.mem s !reachable then
          List.iter
            (fun i ->
              match transition s i with
              | Goto s' when not (List.mem s' !reachable) ->
                reachable := s' :: !reachable;
                changed := true
              | Goto _ | Stay | Violation _ -> ())
            all_inputs)
      all_states
  done;
  List.iter
    (fun s ->
      if not (List.mem s !reachable) then
        note "state %s is unreachable from idle" (state_to_string s))
    all_states;
  (* Closed is absorbing: no legal step leaves it. *)
  List.iter
    (fun i ->
      match transition Closed i with
      | Goto s -> note "closed is not absorbing: %s leads to %s" (input_to_string i) (state_to_string s)
      | Stay | Violation _ -> ())
    all_inputs;
  (* Traffic is legal exactly in Established: the ordering theorem the
     dynamic checker relies on. *)
  List.iter
    (fun s ->
      match (s, transition s Traffic) with
      | Established, (Stay | Goto Established) -> ()
      | Established, _ -> note "established must carry traffic"
      | _, (Stay | Goto _) -> note "traffic must be illegal in %s" (state_to_string s)
      | _, Violation _ -> ())
    all_states;
  List.rev !problems

(* --- the protocol-facing declarations --- *)

(* Proto.kind constructors, in declaration order, with the automaton input
   each one drives and the modules that must dispatch on it. Check_proto
   verifies the name column against proto.ml (both directions) and the
   handler column against the named modules' sources. *)
let kinds : (string * input * string list) list =
  [
    ("Data", Traffic, [ "Lcm_layer"; "Ip_layer" ]);
    ("Dgram", Traffic, [ "Lcm_layer"; "Ip_layer" ]);
    ("Reply", Traffic, [ "Lcm_layer"; "Ip_layer" ]);
    ("Hello", Open_sent, [ "Nd_layer"; "Ip_layer"; "Lcm_layer" ]);
    ("Hello_ack", Accept, [ "Nd_layer"; "Ip_layer"; "Lcm_layer" ]);
    ("Ivc_open", Open_rcvd, [ "Ip_layer"; "Lcm_layer" ]);
    ("Ivc_accept", Accept, [ "Ip_layer"; "Lcm_layer" ]);
    ("Ivc_reject", Reject, [ "Ip_layer"; "Lcm_layer"; "Gateway" ]);
    ("Ivc_close", Close, [ "Ip_layer"; "Lcm_layer"; "Gateway" ]);
    ("Ping", Traffic, [ "Lcm_layer"; "Ip_layer" ]);
    ("Pong", Traffic, [ "Lcm_layer"; "Ip_layer" ]);
  ]

let kind_names = List.map (fun (k, _, _) -> k) kinds

(* Ns_proto.request constructors, in declaration order, with the response
   each one is answered by. A module that issues a request must dispatch on
   its response (and on R_error); the server must dispatch on all of them. *)
let ns_requests : (string * string) list =
  [
    ("Register", "R_registered");
    ("Lookup_v", "R_addr_v");
    ("Lookup_attrs", "R_entries");
    ("Resolve_v", "R_entry_v");
    ("Forward", "R_forward");
    ("Deregister", "R_ok");
    ("List_gateways", "R_entries");
    ("Sync_push", "R_ok");
  ]

(* Ns_proto.response constructors, in declaration order. *)
let ns_responses =
  [
    "R_registered"; "R_addr_v"; "R_entry_v"; "R_entries"; "R_forward"; "R_ok"; "R_error";
  ]

(* Modules that implement the naming-service server side: they must handle
   every request. *)
let ns_servers = [ "Name_server" ]

(* The gateway event alternatives every gateway implementation must
   dispatch on (open / forward / teardown — §4). *)
let gw_events = [ "Ip_layer.Gw_open"; "Ip_layer.Gw_frame"; "Ip_layer.Gw_down" ]

let gw_modules = [ "Gateway" ]
