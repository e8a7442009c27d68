(* The runtime invariants over a world's event log. One walk dispatches each
   event on its name to the families that read it; one pre-pass before it
   gathers the two whole-log facts R3 needs (the gateway addresses, and the
   gateways that spliced or forwarded).

   Every detail this file reads is typed (Span.detail): it matches fields,
   never text. The only text it takes from a log is a [Text] detail read
   whole: a gateway's address, a close reason, a crash or race message.
   The rendered text appears only in the findings' messages. *)

module Span = Ntcs_obs.Span

type violation = { v_at_us : int; v_invariant : string; v_detail : string }

let pp_violation ppf v = Format.fprintf ppf "t=%dus [%s] %s" v.v_at_us v.v_invariant v.v_detail
let text (e : Span.event) = Span.detail_to_string e.ev_detail

(* ----- spans: one automaton per logical circuit ----- *)

type circuit = {
  mutable c_open : bool;
  mutable c_reason : string; (* close reason once closed *)
  (* open message spans on this circuit: (seq, name) -> B timestamp *)
  c_msgs : (int * string, int) Hashtbl.t;
}

let close_reasons = [ "peer-down"; "shutdown"; "crashed" ]

let span_msg (e : Span.event) what =
  Printf.sprintf "span %s %s %s" (Span.to_string e.ev_ctx) e.ev_name what

(* Circuit spans bracket everything: a message span begins only on an open
   circuit, ids are never reused, B/E pair per (circuit, seq, name), a
   circuit closes once and with a known reason. An instant only needs its
   circuit to have been opened: the fault plane may replay a frame after
   the sender shut down, and the late delivery is legal (§4.3). Null-ctx
   events belong to no circuit. *)
let span_step circuits fail (e : Span.event) =
  let c = e.ev_ctx.sp_circuit and seq = e.ev_ctx.sp_seq and at = e.ev_at_us in
  if not (Span.is_none e.ev_ctx) then
    match (Hashtbl.find_opt circuits c, seq, e.ev_phase) with
    | Some _, 0, B ->
      fail at "span-circuit-unique" (Printf.sprintf "circuit %d opened twice (%s)" c (text e))
    | None, 0, B ->
      Hashtbl.replace circuits c { c_open = true; c_reason = ""; c_msgs = Hashtbl.create 4 }
    | Some st, 0, E when st.c_open ->
      st.c_open <- false;
      st.c_reason <- text e;
      if not (List.mem st.c_reason close_reasons) then
        fail at "span-close-reason"
          (Printf.sprintf "circuit %d closed with unknown reason %S" c st.c_reason)
    | Some _, 0, E -> fail at "span-orphan-end" (Printf.sprintf "circuit %d closed twice" c)
    | None, 0, E ->
      fail at "span-orphan-end" (Printf.sprintf "circuit %d closed but never opened" c)
    | _, 0, I -> ()
    | Some st, _, B when st.c_open ->
      let key = (seq, e.ev_name) in
      if Hashtbl.mem st.c_msgs key then fail at "span-duplicate-begin" (span_msg e "began twice")
      else Hashtbl.replace st.c_msgs key at
    | Some _, _, B -> fail at "span-use-after-close" (span_msg e "began on a closed circuit")
    | None, _, B -> fail at "span-orphan" (span_msg e "began on an unopened circuit")
    (* The circuit may already be closed (a sender blocked in a retry
       completes after peers_down): only the B must exist. *)
    | Some st, _, E ->
      let key = (seq, e.ev_name) in
      if Hashtbl.mem st.c_msgs key then Hashtbl.remove st.c_msgs key
      else fail at "span-orphan-end" (span_msg e "ended but never began")
    | None, _, E -> fail at "span-orphan-end" (span_msg e "ended but never began")
    | None, _, I ->
      fail at "span-orphan"
        (Printf.sprintf "hop %s on unopened circuit %s" e.ev_name (Span.to_string e.ev_ctx))
    | Some _, _, I -> ()

(* End of run: a message span still open is excused only when its owner
   died mid-operation (circuit marked crashed) or the operation was still
   in flight when the world stopped (circuit still open). *)
let span_finish circuits fail =
  Hashtbl.fold (fun c st acc -> (c, st) :: acc) circuits []
  |> List.sort compare
  |> List.iter (fun (c, st) ->
         if (not st.c_open) && st.c_reason <> "crashed" then
           Hashtbl.fold (fun k at acc -> (k, at) :: acc) st.c_msgs []
           |> List.sort compare
           |> List.iter (fun ((seq, name), at) ->
                  fail at "span-unterminated"
                    (Printf.sprintf "span c%d#%d %s never ended (circuit closed: %s)" c seq name
                       st.c_reason)))

(* ----- naming: the coherence invariants of DESIGN.md §15 -----

   1. store monotonicity: per (actor, shard), ns.cache.store generations
      never decrease (the cache clamps them up to the shard's floor);
   2. floor discipline: a hit after the actor raised shard s's floor to g
      carries a generation >= g;
   3. stale splice: between a stale hit on key k and the next hit on k
      there is a store on k (the re-lookup's fresh answer);
   4. hop bound: shard-router forwarding is one hop at most;
   5. per-name retirement, judged by the server's record: a hit on name n
      at generation h fails if the server changed n at a generation g with
      h < g <= the newest generation the actor acknowledged for n's shard
      (its stores and floor raises). *)

type naming = {
  store_gen : (string * int, int) Hashtbl.t; (* (actor, shard) -> last stored gen *)
  floors : (string * int, int) Hashtbl.t; (* (actor, shard) -> raised floor *)
  awaiting : (string * string * string, int) Hashtbl.t; (* (actor, kind, key) -> stale hit time *)
  changes : (string, (int * int) list) Hashtbl.t; (* name -> each (shard, gen) changing it *)
}

let get tbl k ~default = Option.value ~default (Hashtbl.find_opt tbl k)

let hit st fail (e : Span.event) ~kind ~key ~shard ~gen =
  let actor = e.ev_actor and at = e.ev_at_us in
  (match Hashtbl.find_opt st.awaiting (actor, kind, key) with
   | Some since ->
     fail at "naming-stale-splice"
       (Printf.sprintf "%s: hit on %s:%s after a stale hit at t=%dus with no store in between"
          actor kind key since)
   | None -> ());
  (match Hashtbl.find_opt st.floors (actor, shard) with
   | Some floor when gen < floor ->
     fail at "naming-floor"
       (Printf.sprintf "%s: hit on %s:%s at gen %d below shard %d's floor %d" actor kind key gen
          shard floor)
   | _ -> ());
  match if kind = "name" then get st.changes key ~default:[] else [] with
  | [] -> ()
  | changes ->
    let acked =
      max (get st.store_gen (actor, shard) ~default:0) (get st.floors (actor, shard) ~default:0)
    in
    List.iter
      (fun (s, g) ->
        if s = shard && gen < g && g <= acked then
          fail at "naming-retirement"
            (Printf.sprintf
               "%s: hit on %s:%s at gen %d, but shard %d changed it at gen %d and the actor had \
                acknowledged gen %d"
               actor kind key gen shard g acked))
      changes

let store st fail (e : Span.event) ~kind ~key ~shard ~gen =
  (match Hashtbl.find_opt st.store_gen (e.ev_actor, shard) with
   | Some prev when gen < prev ->
     fail e.ev_at_us "naming-store-monotonic"
       (Printf.sprintf "%s: store gen went backwards on shard %d (%d after %d, key %s:%s)"
          e.ev_actor shard gen prev kind key)
   | _ -> ());
  Hashtbl.replace st.store_gen (e.ev_actor, shard) gen;
  Hashtbl.remove st.awaiting (e.ev_actor, kind, key)

(* ----- R3's gateway rule and the lifecycle keys ----- *)

(* Only request-direction kinds prove who a chain serves. Replies and
   accepts flow back to a gateway whenever one originates naming-service
   traffic through its own chains, and a cascading IVC_CLOSE is matched by
   label, not address (§4.3). A splice names no kind: its dst is the
   chain's final destination; a close names neither. *)
let request_kinds = [ "ivc-open"; "data"; "dgram"; "hello"; "ping" ]

(* The end of NAME in a gateway ComMod's actor "gw/NAME@NET", -1 for any
   other actor. *)
let gw_name_end actor =
  if not (String.starts_with ~prefix:"gw/" actor) then -1
  else match String.index_from_opt actor 3 '@' with Some i -> i | None -> String.length actor

let gw_name actor = String.sub actor 3 (gw_name_end actor - 3)

(* One automaton per endpoint (actor, -1, label) and per splice leg
   (actor, net, label): labels come from a world-wide registry, so a key is
   never reborn under another circuit. *)
let key_to_string (actor, net, label) =
  if net < 0 then Printf.sprintf "%s label %d" actor label
  else Printf.sprintf "%s net%d label %d" actor net label

let lifecycle_step machines fail (e : Span.event) key input =
  let cur = get machines key ~default:Check_auto.Idle in
  match Check_auto.transition cur input with
  | Check_auto.Goto s -> Hashtbl.replace machines key s
  | Check_auto.Stay -> ()
  | Check_auto.Violation why ->
    fail e.ev_at_us "lifecycle"
      (Printf.sprintf "%s: %s (%s in state %s, from %s %S)" (key_to_string key) why
         (Check_auto.input_to_string input) (Check_auto.state_to_string cur) e.ev_name (text e))

(* ----- the entry points ----- *)

let collect run =
  let found = ref [] in
  run (fun at inv detail ->
      found := { v_at_us = at; v_invariant = inv; v_detail = detail } :: !found);
  List.rev !found

let spans events =
  collect (fun fail ->
      let circuits = Hashtbl.create 32 in
      List.iter (span_step circuits fail) events;
      span_finish circuits fail)

let check ?recursion_limit ?(crashes_expected = false) ~races events =
  (* The pre-pass. A gateway-to-gateway circuit is legal only as a chain
     leg, so its opener must splice or forward, wherever in the log. *)
  let gw_addrs, gws_chained =
    List.fold_left
      (fun ((addrs, gws) as acc) (e : Span.event) ->
        match e.ev_name with
        | "gw.addr" -> (text e :: addrs, gws)
        | ("gw.splice" | "gw.forward") when not (List.mem e.ev_actor gws) ->
          (addrs, e.ev_actor :: gws)
        | _ -> acc)
      ([], []) events
  in
  collect (fun fail ->
      let circuits = Hashtbl.create 32 and machines = Hashtbl.create 64 in
      let naming =
        {
          store_gen = Hashtbl.create 8;
          floors = Hashtbl.create 8;
          awaiting = Hashtbl.create 8;
          changes = Hashtbl.create 8;
        }
      in
      let peering (e : Span.event) fmt = Printf.ksprintf (fail e.ev_at_us "gateway-peering") fmt in
      let terminates (e : Span.event) dst =
        peering e "%s: chain terminates at gateway address %s (%s)" e.ev_actor dst e.ev_name
      in
      (* A gateway event's two splice legs. *)
      let legs (e : Span.event) input ~net_a ~label_a ~net_b ~label_b =
        lifecycle_step machines fail e (e.ev_actor, net_a, label_a) input;
        lifecycle_step machines fail e (e.ev_actor, net_b, label_b) input
      in
      let endpoint (e : Span.event) label input =
        lifecycle_step machines fail e (e.ev_actor, -1, label) input
      in
      List.iter
        (fun (e : Span.event) ->
          span_step circuits fail e;
          let actor = e.ev_actor in
          match (e.ev_name, e.ev_detail) with
          | ("gw.splice" | "gw.close"), Leg { net_a; label_a; net_b; label_b; dst } ->
            (match dst with
             | Some dst when List.mem dst gw_addrs -> terminates e dst
             | _ -> ());
            legs e
              (if e.ev_name = "gw.close" then Check_auto.Close else Check_auto.Open_rcvd)
              ~net_a ~label_a ~net_b ~label_b
          | "gw.forward", Forward { net_a; label_a; net_b; label_b; kind; dst } ->
            if List.mem dst gw_addrs && List.mem kind request_kinds then terminates e dst;
            legs e Check_auto.Traffic ~net_a ~label_a ~net_b ~label_b
          | "ip.ivc_open", Ivc_open { dst; label; _ } ->
            if gw_name_end actor >= 0 && List.mem dst gw_addrs then
              peering e "gateway %s opened an IVC to gateway address %s" (gw_name actor) dst;
            endpoint e label Check_auto.Accept
          | "ip.ivc_open_sent", Label { label; _ } -> endpoint e label Check_auto.Open_sent
          | "ip.ivc_reject", Label { label; _ } -> endpoint e label Check_auto.Reject
          | "ip.ivc_close", Label { label; _ } -> endpoint e label Check_auto.Close
          | "ip.ivc_accept", Ivc_accept { label; _ } -> endpoint e label Check_auto.Open_rcvd
          | "nd.open", Nd_open { addr; _ } ->
            if gw_name_end actor >= 0 && List.mem addr gw_addrs
               && not (List.mem (gw_name actor) gws_chained)
            then
              peering e "gateway %s opened a circuit to gateway address %s outside any chain"
                (gw_name actor) addr
          | "lcm.depth", Depth depth -> (
            match recursion_limit with
            | Some limit when depth > limit ->
              fail e.ev_at_us "recursion-depth"
                (Printf.sprintf "%s reached nesting depth %d > limit %d (\xc2\xa76.3)" actor depth
                   limit)
            | _ -> ())
          (* [forced] marks a deliberate ablation (the E-series experiments) *)
          | "ip.convert", Convert { forced = true; _ } -> ()
          | "ip.convert", Convert { mode = "packed"; local; remote; _ } when local = remote ->
            fail e.ev_at_us "identity-conversion"
              (Printf.sprintf "%s packs between identical byte orders (%s): %s" actor local
                 (text e))
          | "ip.convert", Convert { mode = "image"; local; remote; _ } when local <> remote ->
            fail e.ev_at_us "identity-conversion"
              (Printf.sprintf "%s ships raw images between differing byte orders (%s/%s): %s"
                 actor local remote (text e))
          | "ns.cache.hit", Cache_entry { kind; key; shard; gen } ->
            hit naming fail e ~kind ~key ~shard ~gen
          | "ns.cache.stale", Cache_entry { kind; key; _ } ->
            Hashtbl.replace naming.awaiting (actor, kind, key) e.ev_at_us
          | "ns.cache.store", Cache_entry { kind; key; shard; gen } ->
            store naming fail e ~kind ~key ~shard ~gen
          | "ns.cache.invalidate", Floor { shard; floor } ->
            Hashtbl.replace naming.floors (actor, shard) floor
          | "ns.shard.gen", Shard_gen { shard; gen; name; _ } ->
            Hashtbl.replace naming.changes name ((shard, gen) :: get naming.changes name ~default:[])
          | "ns.shard.forward", Shard_hop { hop; _ } when hop > 1 ->
            fail e.ev_at_us "naming-hop-bound"
              (Printf.sprintf "%s: shard forward exceeded the one-hop bound (hop %d: %s)" actor hop
                 (text e))
          | "sim.proc_crash", _ ->
            if not crashes_expected then
              fail e.ev_at_us "process-crash" (Printf.sprintf "%s crashed: %s" actor (text e))
          | "race.conflict", _ -> if races then fail e.ev_at_us "race" (text e)
          | _ -> ())
        events;
      span_finish circuits fail)
