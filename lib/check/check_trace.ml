(* The runtime invariants over a world's event log. One walk dispatches each
   event on its name to the families that read it; one pre-pass before it
   gathers the two whole-log facts R3 needs (the gateway addresses, and the
   gateways that spliced or forwarded).

   Detail formats, each read by exactly one parser below:
     gw.splice / gw.close    "net<a> label <l> <-> net<b> label <l'>[ dst=<d>]"
     gw.forward              "net<a> label <l> -> net<b> label <l'> kind=<k> dst=<d>"
     ip.ivc_open             "to <addr> via <n> hop(s) label <l>"
     ip.ivc_open_sent / _reject / _close   "label <l> ..."
     ip.ivc_accept           "from <addr> label <l>"
     ip.convert              "mode=<m> local=<o> remote=<o> dst=<d>[ forced]"
     nd.open                 "<addr> at <phys>"
     lcm.depth               "<depth>"
     ns.cache.hit/stale/store   "<kind>:<key> shard <s> gen <g>"
     ns.cache.invalidate     "shard <s> floor <g>" | "splice addr:<a> dropped <n>"
     ns.shard.forward        "<name>: shard <a> -> <b> hop <h>"
     ns.shard.gen            "shard <s> gen <g>: <what> <name>[ (<addr>)]"
   Names, keys and addresses are single words. *)

module Span = Ntcs_obs.Span

type violation = { v_at_us : int; v_invariant : string; v_detail : string }

let pp_violation ppf v = Format.fprintf ppf "t=%dus [%s] %s" v.v_at_us v.v_invariant v.v_detail

(* ----- the tokenizer -----

   A detail is space-separated words read in place: a word is named by the
   offset it starts at, -1 when absent, and numbers are read where they
   stand. Scanning allocates nothing (no Scanf, no splitting); only a key
   kept in a table or a finding's message is copied out. *)

let rec skip d i = if i < String.length d && d.[i] = ' ' then skip d (i + 1) else i
let rec stop d i = if i < String.length d && d.[i] <> ' ' then stop d (i + 1) else i
let found d i = if i < String.length d then i else -1
let first d = found d (skip d 0)
let next d i = if i < 0 then -1 else found d (skip d (stop d i))
let rec nth d i n = if n = 0 then i else nth d (next d i) (n - 1)
let last d i = i >= 0 && next d i < 0
let word d i = String.sub d i (stop d i - i)
let rec eq_at a i b j n = n = 0 || (a.[i] = b.[j] && eq_at a (i + 1) b (j + 1) (n - 1))
let is d i w = i >= 0 && stop d i - i = String.length w && eq_at d i w 0 (String.length w)
let rec is_any d i = function [] -> false | w :: ws -> is d i w || is_any d i ws
let same d i j = i >= 0 && j >= 0 && stop d i - i = stop d j - j && eq_at d i d j (stop d i - i)

(* [d.[i..j)] as a natural number, -1 unless it is all digits. *)
let rec digits d j i n =
  if i = j then n
  else
    match d.[i] with
    | '0' .. '9' as c -> digits d j (i + 1) ((10 * n) + Char.code c - 48)
    | _ -> -1

let nat_in d i j = if i < 0 || i >= j then -1 else digits d j i 0
let nat d i = if i < 0 then -1 else nat_in d i (stop d i)
let label_of d i = if is d i "label" then nat d (next d i) else -1

(* The first word at or after [i] starting with [key] (which ends in '='
   for a value's offset), -1 if none. *)
let rec prefixed d key i =
  if i < 0 || (stop d i - i >= String.length key && eq_at d i key 0 (String.length key)) then i
  else prefixed d key (next d i)

let value d key =
  let i = prefixed d key (first d) in
  if i < 0 then -1 else i + String.length key

let rec has_word d w i = i >= 0 && (is d i w || has_word d w (next d i))

(* ----- one parser per detail format ----- *)

(* "net<n>" followed by "label", as a number. *)
let net d i =
  if is d (next d i) "label" && stop d i - i > 3 && eq_at d i "net" 0 3 then
    nat_in d (i + 3) (stop d i)
  else -1

type leg = { na : int; la : int; nb : int; lb : int; kind : int; dst : int }

(* A gw.* event's two legs (-1 parts when it does not parse), and the
   offsets of its kind and dst values. *)
let leg d =
  let a = first d in
  let sep = nth d a 3 in
  let b = next d sep in
  {
    na = (if is d sep "<->" || is d sep "->" then net d a else -1);
    la = nat d (nth d a 2);
    nb = net d b;
    lb = nat d (nth d b 2);
    kind = value d "kind=";
    dst = value d "dst=";
  }

(* ip.ivc_open: the destination's offset and the label. *)
let ivc_open d =
  let t = first d in
  if not (is d t "to") then (-1, -1)
  else (next d t, if is d (nth d t 2) "via" then label_of d (nth d t 5) else -1)

let depth d = if last d (first d) then nat d (first d) else -1

(* "<kind>:<key> shard <s> gen <g>" -> (key with kind, shard, gen). *)
let cache_entry d =
  let k = first d in
  let shard = nat d (nth d k 2) and gen = nat d (nth d k 4) in
  if is d (next d k) "shard" && is d (nth d k 3) "gen" && last d (nth d k 4) && min shard gen >= 0
  then Some (word d k, shard, gen)
  else None

(* "shard <s> <field> <n>..." -> the offset of <n>, -1 unless the detail
   opens that way. *)
let shard_field d field =
  if is d (first d) "shard" && is d (nth d (first d) 2) field then nth d (first d) 3 else -1

(* "shard <s> floor <g>" -> (shard, floor). *)
let floor_raise d =
  let g = shard_field d "floor" in
  let shard = nat d (next d (first d)) and floor = nat d g in
  if last d g && shard >= 0 && floor >= 0 then Some (shard, floor) else None

(* "shard <s> gen <g>: <what> <name>[ (<addr>)]" -> (shard, gen,
   "name:<name>"), the key the name cache's events use. *)
let change d =
  let g = shard_field d "gen" in
  let name = nth d g 2 in
  if name < 0 || d.[stop d g - 1] <> ':' then None
  else
    let shard = nat d (next d (first d)) and gen = nat_in d g (stop d g - 1) in
    if shard < 0 || gen < 0 then None else Some (shard, gen, "name:" ^ word d name)

(* "<name>: shard <a> -> <b> hop <h>" -> h. *)
let hop d =
  let h = nth d (first d) 6 in
  if is d (nth d (first d) 5) "hop" && last d h then nat d h else -1

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
      fail at "span-circuit-unique" (Printf.sprintf "circuit %d opened twice (%s)" c e.ev_detail)
    | None, 0, B ->
      Hashtbl.replace circuits c { c_open = true; c_reason = ""; c_msgs = Hashtbl.create 4 }
    | Some st, 0, E when st.c_open ->
      st.c_open <- false;
      st.c_reason <- e.ev_detail;
      if not (List.mem e.ev_detail close_reasons) then
        fail at "span-close-reason"
          (Printf.sprintf "circuit %d closed with unknown reason %S" c e.ev_detail)
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
  awaiting : (string * string, int) Hashtbl.t; (* (actor, key) -> stale hit time *)
  changes : (string, (int * int) list) Hashtbl.t; (* key -> each (shard, gen) changing it *)
}

let get tbl k ~default = Option.value ~default (Hashtbl.find_opt tbl k)

let hit st fail (e : Span.event) (key, shard, gen) =
  let actor = e.ev_actor and at = e.ev_at_us in
  (match Hashtbl.find_opt st.awaiting (actor, key) with
   | Some since ->
     fail at "naming-stale-splice"
       (Printf.sprintf "%s: hit on %s after a stale hit at t=%dus with no store in between" actor
          key since)
   | None -> ());
  (match Hashtbl.find_opt st.floors (actor, shard) with
   | Some floor when gen < floor ->
     fail at "naming-floor"
       (Printf.sprintf "%s: hit on %s at gen %d below shard %d's floor %d" actor key gen shard
          floor)
   | _ -> ());
  match get st.changes key ~default:[] with
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
               "%s: hit on %s at gen %d, but shard %d changed it at gen %d and the actor had \
                acknowledged gen %d"
               actor key gen shard g acked))
      changes

let unparseable fail (e : Span.event) =
  fail e.ev_at_us "naming-unparseable"
    (Printf.sprintf "%s: unparseable detail %S" e.ev_name e.ev_detail)

let naming_step st fail (e : Span.event) =
  let d = e.ev_detail and actor = e.ev_actor in
  match e.ev_name with
  | "ns.cache.invalidate" -> (
    match floor_raise d with
    | Some (shard, floor) -> Hashtbl.replace st.floors (actor, shard) floor
    | None -> if not (is d (first d) "splice") then unparseable fail e)
  | "ns.shard.gen" -> (
    match change d with
    | Some (shard, gen, key) ->
      Hashtbl.replace st.changes key ((shard, gen) :: get st.changes key ~default:[])
    | None -> unparseable fail e)
  | "ns.shard.forward" ->
    let h = hop d in
    if h < 0 then unparseable fail e
    else if h > 1 then
      fail e.ev_at_us "naming-hop-bound"
        (Printf.sprintf "%s: shard forward exceeded the one-hop bound (hop %d: %s)" actor h d)
  | name (* ns.cache.hit / stale / store *) -> (
    match cache_entry d with
    | None -> unparseable fail e
    | Some ((key, shard, gen) as entry) -> (
      match name with
      | "ns.cache.hit" -> hit st fail e entry
      | "ns.cache.stale" -> Hashtbl.replace st.awaiting (actor, key) e.ev_at_us
      | _ (* ns.cache.store *) ->
        (match Hashtbl.find_opt st.store_gen (actor, shard) with
         | Some prev when gen < prev ->
           fail e.ev_at_us "naming-store-monotonic"
             (Printf.sprintf "%s: store gen went backwards on shard %d (%d after %d, key %s)" actor
                shard gen prev key)
         | _ -> ());
        Hashtbl.replace st.store_gen (actor, shard) gen;
        Hashtbl.remove st.awaiting (actor, key)))

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

let rec chained actor n = function
  | [] -> false
  | g :: gs -> (String.length g = n - 3 && eq_at actor 3 g 0 (n - 3)) || chained actor n gs

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
         (Check_auto.input_to_string input) (Check_auto.state_to_string cur) e.ev_name e.ev_detail)

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
        | "gw.addr" -> (e.ev_detail :: addrs, gws)
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
      let endpoint (e : Span.event) label input =
        if label >= 0 then lifecycle_step machines fail e (e.ev_actor, -1, label) input
      in
      List.iter
        (fun (e : Span.event) ->
          span_step circuits fail e;
          let d = e.ev_detail and actor = e.ev_actor in
          match e.ev_name with
          | "gw.splice" | "gw.forward" | "gw.close" ->
            let l = leg d in
            if is_any d l.dst gw_addrs && (l.kind < 0 || is_any d l.kind request_kinds) then
              peering e "%s: chain terminates at gateway address %s (%s)" actor (word d l.dst)
                e.ev_name;
            if l.na >= 0 && l.la >= 0 && l.nb >= 0 && l.lb >= 0 then begin
              let input =
                match e.ev_name with
                | "gw.splice" -> Check_auto.Open_rcvd
                | "gw.forward" -> Check_auto.Traffic
                | _ -> Check_auto.Close
              in
              lifecycle_step machines fail e (actor, l.na, l.la) input;
              lifecycle_step machines fail e (actor, l.nb, l.lb) input
            end
          | "ip.ivc_open" ->
            let dst, label = ivc_open d in
            if gw_name_end actor >= 0 && is_any d dst gw_addrs then
              peering e "gateway %s opened an IVC to gateway address %s" (gw_name actor)
                (word d dst);
            endpoint e label Check_auto.Accept
          | "ip.ivc_open_sent" -> endpoint e (label_of d (first d)) Check_auto.Open_sent
          | "ip.ivc_reject" -> endpoint e (label_of d (first d)) Check_auto.Reject
          | "ip.ivc_close" -> endpoint e (label_of d (first d)) Check_auto.Close
          | "ip.ivc_accept" ->
            let label = if is d (first d) "from" then label_of d (nth d (first d) 2) else -1 in
            endpoint e label Check_auto.Open_rcvd
          | "nd.open" ->
            let n = gw_name_end actor in
            if n >= 0 && is_any d (first d) gw_addrs && not (chained actor n gws_chained) then
              peering e "gateway %s opened a circuit to gateway address %s outside any chain"
                (gw_name actor) (word d (first d))
          | "lcm.depth" -> (
            match recursion_limit with
            | Some limit when depth d > limit ->
              fail e.ev_at_us "recursion-depth"
                (Printf.sprintf "%s reached nesting depth %d > limit %d (\xc2\xa76.3)" actor
                   (depth d) limit)
            | _ -> ())
          | "ip.convert" ->
            let mode = value d "mode=" and l = value d "local=" and r = value d "remote=" in
            (* [forced] marks a deliberate ablation (the E-series experiments) *)
            if has_word d "forced" (first d) then ()
            else if is d mode "packed" && same d l r then
              fail e.ev_at_us "identity-conversion"
                (Printf.sprintf "%s packs between identical byte orders (%s): %s" actor (word d l)
                   d)
            else if is d mode "image" && l >= 0 && r >= 0 && not (same d l r) then
              fail e.ev_at_us "identity-conversion"
                (Printf.sprintf "%s ships raw images between differing byte orders (%s/%s): %s"
                   actor (word d l) (word d r) d)
          | "ns.cache.store" | "ns.cache.stale" | "ns.cache.hit" | "ns.cache.invalidate"
          | "ns.shard.gen" | "ns.shard.forward" ->
            naming_step naming fail e
          | "sim.proc_crash" ->
            if not crashes_expected then
              fail e.ev_at_us "process-crash" (Printf.sprintf "%s crashed: %s" actor d)
          | "race.conflict" -> if races then fail e.ev_at_us "race" d
          | _ -> ())
        events;
      span_finish circuits fail)
