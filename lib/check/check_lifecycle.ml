(* Dynamic half of the lifecycle check: replay a simulation trace through
   the Check_auto automaton, one state machine per circuit endpoint.

   Keys. Endpoint events (category ip.ivc_<x>) key on (actor, label): the
   opener and the acceptor of the same chained circuit run separate
   machines, as they do in the implementation. Gateway splice events
   (category gw.<x>) key on (actor, net, label) — one machine per leg. Labels come from a global registry,
   so a key can never be reborn under a different circuit.

   Inputs.  ip.ivc_open_sent -> open-sent        (opener: idle -> opening)
            ip.ivc_open      -> accept           (opener: opening -> established)
            ip.ivc_reject    -> reject           (opener: opening -> closed)
            ip.ivc_accept    -> open-received    (acceptor: idle -> established)
            ip.ivc_close     -> close            (either side, local or remote)
            gw.splice        -> open-received    (both legs commit)
            gw.forward       -> traffic          (both legs)
            gw.close         -> close            (both legs)

   Because a splice leg is removed from the table in the same step that
   traces gw.close, a gw.forward after gw.close on the same key is
   impossible in a correct gateway — and a Draining/Closed + traffic
   violation here is exactly the §4.3 teardown-ordering bug. *)

let invariant = "lifecycle"

let words s = String.split_on_char ' ' s |> List.filter (fun w -> w <> "")

let net_of w =
  if String.length w > 3 && String.sub w 0 3 = "net" then
    int_of_string_opt (String.sub w 3 (String.length w - 3))
  else None

let ep_key actor label = Printf.sprintf "%s label %d" actor label
let leg_key actor net label = Printf.sprintf "%s net%d label %d" actor net label

let ep actor label input =
  match int_of_string_opt label with Some l -> [ (ep_key actor l, input) ] | None -> []

let both_legs actor na la nb lb input =
  match (net_of na, int_of_string_opt la, net_of nb, int_of_string_opt lb) with
  | Some na, Some la, Some nb, Some lb ->
    [ (leg_key actor na la, input); (leg_key actor nb lb, input) ]
  | _ -> []

(* The automaton inputs an entry drives, as (key, input) pairs. Entries of
   other categories (and unparseable details, which cannot happen unless the
   trace formats drift) drive nothing and allocate nothing — most of the
   log is span events; only the eight categories above have their detail
   split. *)
let inputs_of (e : Ntcs_sim.Trace.entry) : (string * Check_auto.input) list =
  match e.ev_name with
  | "ip.ivc_open_sent" | "ip.ivc_open" | "ip.ivc_reject" | "ip.ivc_accept" | "ip.ivc_close"
  | "gw.splice" | "gw.forward" | "gw.close" -> (
    let ep = ep e.ev_actor and both_legs = both_legs e.ev_actor in
    match (e.ev_name, words e.ev_detail) with
    | "ip.ivc_open_sent", "label" :: l :: _ -> ep l Check_auto.Open_sent
    | "ip.ivc_open", "to" :: _ :: "via" :: _ :: _ :: "label" :: l :: _ -> ep l Check_auto.Accept
    | "ip.ivc_reject", "label" :: l :: _ -> ep l Check_auto.Reject
    | "ip.ivc_accept", "from" :: _ :: "label" :: l :: _ -> ep l Check_auto.Open_rcvd
    | "ip.ivc_close", "label" :: l :: _ -> ep l Check_auto.Close
    | "gw.splice", na :: "label" :: la :: "<->" :: nb :: "label" :: lb :: _ ->
      both_legs na la nb lb Check_auto.Open_rcvd
    | "gw.forward", na :: "label" :: la :: "->" :: nb :: "label" :: lb :: _ ->
      both_legs na la nb lb Check_auto.Traffic
    | "gw.close", na :: "label" :: la :: "<->" :: nb :: "label" :: lb :: _ ->
      both_legs na la nb lb Check_auto.Close
    | _ -> [])
  | _ -> []

let check (entries : Ntcs_sim.Trace.entry list) : Lint_trace.violation list =
  let states : (string, Check_auto.state) Hashtbl.t = Hashtbl.create 64 in
  let violations = ref [] in
  let step (e : Ntcs_sim.Trace.entry) (key, input) =
    let cur = match Hashtbl.find_opt states key with Some s -> s | None -> Check_auto.Idle in
    match Check_auto.transition cur input with
    | Check_auto.Goto s' -> Hashtbl.replace states key s'
    | Check_auto.Stay -> ()
    | Check_auto.Violation why ->
      violations :=
        {
          Lint_trace.v_at_us = e.ev_at_us;
          v_invariant = invariant;
          v_detail =
            Printf.sprintf "%s: %s (%s in state %s, from %s %S)" key why
              (Check_auto.input_to_string input)
              (Check_auto.state_to_string cur)
              e.ev_name e.ev_detail;
        }
        :: !violations
  in
  List.iter
    (fun e -> match inputs_of e with [] -> () | inputs -> List.iter (step e) inputs)
    entries;
  List.rev !violations
