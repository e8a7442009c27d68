(* R3: runtime invariants, checked over a simulation's event trace instead
   of its code. The static rules keep the layering honest; these keep the
   protocol honest:

   - gateways never talk to each other (§4.2) — chains may pass through
     several gateways, but no chain terminates at one, and no gateway opens
     an IVC to another;
   - §6.3 recursion stays bounded — the LCM's high-water depth marks never
     exceed the configured limit;
   - no conversion between identical machine types (§5) — an IVC between
     same-order machines runs in image mode unless packing was forced. *)

module Span = Ntcs_obs.Span

type violation = { v_at_us : int; v_invariant : string; v_detail : string }

let pp_violation ppf v =
  Format.fprintf ppf "t=%dus [%s] %s" v.v_at_us v.v_invariant v.v_detail

let tokens s = String.split_on_char ' ' s |> List.filter (fun t -> t <> "")

let kv_token ~key toks =
  let prefix = key ^ "=" in
  let pl = String.length prefix in
  List.find_map
    (fun t ->
      if String.starts_with ~prefix t then Some (String.sub t pl (String.length t - pl))
      else None)
    toks

(* "gw/NAME@NET" -> Some "NAME" *)
let gw_name_of_actor actor =
  if String.starts_with ~prefix:"gw/" actor then begin
    let rest = String.sub actor 3 (String.length actor - 3) in
    match String.index_opt rest '@' with
    | Some i -> Some (String.sub rest 0 i)
    | None -> Some rest
  end
  else None

let no_gateway_peering (entries : Ntcs_sim.Trace.entry list) =
  let gw_addrs =
    List.filter_map
      (fun (e : Ntcs_sim.Trace.entry) ->
        if e.Span.ev_name = "gw.addr" then Some e.Span.ev_detail else None)
      entries
  in
  let is_gw_addr a = List.mem a gw_addrs in
  (* Gateways that demonstrably took part in a chain: they spliced or
     forwarded. A gateway-to-gateway circuit leg is only legal inside a
     chain, so its opener must appear here. *)
  let chained_gws =
    List.filter_map
      (fun (e : Ntcs_sim.Trace.entry) ->
        match e.Span.ev_name with
        | "gw.splice" | "gw.forward" -> Some e.Span.ev_actor
        | _ -> None)
      entries
  in
  List.filter_map
    (fun (e : Ntcs_sim.Trace.entry) ->
      let v inv detail = Some { v_at_us = e.Span.ev_at_us; v_invariant = inv; v_detail = detail } in
      match e.Span.ev_name with
      | "gw.splice" | "gw.forward" -> (
        let toks = tokens e.Span.ev_detail in
        (* Only request-direction kinds prove who a chain serves. Response
           and teardown frames legitimately carry gateway addresses in dst:
           replies/accepts flow back to a gateway ComMod whenever one
           originates naming-service traffic through its own chains, and a
           cascading IVC_CLOSE is matched by label, not address (§4.3). A
           real peering violation always shows an open or payload frame
           toward the gateway. *)
        let request_kind k =
          List.mem k [ "ivc-open"; "data"; "dgram"; "hello"; "ping" ]
        in
        match (kv_token ~key:"kind" toks, kv_token ~key:"dst" toks) with
        | Some k, Some dst when (not (request_kind k)) || not (is_gw_addr dst) -> None
        | _, Some dst when is_gw_addr dst ->
          v "gateway-peering"
            (Printf.sprintf "%s: chain terminates at gateway address %s (%s)"
               e.Span.ev_actor dst e.Span.ev_name)
        | _ -> None)
      | "ip.ivc_open" -> (
        (* detail: "to <addr> via <n> hop(s)" *)
        match (gw_name_of_actor e.Span.ev_actor, tokens e.Span.ev_detail) with
        | Some gw, "to" :: dst :: _ when is_gw_addr dst ->
          v "gateway-peering"
            (Printf.sprintf "gateway %s opened an IVC to gateway address %s" gw dst)
        | _ -> None)
      | "nd.open" -> (
        (* detail: "<addr> at <phys>". A circuit from one gateway to a
           gateway address is a chain leg only if the opener spliced. *)
        match (gw_name_of_actor e.Span.ev_actor, tokens e.Span.ev_detail) with
        | Some gw, addr :: _ when is_gw_addr addr && not (List.mem gw chained_gws) ->
          v "gateway-peering"
            (Printf.sprintf
               "gateway %s opened a circuit to gateway address %s outside any chain" gw addr)
        | _ -> None)
      | _ -> None)
    entries

let recursion_bounded ~limit (entries : Ntcs_sim.Trace.entry list) =
  List.filter_map
    (fun (e : Ntcs_sim.Trace.entry) ->
      if e.Span.ev_name <> "lcm.depth" then None
      else
        match int_of_string_opt (String.trim e.Span.ev_detail) with
        | Some d when d > limit ->
          Some
            {
              v_at_us = e.Span.ev_at_us;
              v_invariant = "recursion-depth";
              v_detail =
                Printf.sprintf "%s reached nesting depth %d > limit %d (\xc2\xa76.3)"
                  e.Span.ev_actor d limit;
            }
        | _ -> None)
    entries

let no_identity_conversion (entries : Ntcs_sim.Trace.entry list) =
  List.filter_map
    (fun (e : Ntcs_sim.Trace.entry) ->
      if e.Span.ev_name <> "ip.convert" then None
      else begin
        let toks = tokens e.Span.ev_detail in
        if List.mem "forced" toks then None (* deliberate ablation: exempt *)
        else
          match
            (kv_token ~key:"mode" toks, kv_token ~key:"local" toks, kv_token ~key:"remote" toks)
          with
          | Some "packed", Some l, Some r when String.equal l r ->
            Some
              {
                v_at_us = e.Span.ev_at_us;
                v_invariant = "identity-conversion";
                v_detail =
                  Printf.sprintf "%s packs between identical byte orders (%s): %s"
                    e.Span.ev_actor l e.Span.ev_detail;
              }
          | Some "image", Some l, Some r when not (String.equal l r) ->
            Some
              {
                v_at_us = e.Span.ev_at_us;
                v_invariant = "identity-conversion";
                v_detail =
                  Printf.sprintf "%s ships raw images between differing byte orders (%s/%s): %s"
                    e.Span.ev_actor l r e.Span.ev_detail;
              }
          | _ -> None
      end)
    entries

let check_all ?recursion_limit entries =
  no_gateway_peering entries
  @ (match recursion_limit with Some l -> recursion_bounded ~limit:l entries | None -> [])
  @ no_identity_conversion entries
