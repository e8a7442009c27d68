(* The Gateway module (§4).

   One portable piece of code, instantiated once per gateway machine,
   bridging any set of networks: "the same Gateway module [can] be used for
   all networks and machines. The ability for each Gateway module to
   communicate with different networks is handled by the independent ComMods
   with which it binds. Each ComMod is bound with an ND-Layer designed for
   one of the networks."

   Gateways splice pairs of circuit legs by label. They never talk to each
   other outside the circuit chain (§4.2); every piece of topology knowledge
   they need comes from the naming service, with which they register like
   any application module (§4.1). Prime gateways adopt pre-assigned
   well-known addresses instead of registering (§3.4); all others register
   and are found through the naming service. *)

(* lint: allow-file layering(Commod) — gateways bind full ComMods and
   register through the naming service exactly like application modules
   (§4.1); only their splicing runs at the IP level. *)

open Ntcs_sim
open Ntcs_ipcs

type leg = {
  lg_net : Net.id;
  lg_commod : Commod.t;
  lg_circuit : Nd_layer.circuit;
  lg_label : int;
  lg_detail : Nd_layer.span_memo; (* gw.forward detail *)
}

let make_leg ~in_net ~in_label ~net ~commod ~circuit ~label =
  { lg_net = net; lg_commod = commod; lg_circuit = circuit; lg_label = label;
    lg_detail =
      Nd_layer.memo (fun kind addr ->
          Ntcs_obs.Span.Forward
            { net_a = in_net; label_a = in_label; net_b = net; label_b = label;
              kind = Proto.kind_to_string kind; dst = Addr.to_string addr }) }

type t = {
  node : Node.t;
  gw_name : string;
  nets : Net.id list;
  prime_addrs : (Net.id * Addr.t) list; (* pre-assigned well-known addresses *)
  prime_phys : (Net.id * Phys_addr.t list) list; (* fixed listening resources *)
  mutable commods : (Net.id * Commod.t) list;
  (* leg_key (net of receiving commod) (circuit id) label -> the other leg *)
  splices : (int, leg) Hashtbl.t;
}

let create node ~name ~nets ?(prime_addrs = []) ?(prime_phys = []) () =
  {
    node;
    gw_name = name;
    nets;
    prime_addrs;
    prime_phys;
    commods = [];
    splices = Hashtbl.create 32;
  }

let metrics t = Node.metrics t.node
let trace t ~cat text = Node.record t.node ~cat ~actor:t.gw_name text
let note t ~cat detail = Node.note t.node ~cat ~actor:t.gw_name detail

let spans_csv t = String.concat "," (List.map string_of_int t.nets)

(* A splice key packs net (8 bits), circuit id (22) and label (32) into
   one immediate int, so int order is (net, circuit, label) order. A part
   out of range gives -1: [handle_open] refuses such a leg, and a frame
   carrying one is an orphan. *)
let leg_key (net : Net.id) cid label =
  if net lsr 8 <> 0 || cid lsr 22 <> 0 || label lsr 32 <> 0 then -1
  else (net lsl 54) lor (cid lsl 32) lor label

let send_reject commod circuit ~(h : Proto.header) reason =
  let reject =
    Proto.make_header ~kind:Proto.Ivc_reject ~src:(Nd_layer.my_addr (Commod.nd commod))
      ~dst:h.Proto.src ~ivc:h.Proto.ivc ~payload_len:0 ()
  in
  ignore
    (Nd_layer.send_frame circuit reject
       (Ntcs_wire.Packed.run_pack Proto.reason_codec reason))

let open_failed t commod circuit ~h reason =
  Ntcs_obs.Registry.incr (metrics t) "gw.open_failures";
  send_reject commod circuit ~h reason

let dup_open t in_net (h : Proto.header) (req : Proto.ivc_open) how =
  Ntcs_obs.Registry.incr (metrics t) "gw.duplicate_opens";
  trace t ~cat:"gw.dup_open"
    (Printf.sprintf "net%d label %d dst=%s%s" in_net h.Proto.ivc
       (Addr.to_string req.Proto.final_dst) how)

(* Establish the next leg of a chained IVC and splice it to the inbound one.
   Runs in its own worker process: it performs naming-service lookups and a
   blocking channel open, and the gateway must keep forwarding meanwhile. *)
let handle_open t (in_net : Net.id) (in_commod : Commod.t) in_circuit (h : Proto.header)
    (req : Proto.ivc_open) =
  let in_key = leg_key in_net in_circuit.Nd_layer.cid h.Proto.ivc in
  if Hashtbl.mem t.splices in_key then begin
    (* Duplicated IVC_OPEN (the fault plane can replay control frames): the
       splice already exists and the original open already answered —
       splice repair must be idempotent, so drop the replay instead of
       opening a second outbound leg over the live one. *)
    dup_open t in_net h req ""
  end
  else begin
  if h.Proto.hops >= 255 then begin
    (* The 8-bit hop field is full: a route this deep is a loop (E7), and
       encoding hops+1 would be rejected rather than silently wrapped. *)
    Ntcs_obs.Registry.incr (metrics t) "gw.hop_overflow";
    send_reject in_commod in_circuit ~h "hop limit exceeded"
  end
  else begin
  let target =
    match req.Proto.route with [] -> req.Proto.final_dst | next :: _ -> next
  in
  let resolver = Commod.resolver in_commod in
  match Router.locate t.node resolver target with
  | Error e -> open_failed t in_commod in_circuit ~h (Errors.to_string e)
  | Ok (phys_candidates, target_nets) -> (
    (* Pick the outbound ComMod: one of ours attached to a network the
       target is on. *)
    let out =
      List.find_opt (fun (net, _) -> List.mem net target_nets) t.commods
    in
    match out with
    | None -> open_failed t in_commod in_circuit ~h "no outbound network"
    | Some (out_net, out_commod) -> (
      match Nd_layer.find_or_open (Commod.nd out_commod) target phys_candidates with
      | Error e -> open_failed t in_commod in_circuit ~h (Errors.to_string e)
      | Ok out_circuit ->
        if Hashtbl.mem t.splices in_key then begin
          (* A worker for a replayed copy of this open won the race while we
             were blocked on naming / channel setup: same answer as above. *)
          dup_open t in_net h req " (lost race)"
        end
        else begin
          let out_label = Registry.fresh_label t.node.Node.ipcs in
          let out_key = leg_key out_net out_circuit.Nd_layer.cid out_label in
          if in_key < 0 || out_key < 0 then
            open_failed t in_commod in_circuit ~h "splice key out of range"
          else begin
          Hashtbl.replace t.splices in_key
            (make_leg ~in_net ~in_label:h.Proto.ivc ~net:out_net ~commod:out_commod
               ~circuit:out_circuit ~label:out_label);
          Hashtbl.replace t.splices out_key
            (make_leg ~in_net:out_net ~in_label:out_label ~net:in_net ~commod:in_commod
               ~circuit:in_circuit ~label:h.Proto.ivc);
          let body =
            Ntcs_wire.Packed.run_pack Proto.ivc_open_codec
              { req with Proto.route = (match req.Proto.route with [] -> [] | _ :: r -> r) }
          in
          let fwd =
            { h with Proto.dst = target; ivc = out_label; hops = h.Proto.hops + 1 }
          in
          Ntcs_obs.Registry.incr (metrics t) "gw.opens";
          note t ~cat:"gw.splice"
            (Ntcs_obs.Span.Leg
               { net_a = in_net; label_a = h.Proto.ivc; net_b = out_net; label_b = out_label;
                 dst = Some (Addr.to_string req.Proto.final_dst) });
          match Nd_layer.send_frame out_circuit fwd body with
          | Ok () -> ()
          | Error e ->
            Hashtbl.remove t.splices in_key;
            Hashtbl.remove t.splices out_key;
            send_reject in_commod in_circuit ~h (Errors.to_string e)
          end
        end))
  end
  end

let remove_splice_pair t in_key (out_leg : leg) =
  (* Idempotent: a duplicated IVC_CLOSE (the fault plane can replay control
     frames), the forward-error path and the close path may all tear down
     the same splice — only the first call does anything, so [gw.close] is
     traced exactly once per splice and a replayed close can never tear
     down a successor splice reusing the labels. Traced so the lifecycle
     checker (ntcs_check) can prove no frame is ever forwarded across a
     splice after its teardown (§4.3 ordering). *)
  if Hashtbl.mem t.splices in_key then begin
    note t ~cat:"gw.close"
      (Ntcs_obs.Span.Leg
         { net_a = in_key lsr 54; label_a = in_key land 0xFFFFFFFF; net_b = out_leg.lg_net;
           label_b = out_leg.lg_label; dst = None });
    Hashtbl.remove t.splices in_key;
    Hashtbl.remove t.splices
      (leg_key out_leg.lg_net out_leg.lg_circuit.Nd_layer.cid out_leg.lg_label)
  end

(* Forward one frame across a splice, label-swapped. Messages can sit in a
   dead leg's queue and be lost during reconfiguration — "for all practical
   purposes, this is indistinguishable from the issues already discussed due
   to dynamic reconfiguration" (§4.3).

   Runs in the event of the ND reader that received the frame, so it
   neither blocks nor raises. The forward is zero-copy and allocates
   nothing of its own: only the label and hop-count words are patched in
   place. [h] stays the pre-patch snapshot (a patch drops the view's
   memo), so the error path below still sees the inbound label and
   source. *)
let handle_frame t (net : Net.id) (circuit : Nd_layer.circuit) (view : Proto.Frame.t) =
  let h = Proto.Frame.header view in
  let key = leg_key net circuit.Nd_layer.cid h.Proto.ivc in
  match Hashtbl.find t.splices key with
  | exception Not_found -> Ntcs_obs.Registry.incr (metrics t) "gw.orphan_frames"
  | out ->
    if h.Proto.hops >= 255 then begin
      (* Hop field full: this frame is looping (E7). Dropping it here is
         the loop protection the 8-bit counter exists for — wrapping to a
         small value would let it circulate forever. *)
      Ntcs_obs.Registry.incr (metrics t) "gw.hop_overflow";
      trace t ~cat:"gw.hop_overflow"
        (Printf.sprintf "net%d label %d kind=%s dst=%s" net h.Proto.ivc
           (Proto.kind_to_string h.Proto.kind)
           (Addr.to_string h.Proto.dst))
    end
    else begin
      Proto.Frame.patch_ivc view out.lg_label;
      Proto.Frame.patch_hops view (h.Proto.hops + 1);
      Ntcs_obs.Registry.incr (metrics t) "gw.forwards";
      (* Every forwarding decision is logged once, as an instant carrying
         the frame's ctx (null for control frames): the §4.2 invariant —
         gateways never talk to each other — is checkable from the log
         (lint R3) instead of assumed, and the hop joins its message's
         span. *)
      World.span (Node.world t.node) ~ctx:h.Proto.span ~phase:Ntcs_obs.Span.I
        ~name:"gw.forward" ~actor:t.gw_name
        (Nd_layer.memo_detail out.lg_detail h.Proto.kind h.Proto.dst);
      (match Nd_layer.forward_view out.lg_circuit h view with
       | Ok () -> ()
       | Error _ ->
         (* Outbound leg just died: tear the chain down toward the inbound
            side. The reader on the dead leg will handle the other side. *)
         let close =
           Proto.make_header ~kind:Proto.Ivc_close
             ~src:(Nd_layer.my_addr (Commod.nd out.lg_commod))
             ~dst:h.Proto.src ~ivc:h.Proto.ivc ~payload_len:0 ()
         in
         ignore
           (Nd_layer.send_frame circuit close
              (Ntcs_wire.Packed.run_pack Proto.reason_codec "leg failed"));
         remove_splice_pair t key out);
      if h.Proto.kind = Proto.Ivc_close then remove_splice_pair t key out
    end

(* A whole circuit died: cascade IVC_CLOSE across every splice riding it
   (§4.3), in both directions. *)
let handle_down t (net : Net.id) circuit =
  (* Cascade in (net, circuit, label) order: peers see the closes in a
     reproducible sequence. *)
  let prefix = leg_key net circuit.Nd_layer.cid 0 lsr 32 in
  let affected =
    Ntcs_util.sorted_bindings t.splices |> List.filter (fun (key, _) -> key lsr 32 = prefix)
  in
  List.iter
    (fun (key, (out : leg)) ->
      let close =
        Proto.make_header ~kind:Proto.Ivc_close
          ~src:(Nd_layer.my_addr (Commod.nd out.lg_commod))
          ~dst:(Nd_layer.my_addr (Commod.nd out.lg_commod)) (* matched by label, not address *)
          ~ivc:out.lg_label ~payload_len:0 ()
      in
      ignore
        (Nd_layer.send_frame out.lg_circuit close
           (Ntcs_wire.Packed.run_pack Proto.reason_codec "upstream circuit failed"));
      Ntcs_obs.Registry.incr (metrics t) "gw.cascade_closes";
      remove_splice_pair t key out)
    affected

(* The gateway process body. *)
let serve t () =
  (* Bind one ComMod per bridged network. *)
  t.commods <-
    List.map
      (fun net ->
        let name = Printf.sprintf "gw/%s@%d" t.gw_name net in
        let fixed = List.assoc_opt net t.prime_phys in
        match Commod.bind t.node ~name ~allowed_nets:[ net ] ?fixed ~register_name:false with
        | Ok c -> (net, c)
        | Error e -> failwith ("gateway bind failed: " ^ Errors.to_string e))
      t.nets;
  (* Prime gateways adopt their well-known addresses; others register with
     the naming service, carrying their topology as attributes. *)
  List.iter
    (fun (net, commod) ->
      (match List.assoc_opt net t.prime_addrs with
      | Some addr -> Nd_layer.set_my_addr (Commod.nd commod) addr
      | None ->
        let attrs =
          [
            (Router.attr_gateway, "yes");
            (Router.attr_net, string_of_int net);
            (Router.attr_spans, spans_csv t);
            ("service", "gateway/" ^ t.gw_name);
          ]
        in
        (match Commod.register commod ~attrs with
         | Ok _ -> ()
         | Error e ->
           trace t ~cat:"gw.register_fail"
             (Printf.sprintf "net %d: %s" net (Errors.to_string e))));
      (* Publish each ComMod's settled address: the R3 trace checker learns
         the set of gateway addresses from these events. *)
      trace t ~cat:"gw.addr" (Addr.to_string (Nd_layer.my_addr (Commod.nd commod))))
    t.commods;
  (* Each ComMod's ND readers forward their own frames and cascade their own
     dead circuits (a send only schedules a delivery); an open blocks, so it
     gets a worker process. *)
  List.iter
    (fun (net, commod) ->
      Ip_layer.set_gateway_handler (Commod.ip commod) (function
        | Ip_layer.Gw_frame (circuit, view) -> handle_frame t net circuit view
        | Ip_layer.Gw_down circuit -> handle_down t net circuit
        | Ip_layer.Gw_open (circuit, h, req) ->
          ignore
            (World.spawn (Node.world t.node) ~machine:(Node.machine t.node)
               ~name:(Printf.sprintf "%s/open-worker" t.gw_name) (fun () ->
                 handle_open t net commod circuit h req))))
    t.commods;
  trace t ~cat:"gw.up" (Printf.sprintf "bridging nets [%s]" (spans_csv t));
  (* The ComMods live as long as this process does: park it for good. *)
  ignore (Sched.Ivar.read (Sched.Ivar.create (Node.sched t.node) : unit Sched.Ivar.ivar))
