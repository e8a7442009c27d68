(* The communication module (§2.1): "Each application process must bind with
   a passive communication module (ComMod), which is the only aspect of the
   NTCS visible to the application. To the application, the ComMod is the
   NTCS."

   [bind] assembles the internal layers bottom-up — ND, IP, LCM, NSP — wires
   the recursive couplings (the IP-layer's routing oracle and the LCM-layer's
   fault oracle both go through the NSP-layer, which itself sends through
   the LCM-layer), preloads the well-known address tables (§3.4), registers
   the module's name, and upgrades the self-assigned TAdd to the UAdd the
   naming service returns.

   The Name Server itself binds with [bind_with_resolver], supplying a
   resolver backed by its own database instead of the NSP-layer: the naming
   service is an application on the Nucleus, used by the Nucleus. *)

type t = {
  node : Node.t;
  nd : Nd_layer.t;
  ip : Ip_layer.t;
  lcm : Lcm_layer.t;
  nsp : Nsp_layer.t option; (* absent on the Name Server's own ComMods *)
  resolver : Router.resolver;
  name : string;
  mutable registered : Addr.t option;
  mutable closed : bool;
}

let node t = t.node
let nd t = t.nd
let ip t = t.ip
let lcm t = t.lcm
let name t = t.name
let resolver t = t.resolver

let nsp_exn t =
  match t.nsp with
  | Some nsp -> nsp
  | None -> invalid_arg "Commod: this ComMod has no NSP-layer (name server?)"

let my_addr t = Nd_layer.my_addr t.nd

let resolver_of_nsp nsp =
  {
    Router.rv_resolve = (fun addr -> Nsp_layer.resolve nsp addr);
    rv_gateways = (fun () -> Nsp_layer.gateways nsp);
    rv_forward = (fun addr -> Nsp_layer.forward_query nsp addr);
  }

(* Assemble the layer stack. Must be called from within the owning process
   (the ND-layer spawns its helpers on the caller's machine and the exit
   hook attaches to the caller). *)
let assemble node ~name ?allowed_nets ?fixed ~resolver_of () =
  let nd = Nd_layer.create node ~owner:name ?allowed_nets ?fixed () in
  (* §3.4: well-known addresses into the ComMod address tables. *)
  List.iter
    (fun wk -> Nd_layer.cache_phys nd wk.Node.wk_addr wk.Node.wk_phys)
    node.Node.config.Node.well_known;
  let ip = Ip_layer.create node nd in
  let lcm = Lcm_layer.create node nd ip in
  let nsp, resolver = resolver_of lcm in
  Ip_layer.set_plan_oracle ip (fun dst -> Router.plan node nd resolver ~dst);
  Lcm_layer.set_fault_oracle lcm resolver.Router.rv_forward;
  { node; nd; ip; lcm; nsp; resolver; name; registered = None; closed = false }

(* The registration step of §3.2: send name + attributes + communication
   resources to the naming service, receive the UAdd, and replace the TAdd. *)
let register t ~attrs =
  match t.nsp with
  | None -> Error (Errors.Internal "cannot register: no NSP-layer")
  | Some nsp -> (
    let nets =
      match t.nd.Nd_layer.allowed_nets with
      | Some nets -> nets
      | None -> Node.my_nets t.node
    in
    match
      Nsp_layer.register nsp ~name:t.name
        ~phys:(Nd_layer.my_listen_addrs t.nd)
        ~nets ~order:(Node.my_order t.node) ~attrs
    with
    | Error _ as e -> e
    | Ok addr ->
      Nd_layer.set_my_addr t.nd addr;
      t.registered <- Some addr;
      Node.record t.node ~cat:"commod.registered" ~actor:t.name (Addr.to_string addr);
      Ok addr)

let bind ?(attrs = []) ?allowed_nets ?fixed ?(register_name = true) node ~name =
  let t =
    assemble node ~name ?allowed_nets ?fixed
      ~resolver_of:(fun lcm ->
        let nsp = Nsp_layer.create ~owner:name node lcm in
        (* Reconfiguration-driven invalidation (§3.5): relocations the LCM
           fault handler learns retire/splice the NSP lookup caches. *)
        Lcm_layer.set_on_relocate lcm (fun ~old ~fresh ->
            Nsp_layer.note_relocated nsp ~old_addr:old ~fresh);
        (Some nsp, resolver_of_nsp nsp))
      ()
  in
  if register_name then begin
    match register t ~attrs with
    | Error e -> Error e
    | Ok _ -> Ok t
  end
  else Ok t

let bind_with_resolver ?allowed_nets ?fixed node ~name ~resolver =
  assemble node ~name ?allowed_nets ?fixed ~resolver_of:(fun _ -> (None, resolver)) ()

let close t =
  if not t.closed then begin
    t.closed <- true;
    (match (t.registered, t.nsp) with
     | Some addr, Some nsp -> ignore (Nsp_layer.deregister nsp addr)
     | _ -> ());
    Lcm_layer.shutdown t.lcm
  end
