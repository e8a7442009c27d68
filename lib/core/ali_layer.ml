(* The Application Level Interface layer (§2.4): "It simply provides the
   application interface primitives from the Nucleus and NSP-Layer services,
   tailors the error returns, and performs parameter checking. It may be
   better described as a thin veneer."

   The three primitive classes of §1.3:
   - basic communication: [send], [send_sync], [send_dgram], [receive],
     [reply] (both asynchronous and synchronous forms);
   - resource location: [locate], [locate_attrs];
   - utilities: [my_address], [recursion_stats], [locate_entry]. *)

open Ntcs_wire

(* Re-export of the one shared envelope record (see [Std_if.envelope]):
   what [receive] returns is exactly what [reply] consumes — no conversion,
   no back-pointer. *)
type envelope = Std_if.envelope = {
  src : Addr.t;
  kind : [ `Data | `Dgram ];
  app_tag : int;
  mode : Convert.mode;
  src_order : Endian.order;
  data : Bytes.t;
  conv : int;
  seq : int;
  span : Ntcs_obs.Span.ctx;
}

let expects_reply (env : envelope) = env.conv <> 0

(* Application tags below this are free for applications; the naming service
   tag is above it. *)
let max_app_tag = 8999

let check_tag app_tag =
  if app_tag < 0 || app_tag > max_app_tag then Error (Errors.Internal "reserved app_tag")
  else Ok ()

let check_addr (addr : Addr.t) =
  (* Applications hold addresses obtained from the resource location
     primitives; those are always unique. A temporary address may only
     appear as a reply target (which goes through [reply]). *)
  if Addr.is_unique addr then Ok ()
  else Error (Errors.Internal "temporary address passed to a send primitive")

(* --- resource location primitives --- *)

let locate commod name =
  if String.length name = 0 then Error Errors.Unknown_name
  else Nsp_layer.lookup (Commod.nsp_exn commod) name

let locate_attrs commod attrs =
  match Nsp_layer.lookup_attrs (Commod.nsp_exn commod) attrs with
  | Ok entries -> Ok (List.map (fun e -> e.Ns_proto.e_addr) entries)
  | Error _ as e -> e

let locate_entry commod addr = Nsp_layer.resolve (Commod.nsp_exn commod) addr

(* --- basic communication primitives --- *)

(* Every primitive takes the same two optional parameters — [?app_tag] and
   [?timeout_us] — with the defaults documented on [Node.config]. *)

let send commod ~dst ?(app_tag = 0) ?timeout_us payload =
  match (check_tag app_tag, check_addr dst) with
  | Error e, _ | _, Error e -> Error e
  | Ok (), Ok () -> Lcm_layer.send (Commod.lcm commod) ~dst ~app_tag ?timeout_us payload

let send_sync commod ~dst ?(app_tag = 0) ?timeout_us payload =
  match (check_tag app_tag, check_addr dst) with
  | Error e, _ | _, Error e -> Error e
  | Ok (), Ok () -> Lcm_layer.send_sync (Commod.lcm commod) ~dst ~app_tag ?timeout_us payload

let send_dgram commod ~dst ?(app_tag = 0) ?timeout_us payload =
  match (check_tag app_tag, check_addr dst) with
  | Error e, _ | _, Error e -> Error e
  | Ok (), Ok () -> Lcm_layer.send_dgram (Commod.lcm commod) ~dst ~app_tag ?timeout_us payload

let receive ?timeout_us ?app_tag commod =
  (match app_tag with
   | Some tag when tag < 0 || tag > max_app_tag -> Error (Errors.Internal "reserved app_tag")
   | _ -> Ok ())
  |> function
  | Error _ as e -> e
  | Ok () -> Lcm_layer.recv ?timeout_us ?app_tag (Commod.lcm commod)

let reply commod (env : envelope) ?(app_tag = 0) ?timeout_us payload =
  if not (expects_reply env) then Error (Errors.Internal "sender does not expect a reply")
  else begin
    match check_tag app_tag with
    | Error _ as e -> e
    | Ok () -> Lcm_layer.reply (Commod.lcm commod) env ~app_tag ?timeout_us payload
  end

(* --- utilities --- *)

let my_address commod =
  match Commod.my_addr commod with
  | addr when Addr.is_unique addr -> Ok addr
  | _ -> Error Errors.Not_registered

let recursion_stats commod =
  let tr = Lcm_layer.recursion_tracker (Commod.lcm commod) in
  (Recursion.entries tr, Recursion.recursive_entries tr, Recursion.max_depth tr)
