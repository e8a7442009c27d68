(* The distributed precision time service (Wang [27], §1.3, §6.1).

   Machines in the world run drifting clocks. The time server publishes its
   own machine's clock as the reference; correctors on other machines
   estimate their offset with a Cristian-style exchange (offset =
   server_time + rtt/2 - local_arrival_time) and install a corrected
   [timestamp] hook into the node.

   Faithful to §6.1, the corrector communicates through the *same* ComMod
   whose sends it is timestamping (with monitoring suppressed for its own
   traffic): a monitored send's timestamp may therefore recursively invoke
   the resource-location primitives and another send/receive pair — the
   scenario the paper walks through. *)

open Ntcs_sim
open Ntcs
open Ntcs_wire

let server_name = "time-server"

(* The server process body: answer every request with our local time. *)
let serve node () =
  match Commod.bind node ~name:server_name ~attrs:[ ("service", "time") ] with
  | Error e -> failwith ("time-server bind failed: " ^ Errors.to_string e)
  | Ok commod ->
    let lcm = Commod.lcm commod in
    let rec loop () =
      match Lcm_layer.recv lcm with
      | Error _ -> loop ()
      | Ok env ->
        if env.Lcm_layer.app_tag = Drts_proto.time_tag && env.Lcm_layer.conv <> 0
        then begin
          let reply =
            Packed.run_pack Drts_proto.time_reply_codec
              { Drts_proto.tr_server_time = Node.now node |> fun now ->
                Machine.local_time (Node.machine node) ~now_us:now }
          in
          ignore
            (Lcm_layer.reply lcm env ~app_tag:Drts_proto.time_tag (Convert.payload_raw reply))
        end;
        loop ()
    in
    loop ()

(* --- corrector --- *)

type corrector = {
  commod : Commod.t;
  mutable server : Addr.t option;
  mutable offset_us : int; (* corrected = local + offset *)
  mutable last_sync_us : int; (* in virtual (global) time *)
  sync_interval_us : int;
}

let create ?(sync_interval_us = 30_000_000) commod =
  {
    commod;
    server = None;
    offset_us = 0;
    last_sync_us = min_int / 2;
    sync_interval_us;
  }

let local_now c =
  let node = Commod.node c.commod in
  Machine.local_time (Node.machine node) ~now_us:(Node.now node)

(* One synchronisation exchange. Runs through the ComMod (recursively, when
   triggered from inside a send) with monitoring suppressed. *)
let sync c =
  let node = Commod.node c.commod in
  let failed e =
    Ntcs_obs.Registry.incr (Node.metrics node) "time.sync_failures";
    Error e
  in
  Lcm_layer.without_monitoring (Commod.lcm c.commod) (fun () ->
      let server =
        match c.server with
        | Some s -> Ok s
        | None -> (
          (* "If this is the first such communication, it will call the
             resource location primitives to locate the module" (§6.1). *)
          match Ali_layer.locate c.commod server_name with
          | Ok addr ->
            c.server <- Some addr;
            Ok addr
          | Error _ as e -> e)
      in
      match server with
      | Error e -> failed e
      | Ok addr -> (
        let t_send = local_now c in
        let req =
          Packed.run_pack Drts_proto.time_request_codec { Drts_proto.tq_client_time = t_send }
        in
        match
          Ali_layer.send_sync c.commod ~dst:addr ~app_tag:Drts_proto.time_tag
            (Convert.payload_raw req)
        with
        | Error e -> failed e
        | Ok env -> (
          match
            Packed.run_unpack_result Drts_proto.time_reply_codec env.Ali_layer.data
          with
          | Error m -> failed (Errors.Bad_message m)
          | Ok reply ->
            let t_arrive = local_now c in
            let rtt = t_arrive - t_send in
            let estimate = reply.Drts_proto.tr_server_time + (rtt / 2) in
            c.offset_us <- estimate - t_arrive;
            c.last_sync_us <- Node.now node;
            Ntcs_obs.Registry.incr (Node.metrics node) "time.syncs";
            Ok c.offset_us)))

(* Corrected timestamp; resynchronises first when the estimate is stale —
   this is the recursive path of §6.1. *)
let now c =
  let node = Commod.node c.commod in
  if Node.now node - c.last_sync_us > c.sync_interval_us then ignore (sync c);
  local_now c + c.offset_us

(* Install as the node's timestamp hook, so LCM monitor records use
   corrected time. *)
let install c =
  let node = Commod.node c.commod in
  node.Node.hooks.Node.timestamp <- (fun () -> now c)

(* True clock error of this corrector's machine against the global clock,
   for experiment evaluation only (a real system could never observe it). *)
let true_error_us c =
  let node = Commod.node c.commod in
  let corrected = local_now c + c.offset_us in
  corrected - Node.now node
