(* The distributed network monitor (Wang [27]).

   Modules report LCM-level events (send/recv/fault) to a central monitor
   module as datagrams; the monitor aggregates per-kind and per-module
   counts plus a ring of recent records, and answers queries synchronously.

   The client side installs itself as the node's [on_event] hook. Because
   the hook fires from inside the LCM's own send path, its reporting rides
   the very ComMod being monitored — with monitoring suppressed for its own
   traffic, "to avoid the obvious infinite recursion" (§6.1). *)

open Ntcs
open Ntcs_wire

let monitor_name = "network-monitor"

let ring_capacity = 256

type server = {
  mutable total : int;
  by_kind : (string, int ref) Hashtbl.t;
  by_module : (string, int ref) Hashtbl.t;
  recent : Drts_proto.monitor_record Ntcs_util.Bqueue.t;
}

let bump tbl key =
  match Hashtbl.find_opt tbl key with
  | Some r -> incr r
  | None -> Hashtbl.replace tbl key (ref 1)

let stats_of server =
  let dump tbl =
    List.map (fun (k, r) -> (k, !r)) (Ntcs_util.sorted_bindings tbl)
  in
  {
    Drts_proto.ms_total = server.total;
    ms_by_kind = dump server.by_kind;
    ms_by_module = dump server.by_module;
  }

(* The monitor process body. *)
let serve node () =
  match Commod.bind node ~name:monitor_name ~attrs:[ ("service", "monitor") ] with
  | Error e -> failwith ("monitor bind failed: " ^ Errors.to_string e)
  | Ok commod ->
    let server =
      {
        total = 0;
        by_kind = Hashtbl.create 8;
        by_module = Hashtbl.create 16;
        recent = Ntcs_util.Bqueue.create ring_capacity;
      }
    in
    Lcm_layer.serve (Commod.lcm commod) ~app_tag:Drts_proto.monitor_tag (fun env ->
        if env.Lcm_layer.conv = 0 then begin
          (* A report datagram. *)
          (match
             Packed.run_unpack_result Drts_proto.monitor_record_codec env.Lcm_layer.data
           with
           | Error _ -> ()
           | Ok record ->
             server.total <- server.total + 1;
             bump server.by_kind record.Drts_proto.mr_kind;
             bump server.by_module record.Drts_proto.mr_module;
             Ntcs_util.Bqueue.push_evict server.recent record);
          None
        end
        else
          (* A query. *)
          match Packed.run_unpack_result Drts_proto.monitor_query_codec env.Lcm_layer.data with
          | Error _ -> None
          | Ok Drts_proto.Q_stats ->
            Some (Packed.run_pack Drts_proto.monitor_stats_codec (stats_of server))
          | Ok (Drts_proto.Q_recent n) ->
            Some
              (Packed.run_pack Drts_proto.monitor_recent_codec
                 (Ntcs_util.Bqueue.newest server.recent n)))

(* --- client --- *)

type client = {
  commod : Commod.t;
  mutable monitor : Addr.t option;
}

let create_client commod = { commod; monitor = None }

let report c kind detail =
  Lcm_layer.without_monitoring (Commod.lcm c.commod) (fun () ->
      let addr =
        match c.monitor with
        | Some a -> Ok a
        | None -> (
          match Ali_layer.locate c.commod monitor_name with
          | Ok a ->
            c.monitor <- Some a;
            Ok a
          | Error _ as e -> e)
      in
      match addr with
      | Error _ -> ()
      | Ok addr ->
        let node = Commod.node c.commod in
        let record =
          {
            Drts_proto.mr_module = Commod.name c.commod;
            mr_kind = kind;
            mr_detail = detail;
            mr_time = node.Node.hooks.Node.timestamp ();
          }
        in
        let data = Packed.run_pack Drts_proto.monitor_record_codec record in
        ignore
          (Ali_layer.send_dgram c.commod ~dst:addr ~app_tag:Drts_proto.monitor_tag
             (Convert.payload_raw data)))

(* Install as the node's monitor hook: every LCM event on this node's
   ComMods now flows to the monitor module. *)
let install c =
  let node = Commod.node c.commod in
  node.Node.hooks.Node.on_event <- Some (fun kind detail -> report c kind detail)

let query_stats commod ~monitor =
  Ali_layer.call commod ~dst:monitor ~app_tag:Drts_proto.monitor_tag
    Drts_proto.monitor_query_codec Drts_proto.monitor_stats_codec Drts_proto.Q_stats
