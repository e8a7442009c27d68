(* Distributed error logging service (§1, §6.2): modules report classified
   conditions; the log server keeps a bounded history and per-severity
   counts. One answer to the paper's observation that "a running table of
   errors could be maintained and monitored". *)

open Ntcs
open Ntcs_wire

let log_name = "error-log"

let history_capacity = 512

let serve node () =
  match Commod.bind node ~name:log_name ~attrs:[ ("service", "error-log") ] with
  | Error e -> failwith ("error-log bind failed: " ^ Errors.to_string e)
  | Ok commod ->
    let history = Ntcs_util.Bqueue.create history_capacity in
    let counts = Array.make 4 0 in
    Lcm_layer.serve (Commod.lcm commod) ~app_tag:Drts_proto.error_log_tag (fun env ->
        if env.Lcm_layer.conv = 0 then begin
          (match Packed.run_unpack_result Drts_proto.log_record_codec env.Lcm_layer.data with
           | Error _ -> ()
           | Ok record ->
             let s = Drts_proto.severity_to_int record.Drts_proto.lr_severity in
             counts.(s) <- counts.(s) + 1;
             Ntcs_util.Bqueue.push_evict history record);
          None
        end
        else
          match Packed.run_unpack_result Drts_proto.log_query_codec env.Lcm_layer.data with
          | Error _ -> None
          | Ok (Drts_proto.L_count min_sev) ->
            let total = ref 0 in
            for s = min_sev to 3 do
              total := !total + counts.(s)
            done;
            Some (Packed.run_pack Packed.int !total)
          | Ok (Drts_proto.L_recent n) ->
            Some
              (Packed.run_pack Drts_proto.log_recent_codec (Ntcs_util.Bqueue.newest history n)))

(* --- client --- *)

type client = { commod : Commod.t; mutable log_addr : Addr.t option }

let create_client commod = { commod; log_addr = None }

let log c severity message =
  Lcm_layer.without_monitoring (Commod.lcm c.commod) (fun () ->
      let addr =
        match c.log_addr with
        | Some a -> Ok a
        | None -> (
          match Ali_layer.locate c.commod log_name with
          | Ok a ->
            c.log_addr <- Some a;
            Ok a
          | Error _ as e -> e)
      in
      match addr with
      | Error _ -> ()
      | Ok addr ->
        let node = Commod.node c.commod in
        let record =
          {
            Drts_proto.lr_module = Commod.name c.commod;
            lr_severity = severity;
            lr_message = message;
            lr_time = node.Node.hooks.Node.timestamp ();
          }
        in
        ignore
          (Ali_layer.send_dgram c.commod ~dst:addr ~app_tag:Drts_proto.error_log_tag
             (Convert.payload_raw (Packed.run_pack Drts_proto.log_record_codec record))))

let query_count commod ~log_addr ~min_severity =
  Ali_layer.call commod ~dst:log_addr ~app_tag:Drts_proto.error_log_tag Drts_proto.log_query_codec
    Packed.int
    (Drts_proto.L_count (Drts_proto.severity_to_int min_severity))

let query_recent commod ~log_addr ~n =
  Ali_layer.call commod ~dst:log_addr ~app_tag:Drts_proto.error_log_tag Drts_proto.log_query_codec
    Drts_proto.log_recent_codec (Drts_proto.L_recent n)
