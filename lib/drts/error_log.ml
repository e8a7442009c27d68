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
    let lcm = Commod.lcm commod in
    let rec loop () =
      (match Lcm_layer.recv lcm with
       | Error _ -> ()
       | Ok env ->
         if env.Lcm_layer.app_tag = Drts_proto.error_log_tag then begin
           if env.Lcm_layer.conv = 0 then begin
             match
               Packed.run_unpack_result Drts_proto.log_record_codec env.Lcm_layer.data
             with
             | Error _ -> ()
             | Ok record ->
               let s = Drts_proto.severity_to_int record.Drts_proto.lr_severity in
               counts.(s) <- counts.(s) + 1;
               if Ntcs_util.Bqueue.is_full history then ignore (Ntcs_util.Bqueue.pop history);
               ignore (Ntcs_util.Bqueue.push history record)
           end
           else begin
             match
               Packed.run_unpack_result Drts_proto.log_query_codec env.Lcm_layer.data
             with
             | Error _ -> ()
             | Ok (Drts_proto.L_count min_sev) ->
               let total = ref 0 in
               for s = min_sev to 3 do
                 total := !total + counts.(s)
               done;
               let reply = Packed.run_pack Packed.int !total in
               ignore
                 (Lcm_layer.reply lcm env ~app_tag:Drts_proto.error_log_tag
                    (Convert.payload_raw reply))
             | Ok (Drts_proto.L_recent n) ->
               let records = ref [] in
               Ntcs_util.Bqueue.iter history (fun r -> records := r :: !records);
               let records = !records |> List.filteri (fun i _ -> i < n) |> List.rev in
               let reply = Packed.run_pack Drts_proto.log_recent_codec records in
               ignore
                 (Lcm_layer.reply lcm env ~app_tag:Drts_proto.error_log_tag
                    (Convert.payload_raw reply))
           end
         end);
      loop ()
    in
    loop ()

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
  match
    Ali_layer.send_sync commod ~dst:log_addr ~app_tag:Drts_proto.error_log_tag
      (Convert.payload_raw
         (Packed.run_pack Drts_proto.log_query_codec
            (Drts_proto.L_count (Drts_proto.severity_to_int min_severity))))
  with
  | Error _ as e -> e
  | Ok env -> (
    match Packed.run_unpack_result Packed.int env.Ali_layer.data with
    | Ok n -> Ok n
    | Error m -> Error (Errors.Bad_message m))

let query_recent commod ~log_addr ~n =
  match
    Ali_layer.send_sync commod ~dst:log_addr ~app_tag:Drts_proto.error_log_tag
      (Convert.payload_raw (Packed.run_pack Drts_proto.log_query_codec (Drts_proto.L_recent n)))
  with
  | Error _ as e -> e
  | Ok env -> (
    match Packed.run_unpack_result Drts_proto.log_recent_codec env.Ali_layer.data with
    | Ok records -> Ok records
    | Error m -> Error (Errors.Bad_message m))
