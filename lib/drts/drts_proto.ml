(* Wire formats for the distributed run-time support services. All packed
   mode, all ordinary application traffic as far as the NTCS is concerned. *)

open Ntcs_wire

(* Application tags. Must stay within the ALI-layer's application range. *)
let time_tag = 8101
let monitor_tag = 8102
let error_log_tag = 8103

(* --- time service --- *)

type time_request = { tq_client_time : int }

type time_reply = { tr_server_time : int }

let time_request_codec =
  Packed.iso
    ~fwd:(fun v -> { tq_client_time = v })
    ~bwd:(fun r -> r.tq_client_time)
    Packed.int

let time_reply_codec =
  Packed.iso
    ~fwd:(fun v -> { tr_server_time = v })
    ~bwd:(fun r -> r.tr_server_time)
    Packed.int

(* --- monitor --- *)

type monitor_record = {
  mr_module : string;
  mr_kind : string; (* "send", "recv", "fault", ... *)
  mr_detail : string;
  mr_time : int; (* corrected timestamp at the reporting module *)
}

let monitor_record_codec =
  Packed.iso
    ~fwd:(fun ((m, k), (d, t)) -> { mr_module = m; mr_kind = k; mr_detail = d; mr_time = t })
    ~bwd:(fun r -> ((r.mr_module, r.mr_kind), (r.mr_detail, r.mr_time)))
    (Packed.pair (Packed.pair Packed.string Packed.string) (Packed.pair Packed.string Packed.int))

type monitor_query = Q_stats | Q_recent of int

let monitor_query_codec =
  Packed.(
    tagged
      [
        case "sta" unit (fun () -> Q_stats) (function Q_stats -> Some () | _ -> None);
        case "rec" int (fun n -> Q_recent n) (function Q_recent n -> Some n | _ -> None);
      ])

type monitor_stats = {
  ms_total : int;
  ms_by_kind : (string * int) list;
  ms_by_module : (string * int) list;
}

let monitor_stats_codec =
  Packed.iso
    ~fwd:(fun (t, (k, m)) -> { ms_total = t; ms_by_kind = k; ms_by_module = m })
    ~bwd:(fun s -> (s.ms_total, (s.ms_by_kind, s.ms_by_module)))
    (Packed.pair Packed.int
       (Packed.pair
          (Packed.list (Packed.pair Packed.string Packed.int))
          (Packed.list (Packed.pair Packed.string Packed.int))))

let monitor_recent_codec = Packed.list monitor_record_codec

(* --- error log --- *)

type severity = Info | Warning | Error | Fatal

let severity_to_int = function Info -> 0 | Warning -> 1 | Error -> 2 | Fatal -> 3

(* A severity outside 0–3 is malformed data, not a Fatal record. *)
let severity_of_int = function
  | 0 -> Info
  | 1 -> Warning
  | 2 -> Error
  | 3 -> Fatal
  | s -> raise (Packed.Unpack_error (Printf.sprintf "unknown severity %d" s))

let severity_to_string = function
  | Info -> "info"
  | Warning -> "warning"
  | Error -> "error"
  | Fatal -> "fatal"

type log_record = {
  lr_module : string;
  lr_severity : severity;
  lr_message : string;
  lr_time : int;
}

let log_record_codec =
  Packed.iso
    ~fwd:(fun ((m, s), (msg, t)) ->
      { lr_module = m; lr_severity = severity_of_int s; lr_message = msg; lr_time = t })
    ~bwd:(fun r -> ((r.lr_module, severity_to_int r.lr_severity), (r.lr_message, r.lr_time)))
    (Packed.pair (Packed.pair Packed.string Packed.int) (Packed.pair Packed.string Packed.int))

type log_query = L_count of int (* min severity *) | L_recent of int

let log_query_codec =
  Packed.(
    tagged
      [
        case "cnt" int (fun s -> L_count s) (function L_count s -> Some s | _ -> None);
        case "rec" int (fun n -> L_recent n) (function L_recent n -> Some n | _ -> None);
      ])

let log_recent_codec = Packed.list log_record_codec
