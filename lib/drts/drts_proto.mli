(** Wire formats for the distributed run-time support services — ordinary
    packed-mode application traffic as far as the NTCS is concerned. *)

open Ntcs_wire

val time_tag : int
val monitor_tag : int
val error_log_tag : int

(** {1 Time service} *)

type time_request = { tq_client_time : int }
type time_reply = { tr_server_time : int }

val time_request_codec : time_request Packed.t
val time_reply_codec : time_reply Packed.t

(** {1 Monitor} *)

type monitor_record = {
  mr_module : string;
  mr_kind : string;  (** "send", "recv", "fault", … *)
  mr_detail : string;
  mr_time : int;  (** corrected timestamp at the reporting module *)
}

val monitor_record_codec : monitor_record Packed.t

type monitor_query = Q_stats | Q_recent of int

val monitor_query_codec : monitor_query Packed.t

type monitor_stats = {
  ms_total : int;
  ms_by_kind : (string * int) list;
  ms_by_module : (string * int) list;
}

val monitor_stats_codec : monitor_stats Packed.t
val monitor_recent_codec : monitor_record list Packed.t

(** {1 Error log} *)

type severity = Info | Warning | Error | Fatal

val severity_to_int : severity -> int
val severity_to_string : severity -> string

type log_record = {
  lr_module : string;
  lr_severity : severity;
  lr_message : string;
  lr_time : int;
}

val log_record_codec : log_record Packed.t

type log_query = L_count of int | L_recent of int

val log_query_codec : log_query Packed.t
val log_recent_codec : log_record list Packed.t
