(** Distributed error logging (§6.2): modules report classified conditions;
    the log server keeps a bounded history and per-severity counts — the
    "running table of errors [that] could be maintained and monitored". *)

open Ntcs

val log_name : string

val serve : Node.t -> unit -> unit
(** Log-server process body. *)

type client

val create_client : Commod.t -> client

val log : client -> Drts_proto.severity -> string -> unit
(** Fire-and-forget report (datagram, monitoring suppressed). *)

val query_count :
  Commod.t -> log_addr:Addr.t -> min_severity:Drts_proto.severity -> (int, Errors.t) result

val query_recent :
  Commod.t -> log_addr:Addr.t -> n:int -> (Drts_proto.log_record list, Errors.t) result
