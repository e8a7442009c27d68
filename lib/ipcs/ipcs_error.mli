(** Error vocabulary of the native IPC backends. Per the paper, no recovery
    happens at this level — "notification is simply passed upward". *)

type t =
  | Refused  (** nothing listening at the address *)
  | Unreachable  (** no usable common network, partition, or machine down *)
  | Closed  (** circuit closed by peer or underlying failure *)
  | Timeout
  | Queue_full  (** MBX bounded mailbox overflow *)
  | No_such_host
  | Already_bound
  | Too_big  (** exceeds the backend's message size limit *)

val to_string : t -> string
