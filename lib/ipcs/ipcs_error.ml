(* Error vocabulary of the native IPC backends. The ND-layer maps these onto
   NTCS errors; per the paper there is no recovery down here — notification
   is simply passed upward. *)

type t =
  | Refused (* nothing listening at the address *)
  | Unreachable (* no usable common network, partition, or machine down *)
  | Closed (* circuit closed by peer or underlying failure *)
  | Timeout
  | Queue_full (* MBX bounded mailbox overflow *)
  | No_such_host
  | Already_bound
  | Too_big (* exceeds the backend's message size limit *)

let to_string = function
  | Refused -> "refused"
  | Unreachable -> "unreachable"
  | Closed -> "closed"
  | Timeout -> "timeout"
  | Queue_full -> "queue-full"
  | No_such_host -> "no-such-host"
  | Already_bound -> "already-bound"
  | Too_big -> "too-big"
