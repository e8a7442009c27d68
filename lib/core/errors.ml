(* NTCS error vocabulary, as surfaced at the application interface. The
   ALI-layer "tailors the error returns" (§2.4): lower layers produce the
   mechanical variants; the veneer maps them onto what an application can act
   on. *)

type t =
  | Unknown_name (* naming service has no such logical name *)
  | Unknown_address (* UAdd cannot be resolved to a physical address *)
  | Destination_dead (* module gone and no replacement located (§3.5) *)
  | Circuit_failed (* virtual circuit broke and could not be reestablished *)
  | Unreachable (* no route, even through gateways *)
  | Timeout
  | Name_service_unavailable
  | Message_too_large
  | Bad_message of string (* malformed wire data *)
  | Not_registered (* primitive requires a completed registration *)
  | Internal of string

let to_string = function
  | Unknown_name -> "unknown-name"
  | Unknown_address -> "unknown-address"
  | Destination_dead -> "destination-dead"
  | Circuit_failed -> "circuit-failed"
  | Unreachable -> "unreachable"
  | Timeout -> "timeout"
  | Name_service_unavailable -> "name-service-unavailable"
  | Message_too_large -> "message-too-large"
  | Bad_message m -> "bad-message: " ^ m
  | Not_registered -> "not-registered"
  | Internal m -> "internal: " ^ m

(* The retry classification, consumed by the LCM/NSP retry policy and
   exposed through the ALI so applications can make the same call we do.
   Retryable conditions may clear on their own (a circuit broke, a timeout
   elapsed, the name service was briefly unreachable), so retrying with
   backoff is reasonable. The rest cannot succeed on a retry: either the
   destination itself is the problem (no such name, no such address, module
   gone with no replacement, message cannot fit) or the caller is wrong. *)
let retryable = function
  | Timeout | Circuit_failed | Unreachable | Name_service_unavailable -> true
  | Unknown_name | Unknown_address | Destination_dead | Message_too_large | Bad_message _
  | Not_registered | Internal _ ->
    false

(* Map a native IPCS error into the NTCS vocabulary. *)
let of_ipcs (e : Ntcs_ipcs.Ipcs_error.t) =
  match e with
  | Ntcs_ipcs.Ipcs_error.Refused -> Circuit_failed
  | Ntcs_ipcs.Ipcs_error.Unreachable -> Unreachable
  | Ntcs_ipcs.Ipcs_error.Closed -> Circuit_failed
  | Ntcs_ipcs.Ipcs_error.Timeout -> Timeout
  | Ntcs_ipcs.Ipcs_error.Queue_full -> Circuit_failed
  | Ntcs_ipcs.Ipcs_error.No_such_host -> Unknown_address
  | Ntcs_ipcs.Ipcs_error.Already_bound -> Internal "address already bound"
  | Ntcs_ipcs.Ipcs_error.Too_big -> Message_too_large
