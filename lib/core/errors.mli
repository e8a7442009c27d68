(** NTCS error vocabulary, as surfaced at the application interface.

    The ALI-layer "tailors the error returns" (§2.4): lower layers produce
    the mechanical variants; the veneer maps them onto conditions an
    application can act on. *)

type t =
  | Unknown_name  (** naming service has no such logical name *)
  | Unknown_address  (** UAdd cannot be resolved to a physical address *)
  | Destination_dead  (** module gone and no replacement located (§3.5) *)
  | Circuit_failed  (** virtual circuit broke and could not be reestablished *)
  | Unreachable  (** no route, even through gateways *)
  | Timeout
  | Name_service_unavailable
  | Message_too_large
  | Bad_message of string  (** malformed wire data *)
  | Not_registered  (** primitive requires a completed registration *)
  | Internal of string

val to_string : t -> string

val retryable : t -> bool
(** Whether the condition may clear on its own ([Timeout],
    [Circuit_failed], [Unreachable], [Name_service_unavailable]) and is
    worth retrying with backoff. This is the single classification the LCM
    and NSP retry machinery consults; applications should use it too. *)

val of_ipcs : Ntcs_ipcs.Ipcs_error.t -> t
(** Map a native IPCS error into the NTCS vocabulary. The mapping is total:
    every [Ipcs_error] variant has an NTCS rendering. *)
