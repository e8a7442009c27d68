(** The Application Level Interface layer (§2.4): "It simply provides the
    application interface primitives from the Nucleus and NSP-Layer
    services, tailors the error returns, and performs parameter checking.
    It may be better described as a thin veneer."

    The three primitive classes of §1.3: basic communication, resource
    location, utilities. *)

open Ntcs_wire

type envelope = Std_if.envelope = {
  src : Addr.t;  (** who sent it (reply here) *)
  kind : [ `Data | `Dgram ];
  app_tag : int;
  mode : Convert.mode;  (** how the payload was rendered (image/packed) *)
  src_order : Endian.order;
  data : Bytes.t;
  conv : int;  (** nonzero: the sender awaits a reply *)
  seq : int;  (** sender's LCM sequence number *)
  span : Ntcs_obs.Span.ctx;
      (** causal identity of the logical send that produced this message *)
}
(** Re-export of the one shared envelope record — see {!Std_if.envelope}.
    What {!receive} returns is exactly what {!reply} consumes. *)

val expects_reply : envelope -> bool
(** [true] when the sender is blocked in a synchronous send awaiting a
    {!reply} (i.e. [env.conv <> 0]). *)

(** {1 Resource location primitives} *)

val locate : Commod.t -> string -> (Addr.t, Errors.t) result
(** Logical name → address. Needed once per name: relocation is transparent
    afterwards (§1.3). *)

val locate_attrs : Commod.t -> (string * string) list -> (Addr.t list, Errors.t) result
(** Attribute-based location: addresses of all matching live modules. *)

val locate_entry : Commod.t -> Addr.t -> (Ns_proto.entry, Errors.t) result

(** {1 Basic communication primitives}

    Every primitive takes the same two optional parameters: [?app_tag]
    (default 0) typing the message for tag-filtered receives, and
    [?timeout_us] (default [Node.default_timeout_us] — documented
    there, once) bounding the whole operation, retry backoff included. *)

val send :
  Commod.t ->
  dst:Addr.t ->
  ?app_tag:int ->
  ?timeout_us:int ->
  Convert.payload ->
  (unit, Errors.t) result
(** Asynchronous send. *)

val send_sync :
  Commod.t ->
  dst:Addr.t ->
  ?app_tag:int ->
  ?timeout_us:int ->
  Convert.payload ->
  (envelope, Errors.t) result
(** Synchronous send/receive/reply. *)

val call :
  Commod.t ->
  dst:Addr.t ->
  ?app_tag:int ->
  ?timeout_us:int ->
  'q Packed.t ->
  'r Packed.t ->
  'q ->
  ('r, Errors.t) result
(** {!send_sync} with the request and reply in packed mode: the same
    parameter check, then {!Lcm_layer.call}. A reply the codec refuses is
    [Bad_message]. *)

val send_dgram :
  Commod.t ->
  dst:Addr.t ->
  ?app_tag:int ->
  ?timeout_us:int ->
  Convert.payload ->
  (unit, Errors.t) result
(** Connectionless (no recovery). *)

val receive : ?timeout_us:int -> ?app_tag:int -> Commod.t -> (envelope, Errors.t) result
(** Next message for this module; with [app_tag], only messages of that
    type (others are held for later receives). *)

val reply :
  Commod.t ->
  envelope ->
  ?app_tag:int ->
  ?timeout_us:int ->
  Convert.payload ->
  (unit, Errors.t) result
(** Answer a synchronous send. Error when the sender expects no reply. *)

(** {1 Utilities} *)

val my_address : Commod.t -> (Addr.t, Errors.t) result
(** [Error Not_registered] until registration has completed. *)

val recursion_stats : Commod.t -> int * int * int
(** [(entries, recursive_entries, max_depth)] — the §6.1 measures. *)
