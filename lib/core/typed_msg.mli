(** Typed messaging sugar over the byte-level ComMod interface.

    The §5.1 contract: the application describes each message as a
    contiguous structure and supplies pack/unpack conversion functions; the
    NTCS decides per message whether to byte-copy the native image or apply
    the conversion. Describing the structure once as a
    {!Ntcs_wire.Layout.t} yields both representations (packed via
    Schlegel's generator). *)

open Ntcs_wire

module type MSG = sig
  type t

  val app_tag : int

  val layout : Layout.t
  (** The message structure definition. *)

  val to_values : t -> Layout.value list

  val of_values : Layout.value list -> t
  (** May raise [Invalid_argument]/[Failure] on shape mismatch; surfaced as
      [Bad_message]. *)
end

val decode :
  (module MSG with type t = 'a) -> Commod.t -> Ali_layer.envelope -> ('a, Errors.t) result
(** Trusts the header's mode flag: image data is reinterpreted with the
    receiver's native layout — safe precisely because the NTCS only chose
    image mode when the representations agree. *)

val send :
  (module MSG with type t = 'a) -> Commod.t -> dst:Addr.t -> 'a -> (unit, Errors.t) result
