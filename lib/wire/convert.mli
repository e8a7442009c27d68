(** Conversion-mode selection (§5).

    "Messages between identical machines are simply byte-copied (image mode)
    while those between incompatible machines are transmitted in a converted
    representation (packed mode). The NTCS determines the correct mode based
    on the source and destination machine types, thus avoiding needless
    conversions." The application supplies both representations lazily in a
    {!payload}; the lowest layer with visibility of the destination machine
    type forces exactly one. *)

type mode =
  | Image  (** raw byte copy of the native memory image *)
  | Packed  (** application-converted byte-stream transport format *)

val mode_to_string : mode -> string
val mode_of_int : int -> mode option
val mode_to_int : mode -> int

val choose : src:Endian.order -> dst:Endian.order -> mode
(** Image when the two machines share a byte order (the representation
    difference the model keeps), packed otherwise. *)

type payload
(** A message with both representations available lazily. *)

val payload : image:(unit -> Bytes.t) -> packed:(unit -> Bytes.t) -> payload
(** [image] must produce the contiguous native memory image on the source
    machine; [packed] the application's transport format. *)

val payload_raw : Bytes.t -> payload
(** Raw bytes: both modes are the identity, safe between any machines. *)

val force : mode -> payload -> Bytes.t
(** Produce the representation for [mode] — calling the corresponding
    conversion function exactly once. *)
