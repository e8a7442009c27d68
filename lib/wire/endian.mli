(** Byte-order primitives.

    Only image mode (§5.1 of the paper) uses these with a machine-dependent
    order; shift mode is built purely from shift/mask operations so it never
    consults a byte order. *)

type order = Le | Be

val order_to_string : order -> string

(** {1 Writers} — write into [bytes] at an offset in the given order.
    Values are masked to the field width; [set_u64] writes a negative int
    sign-extended, as the int64 of the same value. *)

val set_u16 : order:order -> Bytes.t -> int -> int -> unit
val set_u32 : order:order -> Bytes.t -> int -> int -> unit
val set_u64 : order:order -> Bytes.t -> int -> int -> unit

(** {1 Readers} — read from [bytes] at an offset. Unsigned results. *)

val get_u8 : Bytes.t -> int -> int
val get_u16 : order:order -> Bytes.t -> int -> int
val get_u32 : order:order -> Bytes.t -> int -> int
val get_u64 : order:order -> Bytes.t -> int -> int

(** {1 Sign extension} — reinterpret an unsigned field as two's-complement. *)

val sign8 : int -> int
val sign16 : int -> int
val sign32 : int -> int
