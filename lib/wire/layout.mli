(** Image mode (§5.1): message structure definitions and native memory
    images.

    A message is "a contiguous block of memory"; its [layout] is the struct
    definition. {!encode} renders values into the native representation of a
    machine with a given byte order, and {!decode} reinterprets an image —
    trusting the bytes, exactly as a C struct cast would. Decoding an image
    with the wrong order yields garbled values, not an error: that hazard is
    why the NTCS chooses the conversion mode from the machine types, and it
    is deliberately reproducible here. *)

exception Layout_error of string
(** Shape errors (wrong value count/type, size mismatch) and values
    {!check} refuses — never representation errors. *)

type field =
  | F_i8
  | F_i16
  | F_i32
  | F_i64
  | F_char_array of int  (** fixed size, NUL padded *)

type t = field list
(** A structure definition: fields in memory order, no padding. *)

type value =
  | V_int of int
  | V_str of string

val check : field -> value -> string option
(** [None] when [decode] can return [value] for [field]: an integer in the
    field's signed range (any int for [F_i64]), or for [F_char_array n] a
    string of at most [n] bytes with no NUL. Otherwise why not. {!encode}
    and [Packed.of_layout] accept exactly these values, so both conversion
    modes deliver the same list. *)

val encode : order:Endian.order -> t -> value list -> Bytes.t
(** Render values into the native memory image; an [F_i64] holds the int64
    of its value, negatives sign-extended. Raises {!Layout_error} on a
    shape mismatch or a value {!check} refuses. *)

val decode : order:Endian.order -> t -> Bytes.t -> value list
(** Reinterpret a memory image. Raises {!Layout_error} only when the byte
    count does not match the layout. *)
