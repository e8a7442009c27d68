(** Shift mode (§5.2): NTCS headers as sequences of four-byte integers,
    moved byte-by-byte with shift/mask operations.

    Because the byte sequence is produced by explicit shifts, no host byte
    order is ever consulted: the same code is correct on every machine, and
    it is cheap enough to use on every transfer regardless of destination.
    Words are unsigned 32-bit values carried in OCaml [int]s. *)

exception Shift_error of string

val get_word : Bytes.t -> int -> int
(** Read one word at a byte offset. Raises {!Shift_error} when the four
    bytes at [off] are not all inside the buffer. *)

val poke_word : Bytes.t -> int -> int -> unit
(** [poke_word data off v] overwrites the word at byte offset [off] in
    place, most significant byte first. Because shift-mode byte layout is
    machine-independent (§5.2), patching a word of a received frame is
    byte-identical to re-encoding it. Raises {!Shift_error} when the value
    does not fit 32 bits or the offset is out of range. *)
