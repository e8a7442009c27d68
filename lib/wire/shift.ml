(* Shift mode (§5.2): NTCS message headers are structs of four-byte integers
   "byte shifted sequentially into the final message, using standard high
   level shift and mask routines". Because values travel as an explicit byte
   sequence produced by shifts, no host byte order is ever consulted — the
   same code is correct on every machine, and it is cheap enough to run on
   *every* transfer regardless of destination.

   Words are unsigned 32-bit values carried in OCaml ints. *)

exception Shift_error of string

let word_mask = 0xFFFFFFFF

let check_word v =
  if v < 0 || v > word_mask then
    raise (Shift_error (Printf.sprintf "value %d does not fit an unsigned 32-bit word" v))

(* Write one word in place, most significant byte first, via shift/mask
   only. This is also what makes shift-mode headers patchable without
   re-encoding — the byte layout is machine-independent, so rewriting word
   [i] of a received frame is exactly the write the original sender would
   have produced. *)
let poke_word data off v =
  check_word v;
  if off < 0 || off + 4 > Bytes.length data then
    raise (Shift_error (Printf.sprintf "poke at offset %d outside %d-byte buffer" off
                          (Bytes.length data)));
  Bytes.set data off (Char.chr ((v lsr 24) land 0xFF));
  Bytes.set data (off + 1) (Char.chr ((v lsr 16) land 0xFF));
  Bytes.set data (off + 2) (Char.chr ((v lsr 8) land 0xFF));
  Bytes.set data (off + 3) (Char.chr (v land 0xFF))

let get_word data off =
  if off < 0 || off + 4 > Bytes.length data then raise (Shift_error "truncated word");
  (Char.code (Bytes.get data off) lsl 24)
  lor (Char.code (Bytes.get data (off + 1)) lsl 16)
  lor (Char.code (Bytes.get data (off + 2)) lsl 8)
  lor Char.code (Bytes.get data (off + 3))
