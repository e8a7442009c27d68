(* Byte-order primitives. Only image mode (§5.1) ever uses these with a
   *machine-dependent* order; shift mode is built from shift/mask operations
   precisely so that it never needs to know the host order. *)

type order = Le | Be

let order_to_string = function Le -> "le" | Be -> "be"

let set_u16 ~order b off v =
  match order with
  | Le -> Bytes.set_uint16_le b off (v land 0xFFFF)
  | Be -> Bytes.set_uint16_be b off (v land 0xFFFF)

let set_u32 ~order b off v =
  match order with
  | Le ->
    set_u16 ~order b off v;
    set_u16 ~order b (off + 2) (v lsr 16)
  | Be ->
    set_u16 ~order b off (v lsr 16);
    set_u16 ~order b (off + 2) v

(* [asr]: the top word carries the sign, so a negative int is written as the
   two's-complement int64 of the same value. *)
let set_u64 ~order b off v =
  match order with
  | Le ->
    set_u32 ~order b off v;
    set_u32 ~order b (off + 4) (v asr 32)
  | Be ->
    set_u32 ~order b off (v asr 32);
    set_u32 ~order b (off + 4) v

let get_u8 b off = Char.code (Bytes.get b off)

let get_u16 ~order b off =
  match order with
  | Le -> get_u8 b off lor (get_u8 b (off + 1) lsl 8)
  | Be -> (get_u8 b off lsl 8) lor get_u8 b (off + 1)

let get_u32 ~order b off =
  match order with
  | Le -> get_u16 ~order b off lor (get_u16 ~order b (off + 2) lsl 16)
  | Be -> (get_u16 ~order b off lsl 16) lor get_u16 ~order b (off + 2)

let get_u64 ~order b off =
  match order with
  | Le -> get_u32 ~order b off lor (get_u32 ~order b (off + 4) lsl 32)
  | Be -> (get_u32 ~order b off lsl 32) lor get_u32 ~order b (off + 4)

(* Sign-extend a 32-bit unsigned value into an OCaml int. *)
let sign32 v = if v land 0x80000000 <> 0 then v - (1 lsl 32) else v

let sign16 v = if v land 0x8000 <> 0 then v - (1 lsl 16) else v

let sign8 v = if v land 0x80 <> 0 then v - 256 else v
