(* Image mode (§5.1): a message is "a contiguous block of memory" and image
   transfer is a raw byte copy of that memory. We make this concrete by
   giving each message a *layout* — the struct definition — and rendering
   values into the native representation of a given machine (byte order).

   The crucial property reproduced here: an image encoded on one machine and
   decoded with the layout rules of an incompatible machine yields garbled
   multi-byte values. Nothing in the decode can detect this — exactly why
   the NTCS must choose the mode from the (source, destination) machine
   types rather than from the data. *)

exception Layout_error of string

type field =
  | F_i8
  | F_i16
  | F_i32
  | F_i64
  | F_char_array of int (* fixed size, NUL padded *)

type t = field list

type value =
  | V_int of int
  | V_str of string

let field_size = function
  | F_i8 -> 1
  | F_i16 -> 2
  | F_i32 -> 4
  | F_i64 -> 8
  | F_char_array n -> n

let size layout = List.fold_left (fun acc f -> acc + field_size f) 0 layout

let field_to_string = function
  | F_i8 -> "i8"
  | F_i16 -> "i16"
  | F_i32 -> "i32"
  | F_i64 -> "i64"
  | F_char_array n -> Printf.sprintf "char[%d]" n

(* The values [decode] can return for [field]: integers in the field's
   signed range (an i64 field holds any OCaml int), strings of at most [n]
   bytes with no NUL. Both conversion modes accept exactly these, so a
   receiver decodes the same list whichever mode the NTCS picked. *)
let check field value =
  let half = 1 lsl ((8 * field_size field) - 1) in
  match (field, value) with
  | (F_i8 | F_i16 | F_i32), V_int v when v < -half || v >= half ->
    Some (Printf.sprintf "%d outside %s" v (field_to_string field))
  | (F_i8 | F_i16 | F_i32 | F_i64), V_int _ -> None
  | F_char_array n, V_str s when String.length s > n ->
    Some (Printf.sprintf "string of %d exceeds char[%d]" (String.length s) n)
  | F_char_array _, V_str s when String.contains s '\000' -> Some "NUL inside a char array"
  | F_char_array _, V_str _ -> None
  | (F_i8 | F_i16 | F_i32 | F_i64), V_str _ -> Some "expected integer value"
  | F_char_array _, V_int _ -> Some "expected string value"

(* Render values into the native memory image for a machine with byte order
   [order]: one zeroed block of [size layout] bytes, so char arrays come
   NUL padded. Raises [Layout_error] on shape mismatch or a value [check]
   refuses. *)
let encode ~order layout values =
  let image = Bytes.make (size layout) '\000' in
  let rec go off fields values =
    match (fields, values) with
    | [], [] -> image
    | field :: fields, value :: values ->
      (match check field value with Some msg -> raise (Layout_error msg) | None -> ());
      (match (field, value) with
       | F_i8, V_int v -> Bytes.set image off (Char.unsafe_chr (v land 0xFF))
       | F_i16, V_int v -> Endian.set_u16 ~order image off v
       | F_i32, V_int v -> Endian.set_u32 ~order image off v
       | F_i64, V_int v -> Endian.set_u64 ~order image off v
       | F_char_array _, V_str s -> Bytes.blit_string s 0 image off (String.length s)
       | (F_i8 | F_i16 | F_i32 | F_i64), V_str _ | F_char_array _, V_int _ ->
         assert false (* refused by [check] *));
      go (off + field_size field) fields values
    | [], _ :: _ -> raise (Layout_error "too many values for layout")
    | _ :: _, [] -> raise (Layout_error "too few values for layout")
  in
  go 0 layout values

(* The first NUL in [data] from [i] on, or [stop]: where a char array's
   string ends. *)
let rec nul_at data i stop =
  if i = stop || Bytes.get data i = '\000' then i else nul_at data (i + 1) stop

(* The fields of [layout] read from [data] at [off] on, with no closure
   per call. *)
let[@tail_mod_cons] rec decode_from ~order data off = function
  | [] -> []
  | field :: fields ->
    let v =
      match field with
      | F_i8 -> V_int (Endian.sign8 (Endian.get_u8 data off))
      | F_i16 -> V_int (Endian.sign16 (Endian.get_u16 ~order data off))
      | F_i32 -> V_int (Endian.sign32 (Endian.get_u32 ~order data off))
      | F_i64 -> V_int (Endian.get_u64 ~order data off)
      | F_char_array n -> V_str (Bytes.sub_string data off (nul_at data off (off + n) - off))
    in
    v :: decode_from ~order data (off + field_size field) fields

(* Reinterpret a memory image according to [layout] with byte order [order].
   This is what the *destination* machine does with an image-mode message: it
   trusts the bytes. Decoding with the wrong order gives wrong values, not an
   error — by design. *)
let decode ~order layout data =
  if Bytes.length data <> size layout then
    raise
      (Layout_error
         (Printf.sprintf "image size %d does not match layout size %d" (Bytes.length data)
            (size layout)));
  decode_from ~order data 0 layout
