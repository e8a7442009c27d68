(* Conversion-mode selection (§5): "Messages between identical machines are
   simply byte-copied (image mode) while those between incompatible machines
   are transmitted in a converted representation (packed mode). The NTCS
   determines the correct mode based on the source and destination machine
   types, thus avoiding needless conversions."

   The decision lives in the IP layer, the lowest with the final
   destination in view: [Ip_layer.send] calls [choose] with the byte order
   the circuit's HELLO exchange learned. The application provides the
   pack/unpack functions. *)

type mode =
  | Image (* raw byte copy of the native memory image *)
  | Packed (* application-converted byte-stream transport format *)

let mode_to_string = function Image -> "image" | Packed -> "packed"

let mode_of_int = function 0 -> Some Image | 1 -> Some Packed | _ -> None

let mode_to_int = function Image -> 0 | Packed -> 1

(* Byte order is the representation difference the model keeps: image
   copies are safe exactly between machines of one order. *)
let choose ~(src : Endian.order) ~dst = if src = dst then Image else Packed

(* A payload as handed to the NTCS: both representations available lazily,
   the lowest layer forces exactly one. [image] must be the contiguous
   native memory image on the *source* machine; [packed] must be the
   application's transport format. *)
type payload = {
  p_image : unit -> Bytes.t;
  p_packed : unit -> Bytes.t;
}

let payload ~image ~packed = { p_image = image; p_packed = packed }

(* Raw payloads (already bytes, no structure): both modes are the identity,
   so they are safe between any machines. *)
let payload_raw data = { p_image = (fun () -> data); p_packed = (fun () -> data) }

let force mode p = match mode with Image -> p.p_image () | Packed -> p.p_packed ()
