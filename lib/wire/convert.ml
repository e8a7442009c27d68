(* Conversion-mode selection (§5): "Messages between identical machines are
   simply byte-copied (image mode) while those between incompatible machines
   are transmitted in a converted representation (packed mode). The NTCS
   determines the correct mode based on the source and destination machine
   types, thus avoiding needless conversions."

   The decision lives at the lowest layer (the ND-layer calls [choose] with
   the machine type learned during the channel-open protocol); the
   application provides the pack/unpack functions. *)

type mode =
  | Image (* raw byte copy of the native memory image *)
  | Packed (* application-converted byte-stream transport format *)

let mode_to_string = function Image -> "image" | Packed -> "packed"

let mode_of_int = function 0 -> Some Image | 1 -> Some Packed | _ -> None

let mode_to_int = function Image -> 0 | Packed -> 1

(* Machine types, mirrored from the simulator but kept independent so the
   wire library stays free of simulator types. *)
type machine_repr = { repr_name : string; order : Endian.order }

let repr_compatible a b = a.order = b.order

let choose ~src ~dst = if repr_compatible src dst then Image else Packed

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
