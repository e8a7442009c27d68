(* Typed messaging sugar over the byte-level ComMod interface.

   The paper's contract (§5.1): the application describes each message as a
   contiguous structure and supplies pack/unpack conversion functions; the
   NTCS decides per message whether to byte-copy the native image or apply
   the conversion. Describing the structure once as a {!Ntcs_wire.Layout.t}
   gives both representations: the image encoder renders the native memory
   image for this machine, and the packed codec is generated from the same
   definition (Schlegel's generator, [22]).

   Decoding trusts the mode flag in the header: image-mode data is
   reinterpreted with the *receiver's* native layout — safe precisely
   because the NTCS only chose image mode when the representations agree. *)

open Ntcs_wire

module type MSG = sig
  type t

  val app_tag : int
  val layout : Layout.t
  val to_values : t -> Layout.value list
  val of_values : Layout.value list -> t
end

let payload (type a) (module M : MSG with type t = a) commod (v : a) : Convert.payload =
  let order = Node.my_order (Commod.node commod) in
  let values () = M.to_values v in
  Convert.payload
    ~image:(fun () -> Layout.encode ~order M.layout (values ()))
    ~packed:(fun () -> Packed.run_pack (Packed.of_layout M.layout) (values ()))

let decode (type a) (module M : MSG with type t = a) commod (env : Ali_layer.envelope) :
    (a, Errors.t) result =
  let my_order = Node.my_order (Commod.node commod) in
  match env.Ali_layer.mode with
  | Convert.Image -> (
    match Layout.decode ~order:my_order M.layout env.Ali_layer.data with
    | values -> (
      match M.of_values values with
      | v -> Ok v
      | exception (Invalid_argument m | Failure m) -> Error (Errors.Bad_message m))
    | exception Layout.Layout_error m -> Error (Errors.Bad_message m))
  | Convert.Packed -> (
    match Packed.run_unpack (Packed.of_layout M.layout) env.Ali_layer.data with
    | values -> (
      match M.of_values values with
      | v -> Ok v
      | exception (Invalid_argument m | Failure m) -> Error (Errors.Bad_message m))
    | exception Packed.Unpack_error m -> Error (Errors.Bad_message m))

let send (type a) (module M : MSG with type t = a) commod ~dst (v : a) =
  Ali_layer.send commod ~dst ~app_tag:M.app_tag (payload (module M) commod v)
