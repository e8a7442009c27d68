(* Size-classed buffer pool (no frame path allocates from it; pool.mli
   says why it stays).

   A freelist amortises a steady state that allocates one buffer per
   operation and frees it as soon as the consumer is done. Buffers come in
   power-of-two size classes; a request is served from the smallest class
   that fits (callers carry an explicit length, so an oversized buffer is
   harmless). Requests beyond the largest class are plain allocations —
   caching jumbo buffers would just pin memory.

   The release side is guarded: a buffer that is already on its freelist
   or has a size no [alloc] ever produced is dropped instead of being
   spliced into the freelist — a double release that *is* accepted aliases
   two future hand-outs onto one buffer and corrupts frames while every
   test stays green. *)

type t = Bytes.t list ref array (* freelist per size class *)

(* Classes: 64 B .. 64 KiB in powers of two — 11 freelists. *)
let min_shift = 6
let max_shift = 16
let num_classes = max_shift - min_shift + 1
let max_pooled = 1 lsl max_shift

(* Smallest class index whose size covers [n]. *)
let class_of n =
  let rec go shift = if 1 lsl shift >= n then shift - min_shift else go (shift + 1) in
  if n <= 1 lsl min_shift then 0 else go (min_shift + 1)

let create () = Array.init num_classes (fun _ -> ref [])

let alloc t n =
  if n > max_pooled then Bytes.create n
  else begin
    let cls = t.(class_of n) in
    match !cls with
    | b :: rest ->
      cls := rest;
      b
    | [] -> Bytes.create (1 lsl (class_of n + min_shift))
  end

let release t b =
  let n = Bytes.length b in
  (* Only class sizes are pooled; anything else is not ours to recycle. *)
  if n >= 1 lsl min_shift && n <= max_pooled && n land (n - 1) = 0 then begin
    let cls = t.(class_of n) in
    if not (List.memq b !cls) then cls := b :: !cls
  end
