(* Array-backed binary min-heap, parameterized by an ordering function.
   Used by the simulator's event queue, where stability is obtained by
   keying events with a (time, sequence) pair.

   Withdrawal is lazy: the owner marks an element gone (the [gone]
   predicate reads that mark) and reports it with [withdrawn]. A gone
   element is dropped when it reaches the top, and the whole array is
   compacted once gone elements are more than half of it, so at most
   about half the stored elements are gone and every operation is
   O(log live). *)

type 'a t = {
  leq : 'a -> 'a -> bool;
  gone : 'a -> bool;
  mutable data : 'a array;
  mutable size : int; (* stored elements, gone ones included *)
  mutable dead : int; (* stored elements that are gone *)
}

let create ~leq ~gone = { leq; gone; data = [||]; size = 0; dead = 0 }

let length t = t.size - t.dead

let grow t x =
  let cap = Array.length t.data in
  if t.size = cap then begin
    let ncap = if cap = 0 then 16 else cap * 2 in
    let ndata = Array.make ncap x in
    Array.blit t.data 0 ndata 0 t.size;
    t.data <- ndata
  end

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if t.leq t.data.(i) t.data.(parent) && not (t.leq t.data.(parent) t.data.(i)) then begin
      let tmp = t.data.(i) in
      t.data.(i) <- t.data.(parent);
      t.data.(parent) <- tmp;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < t.size && not (t.leq t.data.(!smallest) t.data.(l)) then smallest := l;
  if r < t.size && not (t.leq t.data.(!smallest) t.data.(r)) then smallest := r;
  if !smallest <> i then begin
    let tmp = t.data.(i) in
    t.data.(i) <- t.data.(!smallest);
    t.data.(!smallest) <- tmp;
    sift_down t !smallest
  end

let push t x =
  grow t x;
  t.data.(t.size) <- x;
  t.size <- t.size + 1;
  sift_up t (t.size - 1)

let remove_top t =
  let top = t.data.(0) in
  t.size <- t.size - 1;
  if t.size > 0 then begin
    t.data.(0) <- t.data.(t.size);
    sift_down t 0
  end;
  top

(* Drop gone elements off the top, so the top (if any) is live. *)
let rec drop_gone t =
  if t.size > 0 && t.gone t.data.(0) then begin
    ignore (remove_top t);
    t.dead <- t.dead - 1;
    drop_gone t
  end

(* Keep the live elements in place, then restore the heap bottom-up. The
   vacated slots are overwritten with a live element, when one is left, so
   the gone ones can be collected. *)
let compact t =
  let n = ref 0 in
  for i = 0 to t.size - 1 do
    let x = t.data.(i) in
    if not (t.gone x) then begin
      t.data.(!n) <- x;
      incr n
    end
  done;
  if !n > 0 then Array.fill t.data !n (t.size - !n) t.data.(0);
  t.size <- !n;
  t.dead <- 0;
  for i = (t.size / 2) - 1 downto 0 do
    sift_down t i
  done

let withdrawn t =
  t.dead <- t.dead + 1;
  if 2 * t.dead > t.size then compact t

let is_empty t =
  drop_gone t;
  t.size = 0

let top t =
  drop_gone t;
  if t.size = 0 then invalid_arg "Heap.top: empty";
  t.data.(0)

let pop_min t =
  drop_gone t;
  if t.size = 0 then invalid_arg "Heap.pop_min: empty";
  remove_top t
