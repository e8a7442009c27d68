(* Size-classed buffer pool for the frame hot path.

   The pipeline's steady state allocates one buffer per send (header blit +
   payload blit) and frees it as soon as the transport has taken its copy —
   an allocation profile a freelist amortises perfectly. Buffers come in
   power-of-two size classes; a request is served from the smallest class
   that fits (callers carry an explicit length, so an oversized buffer is
   harmless). Requests beyond the largest class are plain allocations —
   caching jumbo buffers would just pin memory.

   Ownership discipline: [alloc] transfers the buffer to the caller;
   [release] returns it and the caller must not touch it afterwards. A
   buffer that escapes (never released) is a leak the high-water gauge will
   show, not a correctness problem — the pool never hands out a buffer it
   has not been given back.

   The release side is guarded even with the sanitizer off: a buffer that
   is already on its freelist, has a size no [alloc] ever produced, or
   arrives while nothing is outstanding is rejected and counted as
   [pool.bad_release] instead of being spliced into the freelist — a
   double-release that *is* accepted aliases two future hand-outs onto one
   buffer and corrupts frames while every test stays green.

   Sanitizer mode ([set_sanitize]) adds the checks that need per-buffer
   state: every hand-out is generation-tagged and tracked by physical
   identity, releases of untracked buffers are reported as foreign,
   released pooled buffers are filled with a poison canary that is verified
   on the next hand-out (a stale view writing through a released buffer
   trips it), and [leak_check] reports everything still outstanding at
   world teardown. Each violation increments a [pool.sanitizer.*] counter
   and, when an emitter is installed ([set_emit], wired to the world's
   trace), records one deterministic trace event. The mode is off by
   default and costs nothing when off — the hot path is unchanged.

   Statistics land in the world's registry so they export with everything
   else: pool.hits / pool.misses / pool.unpooled / pool.bad_release
   counters, pool.in_use and pool.high_water gauges. *)

type t = {
  classes : Bytes.t list ref array; (* freelist per size class *)
  registry : Ntcs_obs.Registry.t option;
  mutable in_use : int; (* buffers handed out and not yet released *)
  mutable high_water : int;
  (* --- sanitizer state (inert unless [sanitize]) --- *)
  mutable sanitize : bool;
  mutable emit : (cat:string -> detail:string -> unit) option;
  mutable next_gen : int; (* generation tag of the next hand-out *)
  mutable outstanding : (Bytes.t * int) list; (* identity-keyed, newest first *)
  mutable violations : int;
}

(* Classes: 64 B .. 64 KiB in powers of two — 11 freelists. *)
let min_shift = 6
let max_shift = 16
let num_classes = max_shift - min_shift + 1
let max_pooled = 1 lsl max_shift

(* Smallest class index whose size covers [n]. *)
let class_of n =
  let rec go shift = if 1 lsl shift >= n then shift - min_shift else go (shift + 1) in
  if n <= 1 lsl min_shift then 0 else go (min_shift + 1)

let create ?registry () =
  {
    classes = Array.init num_classes (fun _ -> ref []);
    registry;
    in_use = 0;
    high_water = 0;
    sanitize = false;
    emit = None;
    next_gen = 1;
    outstanding = [];
    violations = 0;
  }

let count t name = match t.registry with None -> () | Some r -> Ntcs_obs.Registry.incr r name

let note_out t =
  t.in_use <- t.in_use + 1;
  if t.in_use > t.high_water then t.high_water <- t.in_use;
  match t.registry with
  | None -> ()
  | Some r ->
    Ntcs_obs.Registry.set_gauge r "pool.in_use" (float_of_int t.in_use);
    Ntcs_obs.Registry.set_gauge r "pool.high_water" (float_of_int t.high_water)

let note_in t =
  t.in_use <- t.in_use - 1;
  match t.registry with
  | None -> ()
  | Some r -> Ntcs_obs.Registry.set_gauge r "pool.in_use" (float_of_int t.in_use)

(* --- sanitizer plumbing --- *)

(* The canary: a released pooled buffer is filled with it, and the fill is
   verified when the buffer is handed out again. Any caller who kept a view
   and wrote through it after [release] leaves a non-canary byte behind. *)
let poison = '\xDB'

let violation t ~cat detail =
  t.violations <- t.violations + 1;
  count t cat;
  match t.emit with None -> () | Some emit -> emit ~cat ~detail

let is_outstanding t b = List.exists (fun (b', _) -> b' == b) t.outstanding
let untrack t b = t.outstanding <- List.filter (fun (b', _) -> not (b' == b)) t.outstanding

let track t b =
  let g = t.next_gen in
  t.next_gen <- g + 1;
  t.outstanding <- (b, g) :: t.outstanding

let verify_poison t b =
  let n = Bytes.length b in
  let rec first_bad i = if i >= n then -1 else if Bytes.get b i <> poison then i else first_bad (i + 1) in
  let bad = first_bad 0 in
  if bad >= 0 then
    violation t ~cat:"pool.sanitizer.poison"
      (Printf.sprintf "size=%d first_stale_byte=%d" n bad)

let set_sanitize t on =
  t.sanitize <- on;
  if on then
    (* Buffers already resting on a freelist predate the canary discipline;
       poison them now so their next hand-out verifies cleanly. Arm before
       traffic: hand-outs alive at this moment are unknown to the tracker
       and their releases would read as foreign. *)
    Array.iter (fun cls -> List.iter (fun b -> Bytes.fill b 0 (Bytes.length b) poison) !cls) t.classes
  else t.outstanding <- []

let set_emit t f = t.emit <- Some f
let violations t = t.violations

let leak_check t =
  (* Teardown report, in hand-out order. A leak is loss, not corruption —
     the pool never re-issues a buffer it was not given back — so callers
     treat this as a report (crashed machines legitimately strand their
     in-flight buffers), unlike the aliasing violations above. *)
  let leaked = List.rev t.outstanding in
  List.iter
    (fun (b, gen) ->
      violation t ~cat:"pool.sanitizer.leak"
        (Printf.sprintf "gen=%d size=%d" gen (Bytes.length b)))
    leaked;
  t.outstanding <- [];
  List.length leaked

(* --- alloc / release --- *)

let alloc t n =
  if n > max_pooled then begin
    count t "pool.unpooled";
    (* Unpooled hand-outs are owed back like any other: count them out so
       the in_use/high_water gauges agree with the release side. *)
    note_out t;
    let b = Bytes.create n in
    if t.sanitize then track t b;
    b
  end
  else begin
    let cls = t.classes.(class_of n) in
    note_out t;
    match !cls with
    | b :: rest ->
      cls := rest;
      count t "pool.hits";
      if t.sanitize then begin
        verify_poison t b;
        track t b
      end;
      b
    | [] ->
      count t "pool.misses";
      let b = Bytes.create (1 lsl (class_of n + min_shift)) in
      if t.sanitize then track t b;
      b
  end

let bad_release t ~cat detail =
  count t "pool.bad_release";
  if t.sanitize then violation t ~cat detail

let release t b =
  let n = Bytes.length b in
  if n > max_pooled then begin
    (* Unpooled: nothing to recycle, but the gauge must come back down.
       Only the sanitizer can prove provenance for these. *)
    if t.sanitize && not (is_outstanding t b) then
      bad_release t ~cat:"pool.sanitizer.foreign_release" (Printf.sprintf "size=%d" n)
    else if t.in_use <= 0 then
      bad_release t ~cat:"pool.sanitizer.foreign_release" (Printf.sprintf "size=%d" n)
    else begin
      if t.sanitize then untrack t b;
      note_in t
    end
  end
  else if n < 1 lsl min_shift || n land (n - 1) <> 0 then
    (* No [alloc] ever produced this size: never-pooled foreign bytes. *)
    bad_release t ~cat:"pool.sanitizer.foreign_release" (Printf.sprintf "size=%d" n)
  else begin
    let cls = t.classes.(class_of n) in
    if List.memq b !cls then
      (* Already resting on its freelist: accepting it again would hand the
         same buffer to two future allocs. *)
      bad_release t ~cat:"pool.sanitizer.double_release"
        (Printf.sprintf "size=%d class=%d" n (1 lsl (class_of n + min_shift)))
    else if t.sanitize && not (is_outstanding t b) then
      bad_release t ~cat:"pool.sanitizer.foreign_release" (Printf.sprintf "size=%d" n)
    else if t.in_use <= 0 then
      bad_release t ~cat:"pool.sanitizer.foreign_release" (Printf.sprintf "size=%d" n)
    else begin
      if t.sanitize then begin
        untrack t b;
        Bytes.fill b 0 n poison
      end;
      cls := b :: !cls;
      note_in t
    end
  end

let in_use t = t.in_use
