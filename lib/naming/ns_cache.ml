(* Versioned NSP-side lookup cache (DESIGN.md §15).

   An entry remembers, besides the cached value, which shard answered, at
   which invalidation generation, and (optionally) which name it answers
   for. Shard servers bump their generation on every invalidation-class
   mutation (§3.5 relocation, deregistration, death detected by a Forward
   probe), one name per bump, and piggyback the generation and the names
   of the last K bumps on every versioned answer. The cache keeps two
   generations per shard: [seen], the newest it has observed, and [floor],
   below which every entry is retired. An answer whose names reach back to
   [seen] retires only the entries for those names; any other advance
   raises the floor to the new generation. A retired entry is a *stale
   hit*: it must resolve to a miss plus a fresh lookup — never to a
   delivery on the old circuit. That rule is what the cache-coherence
   trace invariants (Check_trace's naming-* ones) enforce end to end.

   Built on the recency-ordered [Ntcs_util.Lru]: eviction order, predicate
   invalidation and iteration are all deterministic, so equal-seed runs
   stay byte-identical (lint rule R2 applies to this directory). *)

type 'v entry = {
  e_value : 'v;
  e_name : string option; (* the name whose changes retire this entry *)
  e_shard : int; (* which shard's authority produced the value *)
  e_gen : int; (* that shard's invalidation generation at answer time *)
  e_expiry : int; (* absolute virtual time; the pre-existing TTL bound *)
}

type ('k, 'v) t = {
  lru : ('k, 'v entry) Ntcs_util.Lru.t;
  capacity : int;
  floors : int array; (* per-shard minimum acceptable generation *)
  seen : int array; (* per-shard newest observed generation; >= floor *)
  changed : (string, int) Hashtbl.t option array;
  (* per shard: name -> newest generation in (floor, seen] that changed
     it, made on the first listed change. At most [capacity] names; one
     more raises the floor instead. *)
}

let create ~capacity ~nshards =
  let capacity = max 1 capacity and nshards = max 1 nshards in
  {
    lru = Ntcs_util.Lru.create capacity;
    capacity;
    floors = Array.make nshards 0;
    seen = Array.make nshards 0;
    changed = Array.make nshards None;
  }

let nshards t = Array.length t.floors

let in_range t shard = shard >= 0 && shard < Array.length t.floors

let floor t ~shard = if in_range t shard then t.floors.(shard) else 0

let seen t ~shard = if in_range t shard then t.seen.(shard) else 0

type 'v outcome =
  | Hit of 'v * int * int (* value, shard, gen — for the coherence trace *)
  | Stale of 'v * int * int (* known value, but its shard retired that generation *)
  | Miss

(* Every change is at most [seen], so an entry stored at [seen] or later
   needs no further look. A named entry is retired by a change of its
   name; an unnamed one by any change in its shard. *)
let retired t e =
  let s = e.e_shard in
  in_range t s
  && e.e_gen < t.seen.(s)
  && (e.e_gen < t.floors.(s)
     ||
     match (e.e_name, t.changed.(s)) with
     | None, _ -> true
     | Some _, None -> false
     | Some name, Some names -> (
       match Hashtbl.find names name with
       | g -> e.e_gen < g
       | exception Not_found -> false))

let find t ~now key =
  match Ntcs_util.Lru.find t.lru key with
  | None -> Miss
  | Some e when e.e_expiry < now ->
    (* TTL expiry is an ordinary miss: nothing was proved wrong, the entry
       just aged out. *)
    Ntcs_util.Lru.remove t.lru key;
    Miss
  | Some e when retired t e ->
    Ntcs_util.Lru.remove t.lru key;
    Stale (e.e_value, e.e_shard, e.e_gen)
  | Some e -> Hit (e.e_value, e.e_shard, e.e_gen)

(* Store a fresh answer. The effective generation is clamped up to the
   shard's [seen]: the value just came from an authoritative answer, so it
   is fresh *as of now* — every change already observed predates it —
   even when the answering server's counter restarted below a previously
   observed generation (e.g. after a shard restart). *)
let store t ?name key ~value ~shard ~gen ~expiry =
  let gen = if in_range t shard then max gen t.seen.(shard) else gen in
  Ntcs_util.Lru.set t.lru key
    { e_value = value; e_name = name; e_shard = shard; e_gen = gen; e_expiry = expiry }

(* Every change up to [gen] is now covered by the floor. *)
let raise_floor t ~shard ~gen =
  t.floors.(shard) <- gen;
  t.changed.(shard) <- None;
  true

(* Fold a versioned answer's stamp into the shard's state. [changed.(i)]
   is the name generation [gen - i] changed. Invalidation is lazy either
   way: retired entries stay resident and report {!Stale} on their next
   touch ([find] evicts them then), which is what sends the caller back
   for a fresh lookup — the §3.5 splice-repair path. Eager eviction would
   be *too* strong: it would turn every would-be stale hit into a plain
   miss and leave the stale protocol (and its coherence invariants)
   unexercised. *)
let observe t ~shard ~gen ~changed =
  if (not (in_range t shard)) || gen <= t.seen.(shard) then false
  else begin
    let since = t.seen.(shard) in
    t.seen.(shard) <- gen;
    (* The list must name every generation in (since, gen]: a shorter one
       (first contact, more than K generations missed) leaves changes
       unknown, and only the whole-shard floor is safe then. *)
    if List.length changed >= gen - since then begin
      let names =
        match t.changed.(shard) with
        | Some names -> names
        | None ->
          let names = Hashtbl.create 16 in
          t.changed.(shard) <- Some names;
          names
      in
      List.iteri
        (fun i name ->
          let g = gen - i in
          if g > since then
            match Hashtbl.find names name with
            | newer when newer >= g -> ()
            | _ | (exception Not_found) -> Hashtbl.replace names name g)
        changed;
      Hashtbl.length names > t.capacity && raise_floor t ~shard ~gen
    end
    else raise_floor t ~shard ~gen
  end

let invalidate_if t pred =
  Ntcs_util.Lru.invalidate_if t.lru (fun k e -> pred k e.e_value)

let remove t key = Ntcs_util.Lru.remove t.lru key

let iter t f = Ntcs_util.Lru.iter t.lru (fun k e -> f k e.e_value ~shard:e.e_shard ~gen:e.e_gen)

let clear t = Ntcs_util.Lru.clear t.lru

let length t = Ntcs_util.Lru.length t.lru
