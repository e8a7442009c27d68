(* Cache-coherence invariants of the sharded naming plane (DESIGN.md §15),
   checked over the structured trace.

   The NSP-layer emits ns.cache.{hit,stale,store,invalidate} events (one
   actor per caching ComMod) and the shard servers emit ns.shard.forward /
   ns.shard.gen. Five invariants make "a stale cache hit must resolve to a
   miss plus a re-lookup, never a delivery on the old circuit" checkable
   end to end:

   1. Store monotonicity — per (actor, shard), the generations recorded by
      ns.cache.store never decrease. (The cache clamps stored generations
      up to the shard's floor, so a violation means the floor went
      backwards.)

   2. Floor discipline — after an actor's cache raised shard [s]'s floor to
      [g] (ns.cache.invalidate "shard s floor g ..."), every later
      ns.cache.hit that actor reports for shard [s] carries a generation at
      least [g]: an invalidated entry can never be served fresh again.

   3. Stale splice — a stale hit on a key is a miss: between an actor's
      ns.cache.stale on key [k] and its next ns.cache.hit on [k] there must
      be an ns.cache.store on [k] (the re-lookup's fresh answer).

   4. Hop bound — shard-router forwarding is one hop at most: every
      ns.shard.forward event's "hop" field is <= 1.

   5. Per-name retirement — judged by the server's record, not the
      client's account of what it retired: an actor's hit on name [n] in
      shard [s] at generation [h] is a violation if the server traced
      ns.shard.gen "shard s gen g: ... n" with h < g <= the newest
      generation that actor has acknowledged for [s] (its stores and
      floor raises). The actor had heard of the change, yet served an
      entry older than it.

   Detail formats (produced by Nsp_layer / Name_server):
     ns.cache.hit/stale/store  "<kind>:<key> shard <s> gen <g>"
     ns.cache.invalidate       "shard <s> floor <g>"
                               | "splice addr:<a> dropped <n>"
     ns.shard.forward          "<name>: shard <a> -> <b> hop <h>"
     ns.shard.gen              "shard <s> gen <g>: <what> <name>[ (<addr>)]" *)

(* Whether [sep] occurs in [s] at [i], compared in place. *)
let rec sep_at ~sep s i j =
  j = String.length sep || (s.[i + j] = sep.[j] && sep_at ~sep s i (j + 1))

let rec find_sep ~sep s i =
  if i + String.length sep > String.length s then None
  else if sep_at ~sep s i 0 then Some i
  else find_sep ~sep s (i + 1)

let rec rfind_sep ~sep s i =
  if i < 0 then None else if sep_at ~sep s i 0 then Some i else rfind_sep ~sep s (i - 1)

(* [cut ~sep s] splits [s] at the first occurrence of [sep]. The scan
   allocates nothing; only a match's two halves are new strings. *)
let cut ~sep s =
  match find_sep ~sep s 0 with
  | None -> None
  | Some i ->
    let after = i + String.length sep in
    Some (String.sub s 0 i, String.sub s after (String.length s - after))

(* "<kind>:<key> shard <s> gen <g>" -> (key-with-kind, shard, gen). *)
let parse_kv detail =
  match cut ~sep:" shard " detail with
  | Some (key, rest) -> (
    match cut ~sep:" gen " rest with
    | Some (s, g) -> (
      match (int_of_string_opt s, int_of_string_opt g) with
      | Some shard, Some gen -> Some (key, shard, gen)
      | _ -> None)
    | None -> None)
  | None -> None

(* "shard <s><sep><rest>" -> (s, rest). *)
let shard_prefix ~sep detail =
  match cut ~sep:"shard " detail with
  | Some ("", tail) -> (
    match cut ~sep tail with
    | Some (s, rest) -> Option.map (fun shard -> (shard, rest)) (int_of_string_opt s)
    | None -> None)
  | _ -> None

(* "shard <s> floor <g>" -> (shard, floor); splice invalidations carry no
   floor raise and are skipped. *)
let parse_floor detail =
  match shard_prefix ~sep:" floor " detail with
  | Some (shard, g) -> Option.map (fun floor -> (shard, floor)) (int_of_string_opt g)
  | None -> None

(* "shard <s> gen <g>: <what> <name>[ (<addr>)]" -> (shard, gen,
   "name:<name>"), the key the name cache's events use. An address has no
   " (" in it, so the last one starts the optional suffix. *)
let parse_change detail =
  match shard_prefix ~sep:" gen " detail with
  | Some (shard, rest) -> (
    match cut ~sep:": " rest with
    | Some (g, change) -> (
      match (int_of_string_opt g, cut ~sep:" " change) with
      | Some gen, Some (_, name) ->
        let name =
          match rfind_sep ~sep:" (" name (String.length name - 2) with
          | Some i when String.ends_with ~suffix:")" name -> String.sub name 0 i
          | Some _ | None -> name
        in
        Some (shard, gen, "name:" ^ name)
      | _ -> None)
    | None -> None)
  | None -> None

(* trailing " hop <h>" of a forward event *)
let parse_hop detail =
  match cut ~sep:" hop " detail with
  | Some (_, h) -> int_of_string_opt h
  | None -> None

let check (entries : Ntcs_sim.Trace.entry list) =
  let errs = ref [] in
  let err at fmt =
    Printf.ksprintf (fun m -> errs := Printf.sprintf "t=%dus: %s" at m :: !errs) fmt
  in
  let store_gen : (string * int, int) Hashtbl.t = Hashtbl.create 16 in
  let floors : (string * int, int) Hashtbl.t = Hashtbl.create 16 in
  let awaiting_store : (string * string, int) Hashtbl.t = Hashtbl.create 16 in
  (* per name-cache key: every (shard, gen) at which the server changed it *)
  let changes : (string, (int * int) list) Hashtbl.t = Hashtbl.create 16 in
  (* The newest generation an actor acknowledged for a shard: its last
     store (stores clamp up to what the cache has seen) or floor raise. *)
  let acked actor shard =
    let at tbl = Option.value ~default:0 (Hashtbl.find_opt tbl (actor, shard)) in
    max (at store_gen) (at floors)
  in
  List.iter
    (fun (e : Ntcs_sim.Trace.entry) ->
      let bad () = err e.ev_at_us "%s: unparseable detail %S" e.ev_name e.ev_detail in
      match e.ev_name with
      | "ns.cache.store" -> (
        match parse_kv e.ev_detail with
        | None -> bad ()
        | Some (key, shard, gen) ->
          (match Hashtbl.find_opt store_gen (e.ev_actor, shard) with
           | Some prev when gen < prev ->
             err e.ev_at_us "%s: store gen went backwards on shard %d (%d after %d, key %s)"
               e.ev_actor shard gen prev key
           | _ -> ());
          Hashtbl.replace store_gen (e.ev_actor, shard) gen;
          Hashtbl.remove awaiting_store (e.ev_actor, key))
      | "ns.cache.stale" -> (
        match parse_kv e.ev_detail with
        | None -> bad ()
        | Some (key, _, _) -> Hashtbl.replace awaiting_store (e.ev_actor, key) e.ev_at_us)
      | "ns.cache.hit" -> (
        match parse_kv e.ev_detail with
        | None -> bad ()
        | Some (key, shard, gen) ->
          (match Hashtbl.find_opt awaiting_store (e.ev_actor, key) with
           | Some since ->
             err e.ev_at_us
               "%s: hit on %s after a stale hit at t=%dus with no store in between"
               e.ev_actor key since
           | None -> ());
          (match Hashtbl.find_opt floors (e.ev_actor, shard) with
           | Some floor when gen < floor ->
             err e.ev_at_us "%s: hit on %s at gen %d below shard %d's floor %d" e.ev_actor key
               gen shard floor
           | _ -> ());
          match Hashtbl.find changes key with
          | exception Not_found -> ()
          | cs ->
            let acked = acked e.ev_actor shard in
            List.iter
              (fun (s, g) ->
                if s = shard && gen < g && g <= acked then
                  err e.ev_at_us
                    "%s: hit on %s at gen %d, but shard %d changed it at gen %d and the \
                     actor had acknowledged gen %d"
                    e.ev_actor key gen shard g acked)
              cs)
      | "ns.cache.invalidate" -> (
        match parse_floor e.ev_detail with
        | Some (shard, floor) -> Hashtbl.replace floors (e.ev_actor, shard) floor
        | None -> if not (String.starts_with ~prefix:"splice " e.ev_detail) then bad ())
      | "ns.shard.gen" -> (
        match parse_change e.ev_detail with
        | None -> bad ()
        | Some (shard, gen, key) ->
          let prev = Option.value ~default:[] (Hashtbl.find_opt changes key) in
          Hashtbl.replace changes key ((shard, gen) :: prev))
      | "ns.shard.forward" -> (
        match parse_hop e.ev_detail with
        | None -> bad ()
        | Some h ->
          if h > 1 then
            err e.ev_at_us "%s: shard forward exceeded the one-hop bound (hop %d: %s)"
              e.ev_actor h e.ev_detail)
      | _ -> ())
    entries;
  List.rev_map (fun m -> "naming coherence: " ^ m) !errs
