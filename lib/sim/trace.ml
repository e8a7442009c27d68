(* Append-only event trace for a simulated world. Tests and experiments
   assert protocol-level properties from it (e.g. "gateways never exchange
   messages with each other", E7) and the §6.2 discussion about needing to
   know *why* and *by whom* a layer is called is addressed by recording both
   a category and an actor for every entry. *)

type entry = {
  at_us : int;
  cat : string; (* e.g. "nd.open", "lcm.fault", "gw.forward" *)
  actor : string; (* process name *)
  detail : string;
}

type t = {
  mutable entries : entry list; (* newest first *)
  mutable count : int;
  mutable cats : string list; (* empty = record everything *)
  interned : (string, string * int ref) Hashtbl.t;
      (* category -> (the one shared copy, recorded-entry count). Call sites
         pass fresh string literals on every record; keeping one copy per
         category means the hot trace path stops allocating category strings
         and [categories] reads counts without rescanning the entries. *)
}

let create () =
  { entries = []; count = 0; cats = []; interned = Hashtbl.create 32 }

let set_filter t cats = t.cats <- cats

let intern t cat =
  match Hashtbl.find_opt t.interned cat with
  | Some (c, n) -> (c, n)
  | None ->
    let v = (cat, ref 0) in
    Hashtbl.replace t.interned cat v;
    v

let record t ~at_us ~cat ~actor detail =
  if t.cats = [] || List.exists (fun p -> p = cat) t.cats then begin
    let cat, seen = intern t cat in
    incr seen;
    t.entries <- { at_us; cat; actor; detail } :: t.entries;
    t.count <- t.count + 1
  end

let categories t =
  Ntcs_util.sorted_bindings t.interned
  |> List.filter_map (fun (_, (c, n)) -> if !n > 0 then Some (c, !n) else None)

let entries t = List.rev t.entries

let count t = t.count

let clear t =
  t.entries <- [];
  t.count <- 0;
  (* lint: allow determinism(Hashtbl.iter) — zeroing every per-category counter is order-free *)
  Hashtbl.iter (fun _ (_, n) -> n := 0) t.interned

let matching t ~cat = List.filter (fun e -> e.cat = cat) (entries t)

let matching_prefix t ~prefix =
  let n = String.length prefix in
  List.filter
    (fun e -> String.length e.cat >= n && String.sub e.cat 0 n = prefix)
    (entries t)

let pp_entry ppf e = Fmt.pf ppf "[%8dus] %-16s %-20s %s" e.at_us e.cat e.actor e.detail

let dump ppf t = List.iter (fun e -> Fmt.pf ppf "%a@." pp_entry e) (entries t)
