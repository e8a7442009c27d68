(* Per-world observability registry: named counters and gauges, plus
   histograms and the world's one event log (span events and trace
   entries alike), plus the seeded-deterministic circuit-id allocator. One
   registry per simulated world, so parallel experiments never share state
   and equal seeds replay identical allocations. *)

type t = {
  counters : (string, int ref) Hashtbl.t;
  gauges : (string, float ref) Hashtbl.t;
  histos : (string, Histo.t) Hashtbl.t;
  mutable full_chunks : Span.event array list;  (** full log chunks, newest first *)
  mutable chunk : Span.event array;  (** the chunk being filled *)
  mutable span_count : int;
  mutable next_circuit : int;  (** count allocated, not the last id *)
  mutable circuit_base : int;  (** shard namespace offset (parallel worlds) *)
}

let create () =
  { counters = Hashtbl.create 32; gauges = Hashtbl.create 8; histos = Hashtbl.create 16;
    full_chunks = []; chunk = [||]; span_count = 0; next_circuit = 0;
    circuit_base = 0 }

let clear_spans t =
  t.full_chunks <- [];
  t.chunk <- [||];
  t.span_count <- 0

(* Cannot use Ntcs_util.sorted_bindings here — ntcs_util sits above us — so
   the registry carries its own deterministic iteration helper. *)
let sorted_bindings tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* Counters and gauges *)

(* [counter] and [histo] run on every [incr] and [observe]: matching on
   [Not_found] spares the [Some] block [find_opt] would allocate. *)
let counter t name =
  match Hashtbl.find t.counters name with
  | r -> r
  | exception Not_found ->
    let r = ref 0 in
    Hashtbl.replace t.counters name r;
    r

let incr ?(by = 1) t name =
  let r = counter t name in
  r := !r + by

let get t name = match Hashtbl.find_opt t.counters name with Some r -> !r | None -> 0

let set_gauge t name v =
  match Hashtbl.find_opt t.gauges name with
  | Some r -> r := v
  | None -> Hashtbl.replace t.gauges name (ref v)

let gauge t name =
  match Hashtbl.find_opt t.gauges name with Some r -> !r | None -> 0.

let counters_alist t = List.map (fun (k, r) -> (k, !r)) (sorted_bindings t.counters)
let gauges_alist t = List.map (fun (k, r) -> (k, !r)) (sorted_bindings t.gauges)

(* Histograms *)

let histo t name =
  match Hashtbl.find t.histos name with
  | h -> h
  | exception Not_found ->
    let h = Histo.create () in
    Hashtbl.replace t.histos name h;
    h

let observe t name v = Histo.add (histo t name) v
let find_histo t name = Hashtbl.find_opt t.histos name
let histos_alist t = sorted_bindings t.histos

(* Circuit ids and the event log *)

let fresh_circuit t =
  t.next_circuit <- t.next_circuit + 1;
  t.circuit_base + t.next_circuit

(* Shard namespacing: a parallel world gives shard i the base i * 10^6 so
   circuit ids stay world-unique in merged span logs. Must be set before
   the first allocation — renumbering live circuits would orphan their
   spans. *)
let set_circuit_base t base =
  if t.next_circuit > 0 then
    invalid_arg "Registry.set_circuit_base: circuits already allocated";
  t.circuit_base <- base

let circuits_allocated t = t.next_circuit

(* The event log lives in fixed-size chunks rather than a list: an event
   costs one array slot instead of a three-word cons cell. Every event is
   kept for the life of the world, so each minor collection promotes the
   events logged since the last one; the slimmer log keeps that promotion,
   and with it the pause, short. *)
let span_chunk = 1024

let span t (ev : Span.event) =
  let i = t.span_count mod span_chunk in
  if i = 0 then begin
    if t.span_count > 0 then t.full_chunks <- t.chunk :: t.full_chunks;
    t.chunk <- Array.make span_chunk ev
  end
  else t.chunk.(i) <- ev;
  t.span_count <- t.span_count + 1

(* One pass, newest to oldest, consing each slot once: the list comes out
   oldest first with no intermediate copy. *)
let spans t =
  let rec from chunk i acc = if i < 0 then acc else from chunk (i - 1) (chunk.(i) :: acc) in
  let filled = t.span_count - (span_chunk * List.length t.full_chunks) in
  List.fold_left
    (fun acc chunk -> from chunk (span_chunk - 1) acc)
    (from t.chunk (filled - 1) [])
    t.full_chunks

let span_count t = t.span_count

(* Printing. [pp_stats] lists counters and gauges, each sorted, so two
   same-seed runs print byte-identical text. *)

let pp_gauge_value ppf v = Fmt.pf ppf "%.3f" v

let pp_stats ppf t =
  List.iter (fun (k, v) -> Fmt.pf ppf "%-40s %d@." k v) (counters_alist t);
  List.iter (fun (k, v) -> Fmt.pf ppf "%-40s %a@." k pp_gauge_value v) (gauges_alist t)
