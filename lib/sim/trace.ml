(* The trace as a view over the world's one event log: an entry is an
   instant span event with the null context, named by its category, so
   trace and spans share one append-only store. *)

module Registry = Ntcs_obs.Registry
module Span = Ntcs_obs.Span

type entry = Span.event
type t = Registry.t

let create = Registry.create

let note t ~at_us ~cat ~actor detail =
  Registry.span t (Span.event ~at_us ~ctx:Span.none ~phase:Span.I ~name:cat ~actor detail)

let record t ~at_us ~cat ~actor text = note t ~at_us ~cat ~actor (Span.Text text)

let entries = Registry.spans
let count = Registry.span_count
let clear = Registry.clear_spans

(* Counted on read, in one pass over the sorted names: only the ntcs_demo
   listing asks, after it has selected the names it shows. *)
let categories entries =
  let count acc n =
    match acc with (m, k) :: rest when String.equal m n -> (m, k + 1) :: rest | _ -> (n, 1) :: acc
  in
  List.map (fun (e : entry) -> e.Span.ev_name) entries
  |> List.sort String.compare |> List.fold_left count [] |> List.rev

let matching t ~cat = List.filter (fun (e : entry) -> e.Span.ev_name = cat) (entries t)

let dump ppf t = List.iter (fun e -> Fmt.pf ppf "%a@." Span.pp_event e) (entries t)
