(* Snapshot exporters. All three formats are rendered through a single
   Buffer with fully sorted iteration and fixed number formatting, so two
   registries built by equal-seed runs serialize to byte-identical strings,
   as test_obs's determinism tests and the golden Chrome trace require. *)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let str s = "\"" ^ json_escape s ^ "\""

(* %g keeps gauges compact; its exponent form ("1e+06") is valid JSON. *)
let flt v = Printf.sprintf "%g" v

let obj fields = "{" ^ String.concat "," (List.map (fun (k, v) -> str k ^ ":" ^ v) fields) ^ "}"
let arr items = "[" ^ String.concat "," items ^ "]"

let histo_json h =
  let s = Histo.summary h in
  obj
    [
      ("count", string_of_int s.Histo.s_count);
      ("sum", string_of_int s.Histo.s_sum);
      ("min", string_of_int s.Histo.s_min);
      ("max", string_of_int s.Histo.s_max);
      ("p50", string_of_int s.Histo.s_p50);
      ("p95", string_of_int s.Histo.s_p95);
      ("p99", string_of_int s.Histo.s_p99);
      ("mean", flt (Histo.mean h));
    ]

(* Flat stats: every counter, gauge and histogram summary in one object. *)
let stats_json r =
  obj
    [
      ( "counters",
        obj (List.map (fun (k, v) -> (k, string_of_int v)) (Registry.counters_alist r)) );
      ("gauges", obj (List.map (fun (k, v) -> (k, flt v)) (Registry.gauges_alist r)));
      ("histograms", obj (List.map (fun (k, h) -> (k, histo_json h)) (Registry.histos_alist r)));
      ("circuits", string_of_int (Registry.circuits_allocated r));
      ("span_events", string_of_int (Registry.span_count r));
    ]

let span_json (e : Span.event) =
  obj
    [
      ("ts", string_of_int e.Span.ev_at_us);
      ("ph", str (Span.phase_to_string e.Span.ev_phase));
      ("circuit", string_of_int e.Span.ev_ctx.Span.sp_circuit);
      ("seq", string_of_int e.Span.ev_ctx.Span.sp_seq);
      ("name", str e.Span.ev_name);
      ("actor", str e.Span.ev_actor);
      ("detail", str (Span.detail_to_string e.Span.ev_detail));
    ]

(* Span events grouped by circuit, in id order, time order kept within
   each. Events with the null context (trace entries, control-frame
   forwards) belong to no circuit and are left out. *)
let by_circuit r =
  let circuit (e : Span.event) = e.Span.ev_ctx.Span.sp_circuit in
  let events =
    List.filter (fun (e : Span.event) -> not (Span.is_none e.Span.ev_ctx)) (Registry.spans r)
  in
  List.map
    (fun c -> (c, List.filter (fun e -> circuit e = c) events))
    (List.sort_uniq compare (List.map circuit events))

(* One JSON object per line, oldest event first. *)
let spans_jsonl r =
  String.concat "" (List.map (fun e -> span_json e ^ "\n") (Registry.spans r))

(* Chrome trace-event format (about:tracing / Perfetto). Circuits map to
   Chrome "threads" so each circuit renders as its own timeline row; B/E
   pairs become duration slices, I events instant marks. *)
let chrome_event (e : Span.event) =
  let ph = match e.Span.ev_phase with Span.B -> "B" | Span.E -> "E" | Span.I -> "i" in
  let base =
    [
      ("name", str e.Span.ev_name);
      ("cat", str (Manifest.track_of e.Span.ev_name));
      ("ph", str ph);
      ("ts", string_of_int e.Span.ev_at_us);
      ("pid", "1");
      ("tid", string_of_int e.Span.ev_ctx.Span.sp_circuit);
    ]
  in
  let scope = match e.Span.ev_phase with Span.I -> [ ("s", str "t") ] | _ -> [] in
  let args =
    [
      ( "args",
        obj
          [
            ("span", str (Span.to_string e.Span.ev_ctx));
            ("actor", str e.Span.ev_actor);
            ("detail", str (Span.detail_to_string e.Span.ev_detail));
          ] );
    ]
  in
  obj (base @ scope @ args)

let chrome_trace r =
  let events = Registry.spans r in
  let thread_names =
    (* Metadata events naming each circuit row, emitted once per circuit in
       id order so the export stays byte-stable. *)
    let ids =
      List.sort_uniq compare
        (List.map (fun (e : Span.event) -> e.Span.ev_ctx.Span.sp_circuit) events)
    in
    List.map
      (fun c ->
        obj
          [
            ("name", str "thread_name");
            ("ph", str "M");
            ("pid", "1");
            ("tid", string_of_int c);
            ( "args",
              obj [ ("name", str (if c = 0 then "control" else Printf.sprintf "circuit %d" c)) ]
            );
          ])
      ids
  in
  obj
    [
      ( "traceEvents",
        arr (thread_names @ List.map chrome_event events) );
      ("displayTimeUnit", str "ms");
    ]
