(* ntcs_bench: closed-loop workloads over the NTCS stack, end-to-end
   metrics from untraced runs and a per-layer breakdown from traced runs.
   See README.md in this directory for the workloads and metrics.

     ntcs_bench --workload W --seed N --seconds S --trace 0|1
     ntcs_bench all [--seed N] [--seconds S] [--out DIR]
     ntcs_bench smoke [--spec BENCHMARK.json]
     ntcs_bench compare DIR_A DIR_B [--spec BENCHMARK.json]

   A run prints every metric as "name value unit" and then, as its last
   line, one JSON object {correct, attempted, failed, metrics}. It exits
   non-zero when any check fails. *)

type workload = {
  name : string;
  ops : int;  (** timed ops per repetition (per client for ring-par) *)
  smoke_ops : int;
  warmup : int;
  rep :
    seed:int -> pass:Workloads.pass -> sampler:Sampler.t -> warmup:int -> ops:int -> Workloads.rep;
}

(* Repetitions are short (about 0.1-0.3 s of timed ops), so a run has
   dozens of them to rank by host speed. naming-mix warms up longer so
   its NSP cache reaches its steady hit rate before timing starts. *)
let workloads =
  [
    { name = "echo-lan"; ops = 5_000; smoke_ops = 3_000; warmup = 200; rep = Workloads.echo_lan };
    { name = "echo-3gw"; ops = 2_000; smoke_ops = 1_000; warmup = 200; rep = Workloads.echo_3gw };
    {
      name = "naming-mix";
      ops = 5_000;
      smoke_ops = 2_000;
      warmup = 2_000;
      rep = Workloads.naming_mix;
    };
    {
      name = "fault-soak";
      ops = 90;
      smoke_ops = 30;
      warmup = 5;
      rep = (fun ~seed:_ -> Workloads.fault_soak);
    };
    { name = "ring-par"; ops = 2_000; smoke_ops = 600; warmup = 200; rep = Workloads.ring_par };
  ]

(* --- metrics --- *)

(* Directions and regression bounds live in BENCHMARK.json only. *)
let end_to_end =
  [
    ("ops_per_s", "ops/s");
    ("op_p50_us", "us");
    ("op_p99_us", "us");
    ("minor_words_per_op", "words/op");
    ("setup_s", "s");
    ("top_heap_mb", "MB");
  ]

let role_metrics =
  List.concat_map
    (fun r ->
      let n = Meter.role_name r in
      [ (n ^ ".busy_ns", "ns/op"); (n ^ ".minor_words", "words/op") ])
    Meter.roles

let per_layer =
  role_metrics
  @ [
      ("busy.residual_pct", "%");
      ("trace_overhead_pct", "%");
      ("sched.events_per_op", "count/op");
      ("sched.ns_per_event", "ns");
      ("nd.frames_per_op", "count/op");
      ("frame.bytes_copied_per_op", "B/op");
      ("pool.hit_ratio", "ratio");
      ("pool.high_water", "buffers");
      ("gw.forwards_per_op", "count/op");
      ("nsp.cache_hit_ratio", "ratio");
      ("nsp.cache_stale_ratio", "ratio");
      ("ns.lookups_per_op", "count/op");
      ("ns.shard_forwards_per_op", "count/op");
      ("lcm.retries_per_op", "count/op");
      ("ip.opens_per_op", "count/op");
      ("trace.entries_per_op", "count/op");
      ("obs.spans_per_op", "count/op");
      ("explore.setup_ns", "ns/op");
      ("explore.run_ns", "ns/op");
      ("explore.choice_points_per_schedule", "count/op");
      ("barrier.epochs_per_op", "count/op");
      ("barrier.overhead_pct", "%");
      ("sim.vlat_p50_us", "virtual_us");
      ("sim.vlat_p99_us", "virtual_us");
    ]
  @ List.map (fun n -> (n, "ns/call")) Micro.ladder_rungs
  @ List.concat_map
      (fun n -> [ (n ^ "_ns", "ns/run"); (n ^ "_words", "words/run") ])
      Micro.micro_names

(* --- one run --- *)

type outcome = {
  attempted : int;
  failed : int;
  problems : string list;  (** failed checks; empty = correct *)
  values : (string * float) list;
  notes : string list;  (** sample counts, for the human-readable lines *)
}

let sum f l = List.fold_left (fun acc x -> acc +. f x) 0. l
let sumi f l = List.fold_left (fun acc x -> acc + f x) 0 l
let ratio a b = if b = 0. then 0. else a /. b

(* Repeat [f] while another repetition of the mean length still fits. *)
let repeat ~budget_ns f =
  let t0 = Sampler.now_ns () in
  let rec go acc k =
    let acc = f () :: acc in
    let elapsed = Sampler.now_ns () - t0 in
    if elapsed + (elapsed / k) <= budget_ns then go acc (k + 1) else List.rev acc
  in
  go [] 1

let top_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

(* [heap_mb] is the peak heap after the first repetition: later
   repetitions reuse that heap, and how many of them fit in the run
   depends on host speed, so only the first is comparable across runs. *)
let end_to_end_values sampler (reps : Workloads.rep list) ~heap_mb =
  let ops = sumi (fun (r : Workloads.rep) -> r.attempted) reps in
  let host = Sampler.host sampler in
  let setups =
    Sampler.fastest_tenth ~time:Fun.id (List.map (fun (r : Workloads.rep) -> r.setup_ns) reps)
  in
  ( [
      ("ops_per_s", host.ops_per_s);
      ("op_p50_us", host.op.median);
      ("op_p99_us", host.op.p99);
      ("minor_words_per_op", ratio (sum (fun (r : Workloads.rep) -> r.minor_words) reps) (float_of_int ops));
      ("setup_s", Sampler.median (Array.of_list (List.map (fun s -> s /. 1e9) setups)));
      ("top_heap_mb", heap_mb);
    ],
    [
      Printf.sprintf
        "%d ops timed over %d repetition(s); ops_per_s and op_* are over the %d op(s) of the fastest %d, setup_s over the fastest %d set-ups"
        ops host.reps host.op.samples host.kept (List.length setups);
    ] )

(* Per-layer values from (untraced, traced) repetition pairs of equal
   seed. Counts come from the untraced side and must repeat exactly on
   the traced side: the meter may cost time, never change the schedule. *)
let per_layer_values sampler pairs ~ladder ~micro =
  let us = List.map fst pairs and ts = List.map snd pairs in
  let ops = float_of_int (sumi (fun (r : Workloads.rep) -> r.attempted) us) in
  let total (reps : Workloads.rep list) name =
    let i = Workloads.count_index name in
    float_of_int (sumi (fun (r : Workloads.rep) -> r.counts.(i)) reps)
  in
  let c name = total us name in
  let per_op name = ratio (c name) ops in
  let domains = float_of_int (List.hd us).Workloads.domains in
  let wall reps = sum (fun (r : Workloads.rep) -> r.wall_ns) reps in
  let role f r = sum (fun (t : Workloads.rep) -> (f t).(Meter.role_index r)) ts in
  let busy = List.fold_left (fun acc r -> acc +. role (fun t -> t.Workloads.role_ns) r) 0. Meter.roles in
  let unattributed_pct = 100. *. (1. -. ratio busy (wall ts *. domains)) in
  let vlat = Sampler.summarise (Sampler.virt_us sampler) in
  let lookups = c "nsp.cache_hits" +. c "nsp.cache_stale" +. c "nsp.cache_misses" in
  let explore i = ratio (sum (fun (r : Workloads.rep) -> r.explore.(i)) us) ops in
  List.concat_map
    (fun r ->
      let n = Meter.role_name r in
      [
        (n ^ ".busy_ns", ratio (role (fun t -> t.Workloads.role_ns) r) ops);
        (n ^ ".minor_words", ratio (role (fun t -> t.Workloads.role_words) r) ops);
      ])
    Meter.roles
  @ [
      ("busy.residual_pct", unattributed_pct);
      ("trace_overhead_pct", 100. *. (ratio (wall ts) (wall us) -. 1.));
      ("sched.events_per_op", per_op "sched.events");
      ("sched.ns_per_event", ratio (wall us) (c "sched.events"));
      ("nd.frames_per_op", per_op "nd.frames_sent");
      ("frame.bytes_copied_per_op", per_op "frame.bytes_copied");
      ("pool.hit_ratio", ratio (c "pool.hits") (c "pool.hits" +. c "pool.misses"));
      ("pool.high_water", List.fold_left (fun acc (r : Workloads.rep) -> Float.max acc r.pool_high_water) 0. us);
      ("gw.forwards_per_op", per_op "gw.forwards");
      ("nsp.cache_hit_ratio", ratio (c "nsp.cache_hits") lookups);
      ("nsp.cache_stale_ratio", ratio (c "nsp.cache_stale") lookups);
      ("ns.lookups_per_op", per_op "ns.lookups");
      ("ns.shard_forwards_per_op", per_op "ns.shard.forwards");
      ("lcm.retries_per_op", per_op "lcm.retries");
      ("ip.opens_per_op", per_op "ip.opens");
      ("trace.entries_per_op", per_op "trace.entries");
      ("obs.spans_per_op", per_op "obs.spans");
      ("explore.setup_ns", explore 0);
      ("explore.run_ns", explore 1);
      ("explore.choice_points_per_schedule", explore 2);
      ("barrier.epochs_per_op", ratio (float_of_int (sumi (fun (r : Workloads.rep) -> r.epochs) us)) ops);
      ("barrier.overhead_pct", if domains > 1. then unattributed_pct else 0.);
      ("sim.vlat_p50_us", vlat.median);
      ("sim.vlat_p99_us", vlat.p99);
    ]
  @ ladder
  @ List.concat_map (fun (n, ns, words) -> [ (n ^ "_ns", ns); (n ^ "_words", words) ]) micro

let pair_problems pairs =
  let us = List.map fst pairs and ts = List.map snd pairs in
  let same what f = if sum f us = sum f ts then [] else [ what ^ " differs between the traced and untraced runs" ] in
  let count name (r : Workloads.rep) = float_of_int r.counts.(Workloads.count_index name) in
  let single = List.for_all (fun (r : Workloads.rep) -> r.domains = 1) (us @ ts) in
  same "sched.events_per_op" (count "sched.events")
  @ same "nd.frames_per_op" (count "nd.frames_sent")
  @ if single then same "minor_words_per_op" (fun (r : Workloads.rep) -> r.minor_words) else []

let rep_problems (reps : Workloads.rep list) =
  let failed = sumi (fun (r : Workloads.rep) -> r.failed) reps in
  if failed > 0 then [ Printf.sprintf "%d op(s) failed or returned a wrong result" failed ] else []

let run_workload w ~seed ~seconds ~trace =
  let budget_ns = int_of_float (seconds *. 1e9) in
  let sampler = Sampler.create () in
  let rep ~pass ~sampler ~ops = w.rep ~seed ~pass ~sampler ~warmup:w.warmup ~ops in
  try
    if not trace then begin
      let heap_mb = ref 0. in
      let reps =
        repeat ~budget_ns (fun () ->
            let r = rep ~pass:Workloads.Timed ~sampler ~ops:w.ops in
            if !heap_mb = 0. then heap_mb := top_heap_mb ();
            r)
      in
      let values, notes = end_to_end_values sampler reps ~heap_mb:!heap_mb in
      let bad = List.filter (fun (_, v) -> not (Float.is_finite v && v > 0.)) values in
      {
        attempted = sumi (fun (r : Workloads.rep) -> r.attempted) reps;
        failed = sumi (fun (r : Workloads.rep) -> r.failed) reps;
        problems =
          rep_problems reps @ List.map (fun (n, v) -> Printf.sprintf "%s = %g" n v) bad;
        values;
        notes;
      }
    end
    else begin
      (* The ladder and micro-benchmarks run first, in a fresh process, so
         no workload's leftover heap or domains colour them. *)
      let t0 = Sampler.now_ns () in
      let ladder = Micro.ladder ~seed ~calls:300 in
      let micro = Micro.micro ~quota:0.1 in
      let pairs =
        repeat ~budget_ns:(max 1 (budget_ns - (Sampler.now_ns () - t0))) (fun () ->
            let u = rep ~pass:Workloads.Twin ~sampler ~ops:(w.ops / 2) in
            let t = rep ~pass:Workloads.Metered ~sampler:(Sampler.create ()) ~ops:(w.ops / 2) in
            (u, t))
      in
      let values = per_layer_values sampler pairs ~ladder ~micro in
      let reps = List.map fst pairs @ List.map snd pairs in
      let residual = List.assoc "busy.residual_pct" values in
      {
        attempted = sumi (fun (r : Workloads.rep) -> r.attempted) reps;
        failed = sumi (fun (r : Workloads.rep) -> r.failed) reps;
        problems =
          rep_problems reps @ pair_problems pairs
          @
          if (List.hd reps).Workloads.domains = 1 && Float.abs residual > 5. then
            [ Printf.sprintf "role busy times miss the traced wall time by %.1f%%" residual ]
          else [];
        values;
        notes =
          [
            Printf.sprintf
              "%d (untraced, traced) repetition pair(s) of %d op(s) each; ladder rungs are medians of 300 calls"
              (List.length pairs) (List.hd pairs |> fst).Workloads.attempted;
          ];
      }
    end
  with Workloads.Setup_failed e ->
    { attempted = 1; failed = 1; problems = [ "set-up failed: " ^ e ]; values = []; notes = [] }

let units = end_to_end @ per_layer

let report ~workload o =
  List.iter
    (fun (n, v) -> Printf.printf "%s %s %.6g %s\n" workload n v (List.assoc n units))
    o.values;
  List.iter (fun s -> Printf.printf "%s (%s)\n" workload s) o.notes;
  List.iter (fun p -> Printf.printf "%s CHECK FAILED: %s\n" workload p) o.problems;
  let metric (n, v) =
    (n, Json.Obj [ ("value", Json.Num (if Float.is_finite v then v else 0.)); ("unit", Json.Str (List.assoc n units)) ])
  in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool (o.problems = []));
            ("attempted", Json.Num (float_of_int (max 1 o.attempted)));
            ("failed", Json.Num (float_of_int o.failed));
            ("metrics", Json.Obj (List.map metric o.values));
          ]))

(* --- all: every workload, untraced then traced, each in a fresh process --- *)

let run_all ~seed ~seconds ~out =
  Option.iter (fun d -> if not (Sys.file_exists d) then Sys.mkdir d 0o755) out;
  let ok = ref true in
  List.iter
    (fun w ->
      List.iter
        (fun trace ->
          let args =
            [| Sys.executable_name; "--workload"; w.name; "--seed"; string_of_int seed; "--seconds";
               Printf.sprintf "%g" seconds; "--trace"; (if trace then "1" else "0") |]
          in
          let ic = Unix.open_process_args_in Sys.executable_name args in
          let lines = In_channel.input_all ic in
          (match Unix.close_process_in ic with Unix.WEXITED 0 -> () | _ -> ok := false);
          print_string lines;
          flush stdout;
          Option.iter
            (fun d ->
              let file =
                Filename.concat d
                  (Printf.sprintf "%s.%d%s.json" w.name seed (if trace then ".trace" else ""))
              in
              Out_channel.with_open_text file (fun oc -> output_string oc lines))
            out)
        [ false; true ])
    workloads;
  if not !ok then exit 1

(* --- smoke: every workload at ~1% size, checks only --- *)

let check_spec path =
  let spec = Json.parse (In_channel.with_open_text path In_channel.input_all) in
  let names key =
    List.map
      (fun m ->
        let field k = Option.map Json.to_string_exn (Json.member k m) in
        String.concat "/" (List.filter_map field [ "name"; "unit" ]))
      (Json.to_list_exn (Json.member_exn key spec))
  in
  let problems = ref [] in
  let expect what got want =
    if got <> want then
      problems :=
        Printf.sprintf "%s in %s: [%s], harness: [%s]" what path (String.concat " " got)
          (String.concat " " want)
        :: !problems
  in
  expect "workloads" (names "workloads") (List.map (fun w -> w.name) workloads);
  expect "end_to_end" (names "end_to_end") (List.map (fun (n, u) -> n ^ "/" ^ u) end_to_end);
  expect "per_layer" (names "per_layer") (List.map (fun (n, u) -> n ^ "/" ^ u) per_layer);
  !problems

let smoke ~spec =
  let t0 = Sampler.now_ns () in
  let problems = ref (match spec with Some p -> check_spec p | None -> []) in
  let fail p = problems := p :: !problems in
  let same_names what values want =
    if List.map fst values <> List.map fst want then fail (what ^ ": harness reports other metrics")
  in
  let extras =
    try Some (Micro.ladder ~seed:1 ~calls:10, Micro.micro ~quota:0.002)
    with Workloads.Setup_failed e -> fail ("ladder: " ^ e); None
  in
  List.iter
    (fun w ->
      try
        let t_w = Sampler.now_ns () in
        let rep pass sampler =
          w.rep ~seed:1 ~pass ~sampler ~warmup:(min w.warmup 20) ~ops:w.smoke_ops
        in
        (* The timed repetition doubles as the untraced twin: for ring-par
           it runs on one domain against the metered run's two, which
           must still agree on every count. *)
        let sampler = Sampler.create () in
        let timed = rep Workloads.Timed sampler in
        let pairs = [ (timed, rep Workloads.Metered (Sampler.create ())) ] in
        let reps = List.map fst pairs @ List.map snd pairs in
        let ps = rep_problems reps @ pair_problems pairs in
        Printf.printf "smoke %-10s %6d ops %5.2f s  %s\n%!" w.name
          (sumi (fun (r : Workloads.rep) -> r.attempted) reps)
          (float_of_int (Sampler.now_ns () - t_w) /. 1e9)
          (if ps = [] then "ok" else String.concat "; " ps);
        List.iter (fun p -> fail (w.name ^ ": " ^ p)) ps;
        same_names "end_to_end" (fst (end_to_end_values sampler [ timed ] ~heap_mb:1.)) end_to_end;
        Option.iter
          (fun (ladder, micro) ->
            same_names "per_layer" (per_layer_values sampler pairs ~ladder ~micro) per_layer)
          extras
      with Workloads.Setup_failed e -> fail (w.name ^ ": set-up failed: " ^ e))
    workloads;
  Printf.printf "smoke done in %.2f s\n" (float_of_int (Sampler.now_ns () - t0) /. 1e9);
  List.iter (fun p -> Printf.printf "CHECK FAILED: %s\n" p) (List.rev !problems);
  if !problems <> [] then exit 1

(* --- command line --- *)

let usage () =
  prerr_endline
    "usage: ntcs_bench --workload W --seed N --seconds S --trace 0|1\n\
    \       ntcs_bench all [--seed N] [--seconds S] [--out DIR]\n\
    \       ntcs_bench smoke [--spec BENCHMARK.json]\n\
    \       ntcs_bench compare DIR_A DIR_B [--spec BENCHMARK.json]";
  prerr_endline
    ("workloads: " ^ String.concat " " (List.map (fun w -> w.name) workloads));
  exit 2

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec opts acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" -> opts ((k, v) :: acc) rest
    | [] -> (acc, [])
    | rest -> (acc, rest)
  in
  let mode, args = match args with m :: rest when m <> "" && m.[0] <> '-' -> (m, rest) | _ -> ("run", args) in
  let positional, args =
    match mode with
    | "compare" -> (
      match args with a :: b :: rest -> ([ a; b ], rest) | _ -> usage ())
    | _ -> ([], args)
  in
  let kv, rest = opts [] args in
  if rest <> [] then usage ();
  let get k = List.assoc_opt k kv in
  let number parse k d =
    match get k with
    | None -> d
    | Some v -> ( match parse v with Some n -> n | None -> usage ())
  in
  let seed = number int_of_string_opt "--seed" 1 in
  let seconds = number float_of_string_opt "--seconds" 20. in
  match mode with
  | "run" ->
    let name = match get "--workload" with Some n -> n | None -> usage () in
    let w = match List.find_opt (fun w -> w.name = name) workloads with Some w -> w | None -> usage () in
    let trace = match get "--trace" with Some "1" -> true | Some "0" | None -> false | Some _ -> usage () in
    let o = run_workload w ~seed ~seconds ~trace in
    report ~workload:name o;
    if o.problems <> [] then exit 1
  | "all" -> run_all ~seed ~seconds ~out:(get "--out")
  | "smoke" -> smoke ~spec:(get "--spec")
  | "compare" -> (
    match positional with
    | [ a; b ] ->
      Compare.run ~spec:(Option.value ~default:"BENCHMARK.json" (get "--spec")) a b
        ~workloads:(List.map (fun w -> w.name) workloads)
    | _ -> usage ())
  | _ -> usage ()
