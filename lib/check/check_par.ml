(* Domain-parallel validation: the dynamic evidence behind DESIGN.md §14.

   Two harnesses, both consumed by `ntcs_check` (at 1, 2 and 4 domains)
   and test/test_par.ml:

   - [replicate]: run each scenario once solo, then again on N
     real OCaml domains at once — every replica builds its own world from
     the same seed, so every replica's trace must be byte-identical to the
     solo run and violation-free. This is the shard-isolation claim (a
     world owns all of its state; lint R8 flags any module-level mutable
     binding in lib/) exercised with actual preemptive parallelism.

   - [par_soak]: a coupled multi-shard world — ring of barrier channels,
     causal spans stitched across shards, a seeded per-shard crash/restart
     fault plane — run under every requested worker count, requiring the
     merged event log and blocked-process report to stay byte-identical;
     then once more with the race checker armed on every shard, and once
     more under a recording chooser whose per-shard choice logs must
     replay to the same bytes via [World.Config.Replay]. *)

module Mode = Ntcs_sim.Sched.Mode
module World = Ntcs_sim.World
module Config = Ntcs_sim.World.Config
module Par = Ntcs_sim.World.Par
module Span = Ntcs_obs.Span

(* --- scenario replication on domains -------------------------------- *)

let scenario_run sc =
  let w, body = sc.Check_scenarios.sc_make Mode.default in
  let violations = body () in
  let trace = Format.asprintf "%a" Ntcs_sim.Trace.dump (World.trace w) in
  (trace, violations)

type replication = {
  rp_scenario : string;
  rp_replicas : int;
  rp_violations : string list; (* the solo run's own violations *)
  rp_divergent : int list; (* replica indices whose run differed *)
}

let replicate ?(replicas = 2) sc =
  let solo_trace, solo_violations = scenario_run sc in
  let doms =
    Array.init replicas (fun _ -> Domain.spawn (fun () -> scenario_run sc))
  in
  let divergent = ref [] in
  Array.iteri
    (fun i d ->
      let trace, violations = Domain.join d in
      if trace <> solo_trace || violations <> solo_violations then
        divergent := i :: !divergent)
    doms;
  {
    rp_scenario = sc.Check_scenarios.sc_name;
    rp_replicas = replicas;
    rp_violations = solo_violations;
    rp_divergent = List.rev !divergent;
  }

let replication_failed r = r.rp_violations <> [] || r.rp_divergent <> []

let report_replication ppf r =
  Format.fprintf ppf "%s: %d replica(s) on domains: %s@." r.rp_scenario
    r.rp_replicas
    (if replication_failed r then "DIVERGED" else "byte-identical, clean");
  List.iter
    (fun i -> Format.fprintf ppf "%s: replica %d diverged from the solo run@." r.rp_scenario i)
    r.rp_divergent;
  List.iter (fun v -> Format.fprintf ppf "%s: solo violation: %s@." r.rp_scenario v)
    r.rp_violations

(* --- the coupled soak workload --------------------------------------- *)

(* Geometry. Sends every [soak_period] µs with channel latency equal to
   the period, so round k's cross-shard delivery (owner 0, posted by the
   barrier flush) lands on the exact instant of the pump's round-(k+1)
   wakeup (owner = pump pid): a two-owner tie at every round, which is
   what makes the recording chooser actually record. *)
let soak_quantum = 1_000
let soak_period = 2_000
let soak_latency = 2_000
let soak_rounds = 40
let soak_close = 180_000 (* circuit close, after every delivery has landed *)
let soak_until = 200_000

(* Per-shard crash/restart of the victim machine — the seeded cross-shard
   fault soak. The schedule is data; each shard world arms its own plane. *)
let soak_faults =
  {
    Ntcs_sim.Faults.seed = 0xBA55;
    rules = [];
    schedule =
      [ (50_000, Ntcs_sim.Faults.Crash "m0"); (80_000, Ntcs_sim.Faults.Restart "m0") ];
  }

type token = { tk_ctx : Span.ctx; tk_round : int; tk_src : int }

let build_soak ?shard_config config =
  let p = Par.create ~quantum:soak_quantum ?shard_config config in
  let n = Par.shard_count p in
  for i = 0 to n - 1 do
    let w = Par.shard p i in
    let sched = World.sched w in
    let m0 = World.add_machine w ~name:"m0" Ntcs_sim.Machine.Sun3 () in
    let m1 = World.add_machine w ~name:"m1" Ntcs_sim.Machine.Sun3 () in
    (* The fault plane's victim: crashed at 50ms, machine restarted at
       80ms (the process stays dead — restart revives the machine, not
       its tenants). *)
    ignore
      (World.spawn w ~machine:m0 ~name:"victim" (fun () ->
           Ntcs_sim.Sched.sleep sched 1_000_000_000));
    (* A process still blocked at teardown, for the shard-stable
       blocked-process report. *)
    ignore
      (World.spawn w ~machine:m1 ~name:"resident" (fun () ->
           Ntcs_sim.Sched.sleep sched 1_000_000_000));
    let out = Par.chan p ~src:i ~dst:((i + 1) mod n) ~latency:soak_latency in
    let dst = Par.shard p ((i + 1) mod n) in
    Ntcs_sim.Barrier.Chan.set_handler out (fun tok ->
        World.record dst ~cat:"par.recv" ~actor:"ring"
          (Printf.sprintf "round %d from s%d" tok.tk_round tok.tk_src);
        World.span dst ~ctx:tok.tk_ctx ~phase:Span.I ~name:"par.hop" ~actor:"ring"
          (Text (Printf.sprintf "s%d->s%d" tok.tk_src ((tok.tk_src + 1) mod n)));
        World.span dst ~ctx:tok.tk_ctx ~phase:Span.E ~name:"par.msg" ~actor:"ring"
          (Text "delivered"));
    (* The pump is a plain scheduler process (not a machine tenant), so
       the m0 crash never kills it: its circuit closes cleanly. *)
    let circuit = Ntcs_obs.Registry.fresh_circuit (World.obs w) in
    ignore
      (Ntcs_sim.Sched.spawn ~name:"pump" sched (fun () ->
           World.span w ~ctx:(Span.make ~circuit ~seq:0) ~phase:Span.B
             ~name:"par.circuit" ~actor:"pump" (Text "open");
           for k = 1 to soak_rounds do
             Ntcs_sim.Sched.sleep sched soak_period;
             let ctx = Span.make ~circuit ~seq:k in
             World.record w ~cat:"par.send" ~actor:"pump"
               (Printf.sprintf "round %d" k);
             World.span w ~ctx ~phase:Span.B ~name:"par.msg" ~actor:"pump" (Text "send");
             Ntcs_sim.Barrier.Chan.send out { tk_ctx = ctx; tk_round = k; tk_src = i }
           done;
           Ntcs_sim.Sched.sleep sched (soak_close - (soak_rounds * soak_period));
           World.span w ~ctx:(Span.make ~circuit ~seq:0) ~phase:Span.E
             ~name:"par.circuit" ~actor:"pump" (Text "shutdown")))
  done;
  p

(* Everything the determinism contract covers, rendered to strings: one
   line per merged event, prefixed "s<i> " (the shard tag), and the
   teardown report. *)
let snapshot p =
  let lines =
    List.map (fun (i, e) -> Format.asprintf "s%d %a" i Span.pp_event e) (Par.merged_events p)
  in
  (lines, Par.blocked_processes p)

type par_report = {
  pr_domains : int;
  pr_workers : int list;
  pr_epochs : int;
  pr_messages : int;
  pr_events : int; (* merged event-log lines of the reference run *)
  pr_choices : int; (* chooser consultations recorded in the replay pass *)
  pr_blocked : string list;
  pr_race_conflicts : int;
  pr_span_violations : Check_trace.violation list;
  pr_divergences : string list;
}

let par_soak ?(domains = 2) ?(workers = [ 1; 2; 4 ]) ?(seed = 42) () =
  let config =
    { Config.default with Config.seed; domains; faults = Some soak_faults }
  in
  let divergences = ref [] in
  let diverged fmt = Printf.ksprintf (fun s -> divergences := s :: !divergences) fmt in
  let run_soak ?shard_config ~workers cfg =
    let p = build_soak ?shard_config cfg in
    Par.run ~until:soak_until ~workers p;
    p
  in
  (* Reference: the sequential (workers = 1) run. *)
  let ref_p = run_soak ~workers:1 config in
  let ref_lines, ref_blocked = snapshot ref_p in
  let expect_messages = domains * soak_rounds in
  if Par.messages_exchanged ref_p <> expect_messages then
    diverged "reference run exchanged %d cross-shard messages, expected %d"
      (Par.messages_exchanged ref_p) expect_messages;
  (* Worker matrix: bit-identical output for every worker count. *)
  List.iter
    (fun w ->
      let p = run_soak ~workers:w config in
      let lines, blocked = snapshot p in
      if lines <> ref_lines then diverged "workers=%d: merged event log diverges" w;
      if blocked <> ref_blocked then
        diverged "workers=%d: blocked-process report diverges" w;
      if Par.epochs p <> Par.epochs ref_p then
        diverged "workers=%d: epoch count %d, expected %d" w (Par.epochs p)
          (Par.epochs ref_p))
    workers;
  (* Race pass: checker armed on every shard, run at full parallelism.
     Arming must neither find a conflict nor perturb the bytes. *)
  let race_conflicts =
    let p = build_soak config in
    let checkers = Array.to_list (Array.map Check_race.arm (Par.shards p)) in
    Par.run ~until:soak_until ~workers:(List.fold_left max 1 workers) p;
    if snapshot p <> (ref_lines, ref_blocked) then
      diverged "race-armed run diverges from the reference bytes";
    List.concat_map Check_race.conflicts checkers
  in
  (* Replay pass: a recording chooser breaks the two-owner ties its own
     way; feeding each shard its recorded choice log back must reproduce
     the exact bytes. *)
  let choices =
    let rotate ~time ~owners = time / soak_period mod Array.length owners in
    let p =
      run_soak ~workers:1 { config with Config.chooser = Config.Choose rotate }
    in
    let logs = Par.choice_logs p in
    let chosen = snapshot p in
    let shard_config i =
      {
        (Config.shard config ~shard:i) with
        Config.chooser = Config.Replay (List.map fst logs.(i));
      }
    in
    let replayed = snapshot (run_soak ~shard_config ~workers:1 config) in
    if replayed <> chosen then diverged "choice-log replay diverges from the recorded run";
    let total = Array.fold_left (fun acc l -> acc + List.length l) 0 logs in
    if total = 0 then diverged "recording chooser was never consulted (no ties?)";
    total
  in
  {
    pr_domains = domains;
    pr_workers = workers;
    pr_epochs = Par.epochs ref_p;
    pr_messages = Par.messages_exchanged ref_p;
    pr_events = List.length ref_lines;
    pr_choices = choices;
    pr_blocked = ref_blocked;
    pr_race_conflicts = List.length race_conflicts;
    pr_span_violations = Check_trace.spans (List.map snd (Par.merged_events ref_p));
    pr_divergences = List.rev !divergences;
  }

let par_soak_failed r =
  r.pr_divergences <> [] || r.pr_span_violations <> [] || r.pr_race_conflicts > 0

let report_par ppf r =
  Format.fprintf ppf
    "par soak: %d shard(s), workers {%s}: %s (%d epochs, %d cross-shard msgs, \
     %d events, %d choices replayed)@."
    r.pr_domains
    (String.concat "," (List.map string_of_int r.pr_workers))
    (if par_soak_failed r then "FAILED" else "bit-identical, clean")
    r.pr_epochs r.pr_messages r.pr_events r.pr_choices;
  List.iter (fun d -> Format.fprintf ppf "par soak: %s@." d) r.pr_divergences;
  List.iter
    (fun v -> Format.fprintf ppf "par soak: span violation: %a@." Check_trace.pp_violation v)
    r.pr_span_violations;
  if r.pr_race_conflicts > 0 then
    Format.fprintf ppf "par soak: %d race conflict(s)@." r.pr_race_conflicts
