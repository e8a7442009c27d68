(* ntcs_check driver: the static analyses over source trees, and the
   dynamic schedule-exploration entry point. *)

(* Automaton soundness surfaces as diagnostics so a broken checker can
   never report a clean repo. *)
let automaton_diags () =
  List.map
    (fun p -> Lint_diag.make ~file:"lib/check/check_auto.ml" ~line:1 ~rule:"automaton" p)
    (Check_auto.check_automaton ())

let check_sources srcs =
  Lint_diag.sort (automaton_diags () @ Check_proto.check srcs @ Check_graph.check srcs)

let static_check paths =
  let srcs = List.map Lint_lex.load (Lint.source_files paths) in
  check_sources srcs

let report ppf diags =
  List.iter (fun d -> Format.fprintf ppf "%a@." Lint_diag.pp d) (Lint_diag.sort diags)

type exploration = {
  x_scenario : string;
  x_outcome : Ntcs_sim.Explore.outcome;
}

(* One explorer for every scenario list: the bounded scenarios (exhaustive,
   `ntcs_check`), the fault soaks and the sharded naming soaks. *)
let explore ?max_schedules ?(sanitize = false) ?(races = false) scenarios =
  let mode = { Ntcs_sim.Sched.Mode.sanitize; races } in
  List.map
    (fun sc ->
      { x_scenario = sc.Check_scenarios.sc_name;
        x_outcome = Check_scenarios.explore ?max_schedules ~mode sc })
    scenarios

let exploration_failed x =
  x.x_outcome.Ntcs_sim.Explore.truncated || x.x_outcome.Ntcs_sim.Explore.failures <> []

(* The soak contract. The fault and naming scenarios' schedule trees are
   effectively unbounded (retry timers keep breeding same-time ties), so
   truncation is expected. What a soak demands is volume and silence: at
   least [min_schedules] schedules ran, and none of them produced a
   violation. *)
let fault_exploration_failed ?(min_schedules = 100) x =
  let o = x.x_outcome in
  o.Ntcs_sim.Explore.failures <> []
  || (o.Ntcs_sim.Explore.truncated && o.Ntcs_sim.Explore.schedules < min_schedules)

let report_exploration ppf x =
  Format.fprintf ppf "%s: %a@." x.x_scenario Ntcs_sim.Explore.pp_outcome x.x_outcome;
  List.iter
    (fun (path, msg) ->
      Format.fprintf ppf "%s: schedule [%s]: %s@." x.x_scenario
        (String.concat ";" (List.map string_of_int path))
        msg)
    x.x_outcome.Ntcs_sim.Explore.failures

let exploration_to_json xs =
  let b = Buffer.create 256 in
  Buffer.add_char b '[';
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_char b ',';
      let o = x.x_outcome in
      Buffer.add_string b
        (Printf.sprintf
           "{\"scenario\":\"%s\",\"schedules\":%d,\"choice_points\":%d,\"max_branch\":%d,\
            \"truncated\":%b,\"failures\":%d}"
           x.x_scenario o.Ntcs_sim.Explore.schedules o.Ntcs_sim.Explore.choice_points
           o.Ntcs_sim.Explore.max_branch o.Ntcs_sim.Explore.truncated
           (List.length o.Ntcs_sim.Explore.failures)))
    xs;
  Buffer.add_char b ']';
  Buffer.contents b
