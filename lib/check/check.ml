(* ntcs_check driver: the static analyses over source trees, and the
   dynamic schedule-exploration entry point. *)

(* Automaton soundness surfaces as diagnostics so a broken checker can
   never report a clean repo. *)
let automaton_diags () =
  List.map
    (fun p -> Lint_diag.make ~file:"lib/check/check_auto.ml" ~line:1 ~rule:"automaton" p)
    (Check_auto.check_automaton ())

(* A file that does not parse is a finding here too: the analyses would
   otherwise see it as empty. *)
let check_sources srcs =
  Lint_diag.sort
    (automaton_diags ()
    @ List.concat_map (fun (s : Lint_lex.source) -> s.src_syntax) srcs
    @ Check_proto.check srcs @ Check_graph.check srcs)

let static_check paths = check_sources (Lint.load paths)

let report ppf diags =
  List.iter (fun d -> Format.fprintf ppf "%a@." Lint_diag.pp d) (Lint_diag.sort diags)

(* The two exploration contracts. Exhaustive: the whole tree must drain
   within the cap. Soak: the fault and naming trees are effectively
   unbounded (retry timers keep breeding same-time ties), so truncation at
   the cap is expected and volume is demanded instead. Under both, a
   scenario must branch at least once — one schedule proves nothing about
   interleavings. *)
type contract = {
  c_name : string;
  c_cap : int;
  c_floor : int;
  c_may_truncate : bool;
}

let exhaustive = { c_name = "exhaustive"; c_cap = 4000; c_floor = 2; c_may_truncate = false }
let soak = { c_name = "soak"; c_cap = 150; c_floor = 100; c_may_truncate = true }

type exploration = {
  x_scenario : string;
  x_contract : contract;
  x_outcome : Ntcs_sim.Explore.outcome;
}

(* Every explored world runs with the race checker armed: arming it
   leaves the schedule tree unchanged, so one armed pass checks a superset
   of what an unarmed one would. *)
let armed = { Ntcs_sim.Sched.Mode.races = true }

let explore contract scenarios =
  List.map
    (fun sc ->
      { x_scenario = sc.Check_scenarios.sc_name;
        x_contract = contract;
        x_outcome = Check_scenarios.explore ~max_schedules:contract.c_cap ~mode:armed sc })
    scenarios

let explore_all () =
  explore exhaustive Check_scenarios.exhaustive @ explore soak Check_scenarios.soaks

(* How the outcome breaks its contract, apart from the schedules' own
   violations. *)
let shortfall x =
  let c = x.x_contract and o = x.x_outcome in
  if o.Ntcs_sim.Explore.truncated && not c.c_may_truncate then
    Some (Printf.sprintf "%s contract: hit the %d-schedule cap" c.c_name c.c_cap)
  else if o.Ntcs_sim.Explore.schedules < c.c_floor then
    Some
      (Printf.sprintf "%s contract: %d schedule(s), at least %d required" c.c_name
         o.Ntcs_sim.Explore.schedules c.c_floor)
  else None

let exploration_failed x = x.x_outcome.Ntcs_sim.Explore.failures <> [] || shortfall x <> None

let report_exploration ppf x =
  Format.fprintf ppf "%s: %a@." x.x_scenario Ntcs_sim.Explore.pp_outcome x.x_outcome;
  Option.iter (Format.fprintf ppf "%s: %s@." x.x_scenario) (shortfall x);
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
           "{\"scenario\":\"%s\",\"contract\":\"%s\",\"schedules\":%d,\"choice_points\":%d,\
            \"max_branch\":%d,\"truncated\":%b,\"failures\":%d,\"failed\":%b}"
           x.x_scenario x.x_contract.c_name o.Ntcs_sim.Explore.schedules
           o.Ntcs_sim.Explore.choice_points o.Ntcs_sim.Explore.max_branch
           o.Ntcs_sim.Explore.truncated
           (List.length o.Ntcs_sim.Explore.failures)
           (exploration_failed x)))
    xs;
  Buffer.add_char b ']';
  Buffer.contents b
