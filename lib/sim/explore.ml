(* Exhaustive schedule exploration for bounded scenarios.

   The scheduler is deterministic, so the only nondeterminism a real system
   would exhibit shows up here as *same-time* events owned by different
   processes. [Sched.set_chooser] turns each such point into an explicit
   choice; this module drives a depth-first enumeration of every choice
   sequence, rebuilding the world from scratch for each schedule (scenarios
   are closures over fresh state, and same choices => same run).

   The reduction is persistent-set flavoured rather than brute-force over
   event permutations: each owner's events are a fixed program-order
   sequence, so a choice point over k same-time events collapses to a choice
   over the (usually far fewer) distinct owners, and singleton points never
   branch at all. That is exactly the set of schedules a preemptive OS
   scheduler could produce under the simulator's timing model.

   A budget caps the number of schedules; exhausting it marks the outcome
   [truncated] so a test can insist on full exploration. *)

type outcome = {
  schedules : int; (* schedules fully executed *)
  choice_points : int; (* multi-owner points encountered, over all schedules *)
  max_branch : int; (* widest choice point seen *)
  truncated : bool; (* budget ran out before the tree was exhausted *)
  failures : (int list * string) list; (* (choice path, violation) *)
}

let pp_outcome ppf o =
  Format.fprintf ppf "%d schedule(s), %d choice point(s), max branch %d%s, %d failure(s)"
    o.schedules o.choice_points o.max_branch
    (if o.truncated then " [truncated]" else ", exhaustive")
    (List.length o.failures)

(* One run under a choice [prefix]: choices beyond the prefix default to 0.
   Returns the (choice, arity) pairs actually taken, in order, plus the
   scenario's violations. Points where [branch] declines are taken in
   default order without consuming prefix — scenarios use this to boot
   deterministically and explore only the exchange under test. *)
let run_one ~prefix ~branch ~make ~on_choice =
  let taken = ref [] in
  let depth = ref 0 in
  let sched, body = make () in
  Sched.set_chooser sched
    (Some
       (fun ~time ~owners ->
         let n = Array.length owners in
         if not (branch ~time ~owners) then 0
         else begin
           let i = !depth in
           incr depth;
           let choice = match List.nth_opt prefix i with Some c -> c | None -> 0 in
           let choice = if choice < 0 || choice >= n then 0 else choice in
           taken := (choice, n) :: !taken;
           on_choice n;
           choice
         end));
  let violations =
    try body ()
    with e -> [ Printf.sprintf "schedule raised %s" (Printexc.to_string e) ]
  in
  let taken = List.rev !taken in
  let violations =
    (* Replay safety net: a prefix must be consumed in full, otherwise the
       scenario is not deterministic in its choices and the enumeration is
       meaningless. *)
    if !depth < List.length prefix then
      "schedule replay diverged: fewer choice points than the prefix" :: violations
    else violations
  in
  (taken, violations)

(* Next prefix in depth-first order: increment the deepest choice that still
   has unexplored siblings, dropping everything after it. *)
let next_prefix taken =
  let rec strip = function
    | [] -> None
    | (c, n) :: shallower ->
      if c + 1 < n then Some (List.rev_map fst shallower @ [ c + 1 ])
      else strip shallower
  in
  strip (List.rev taken)

let run ?(max_schedules = 1000) ?(branch = fun ~time:_ ~owners:_ -> true) ~make () =
  let schedules = ref 0 in
  let choice_points = ref 0 in
  let max_branch = ref 1 in
  let truncated = ref false in
  let failures = ref [] in
  let on_choice n =
    incr choice_points;
    if n > !max_branch then max_branch := n
  in
  let prefix = ref (Some []) in
  let continue_ = ref true in
  while !continue_ do
    match !prefix with
    | None -> continue_ := false
    | Some p ->
      if !schedules >= max_schedules then begin
        truncated := true;
        continue_ := false
      end
      else begin
        incr schedules;
        let taken, violations = run_one ~prefix:p ~branch ~make ~on_choice in
        let path = List.map fst taken in
        List.iter (fun v -> failures := (path, v) :: !failures) violations;
        prefix := next_prefix taken
      end
  done;
  {
    schedules = !schedules;
    choice_points = !choice_points;
    max_branch = !max_branch;
    truncated = !truncated;
    failures = List.rev !failures;
  }
