(* `ntcs_bench compare A B`: parent runs in directory A, change runs in B.

   Each directory holds result files named "<workload>.<anything>.json"
   (what `ntcs_bench all --out DIR` writes, or a run's stdout saved under
   that name); the last line of each is the run's JSON result. Traced
   results are skipped. Files are paired in name order, so run the two
   sides with the same seeds, alternating which goes first.

   Per workload and end-to-end metric it prints both medians and
   quartiles, the share of pairs the change wins (ties count for
   neither), and a verdict:
   - "worse": the change's median is worse than the parent's by more than
     the metric's bound in BENCHMARK.json;
   - "improved": the change wins at least 9 pairs in 10 and the medians
     differ by more than the parent's own quartile spread;
   - "unresolved": the parent's spread is wider than the bound and not
     every change run beats every parent run;
   - "within bound" otherwise. *)

let last_line s =
  match List.rev (List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' s)) with
  | l :: _ -> l
  | [] -> ""

(* metric name -> value, for each untraced result of [workload] in [dir] *)
let load dir workload =
  Sys.readdir dir |> Array.to_list |> List.sort String.compare
  |> List.filter (fun f ->
         Filename.check_suffix f ".json"
         && String.length f > String.length workload
         && String.sub f 0 (String.length workload + 1) = workload ^ ".")
  |> List.filter_map (fun f ->
         let j = Json.parse (last_line (In_channel.with_open_text (Filename.concat dir f) In_channel.input_all)) in
         let metrics = match Json.member_exn "metrics" j with Json.Obj kv -> kv | _ -> [] in
         let values = List.map (fun (k, m) -> (k, Json.to_float_exn (Json.member_exn "value" m))) metrics in
         if List.mem_assoc "setup_s" values then Some values else None)

let run ~spec a b ~workloads =
  let spec = Json.parse (In_channel.with_open_text spec In_channel.input_all) in
  let metrics =
    List.map
      (fun m ->
        ( Json.to_string_exn (Json.member_exn "name" m),
          Json.to_string_exn (Json.member_exn "better" m) = "higher",
          Json.to_float_exn (Json.member_exn "bound" m) ))
      (Json.to_list_exn (Json.member_exn "end_to_end" spec))
  in
  let worse_seen = ref false in
  Printf.printf "%-10s %-20s %5s %12s %25s %12s %25s %6s  %s\n" "workload" "metric" "pairs"
    "A median" "A q1..q3" "B median" "B q1..q3" "B wins" "verdict";
  List.iter
    (fun w ->
      let ra = load a w and rb = load b w in
      let pairs = min (List.length ra) (List.length rb) in
      if pairs > 0 then
        List.iter
          (fun (name, higher, bound) ->
            let col rs = Array.of_list (List.filter_map (List.assoc_opt name) rs) in
            let xa = col ra and xb = col rb in
            let qa1, ma, qa3 = Sampler.quartiles xa and qb1, mb, qb3 = Sampler.quartiles xb in
            let better x y = if higher then x > y else x < y in
            let wins = ref 0 and ties = ref 0 in
            for i = 0 to min (Array.length xa) (Array.length xb) - 1 do
              if xb.(i) = xa.(i) then incr ties else if better xb.(i) xa.(i) then incr wins
            done;
            let decided = min (Array.length xa) (Array.length xb) - !ties in
            let win_rate = if decided = 0 then 0. else float_of_int !wins /. float_of_int decided in
            let worse_by = (if higher then ma -. mb else mb -. ma) /. Float.abs ma in
            let spread = (qa3 -. qa1) /. Float.abs ma in
            let all_better = Array.for_all (fun y -> Array.for_all (fun x -> better y x) xa) xb in
            let verdict =
              if worse_by > bound then "worse than bound"
              else if win_rate >= 0.9 && Float.abs (mb -. ma) > qa3 -. qa1 && better mb ma then "improved"
              else if spread > bound && not all_better then "unresolved"
              else "within bound"
            in
            if worse_by > bound then worse_seen := true;
            Printf.printf "%-10s %-20s %5d %12.6g %12.6g..%-12.6g %12.6g %12.6g..%-12.6g %5.0f%%  %s\n"
              w name pairs ma qa1 qa3 mb qb1 qb3 (100. *. win_rate) verdict)
          metrics
      else Printf.printf "%-10s (no result pairs)\n" w)
    workloads;
  if !worse_seen then exit 1
