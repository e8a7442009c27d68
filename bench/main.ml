(* Experiment driver: regenerates every figure and every measurable claim of
   the paper (see DESIGN.md §5 and EXPERIMENTS.md). Run all experiments with
   no arguments, or name a subset: `dune exec bench/main.exe -- e5 e7`. *)

let experiments =
  [
    ("fig", "Figures 2-1 .. 2-4 (architecture)", Ntcs.Figures.all);
    ("e1", "E1: name-server removal", Experiments.e1_ns_removal);
    ("e2", "E2: resolution latency", Experiments.e2_resolution);
    ("e3", "E3: TAdd purge", Experiments.e3_tadd_purge);
    ("e4", "E4: dynamic reconfiguration", Experiments.e4_reconfig);
    ("e5", "E5: conversion micro-benchmarks", Experiments.e5_conversion);
    ("e6", "E6: adaptive mode selection", Experiments.e6_adaptive);
    ("e7", "E7: internet hops", Experiments.e7_internet);
    ("e8", "E8: recursion scenario", Experiments.e8_recursion);
    ("e9", "E9: NS fault guard ablation", Experiments.e9_ns_bug);
    ("e10", "E10: replicated naming", Experiments.e10_replication);
    ("e11", "E11: URSA end-to-end", Experiments.e11_ursa);
    ("a1", "A1: always-packed ablation", Experiments.a1_always_packed);
    ("a2", "A2: naming-cache ablation", Experiments.a2_no_cache);
  ]

let () =
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as names) -> names
    | _ -> List.map (fun (n, _, _) -> n) experiments
  in
  print_endline "NTCS experiment harness (Zeleznik, ICDCS 1986 reproduction)";
  List.iter
    (fun name ->
      match List.find_opt (fun (n, _, _) -> n = name) experiments with
      | Some (_, _, run) -> run ()
      | None ->
        Printf.printf "unknown experiment %S; known: %s\n" name
          (String.concat " " (List.map (fun (n, _, _) -> n) experiments)))
    requested;
  print_endline "\nAll requested experiments complete."
