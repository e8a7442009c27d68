(* Shared helpers for the experiment harness: table printing and a Bechamel
   runner for the host-CPU micro-benchmarks. *)

let header title paper_ref =
  Printf.printf "\n=== %s ===\n" title;
  Printf.printf "    paper: %s\n\n" paper_ref

let table ~columns rows =
  let widths =
    List.mapi
      (fun i c ->
        List.fold_left (fun acc r -> max acc (String.length (List.nth r i)))
          (String.length c) rows)
      columns
  in
  let print_row cells =
    List.iteri
      (fun i cell -> Printf.printf "  %-*s" (List.nth widths i + 2) cell)
      cells;
    print_newline ()
  in
  print_row columns;
  print_row (List.map (fun w -> String.make w '-') widths);
  List.iter print_row rows

let us v = Printf.sprintf "%.0f us" v
let ratio a b =
  if b = 0. then "effectively infinite (denominator ~0)" else Printf.sprintf "%.2fx" (a /. b)

(* --- Bechamel runner: returns (name, ns/run) pairs --- *)

let bechamel_run ?(quota = 0.25) tests =
  let open Bechamel in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~kde:None () in
  let raw = Benchmark.all cfg instances (Test.make_grouped ~name:"g" tests) in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  Hashtbl.fold
    (fun name ols acc ->
      let est =
        match Analyze.OLS.estimates ols with Some (e :: _) -> e | Some [] | None -> nan
      in
      (name, est) :: acc)
    results []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let ns_per_run v = if Float.is_nan v then "n/a" else Printf.sprintf "%10.0f ns" v
