(* Observability report: run a seeded reference workload and print what the
   obs plane saw — per-layer latency percentiles from the histograms, and
   per-circuit hop timelines reconstructed from the causal span log.

   Usage: dune exec bin/ntcs_stat.exe -- [--seed N] [--faults] [--json]
                                         [--naming] [--chrome FILE]
                                         [--spans FILE]

   Everything is deterministic: the same --seed prints the same report and
   writes byte-identical export files. *)

open Cmdliner
open Ntcs
module Span = Ntcs_obs.Span
module Registry = Ntcs_obs.Registry
module Export = Ntcs_obs.Export
module Histo = Ntcs_obs.Histo

let raw s = Ntcs_wire.Convert.payload_raw (Bytes.of_string s)

(* The measured workload: the two-network reference installation (ethernet +
   ring bridged by one prime gateway, NS on the vax), an echo worker on the
   ring, and a driver on the ethernet running synchronous calls, datagrams
   and pings across the gateway. Small but it exercises every span source:
   circuit opens, all five LCM primitives, gateway forwards, and (with
   --faults) the retry path. *)
let run_workload ~seed ~faults ~naming =
  (* One declarative World.Config carries the seed and, with --faults,
     the fault plane's seeded rules. With --naming the name space is
     served by the four-shard plane (DESIGN.md §15) and the driver
     re-resolves the worker before every call, so the report shows the
     NSP lookup cache and the shard router at work. *)
  let config =
    {
      Ntcs_sim.World.Config.default with
      Ntcs_sim.World.Config.seed;
      naming =
        (if naming then { Ntcs_sim.World.Config.shards = 4; cache_capacity = 512 }
         else Ntcs_sim.World.Config.default_naming);
      faults =
        (if not faults then None
         else
           Some
             {
               Ntcs_sim.Faults.seed;
               rules =
                 [
                   Ntcs_sim.Faults.rule ~from_us:3_000_000 ~until_us:20_000_000
                     ~drop:0.05 ~dup:0.05 ~delay:0.2 ~delay_us:30_000 ();
                 ];
               schedule = [];
             });
    }
  in
  let cluster =
    Cluster.build ~config
      ~nets:[ ("ether", Ntcs_sim.Net.Tcp_lan); ("ring", Ntcs_sim.Net.Mbx_ring) ]
      ~machines:
        [
          ("vax1", Ntcs_sim.Machine.Vax, [ "ether" ]);
          ("bridge", Ntcs_sim.Machine.Sun3, [ "ether"; "ring" ]);
          ("ap1", Ntcs_sim.Machine.Apollo, [ "ring" ]);
          ("sun1", Ntcs_sim.Machine.Sun3, [ "ether" ]);
        ]
      ~gateways:[ ("bridge-gw", "bridge", [ "ether"; "ring" ]) ]
      ~ns:"vax1"
      ~ns_replicas:(if naming then [ "sun1"; "bridge" ] else [])
      ()
  in
  Cluster.settle cluster;
  ignore
    (Cluster.spawn cluster ~machine:"ap1" ~name:"worker" (fun node ->
         match Commod.bind node ~name:"worker" with
         | Error _ -> ()
         | Ok commod ->
           let rec loop () =
             (match Ali_layer.receive commod with
              | Ok env when Ali_layer.expects_reply env ->
                ignore (Ali_layer.reply commod env (raw "echo"))
              | Ok _ | Error _ -> ());
             loop ()
           in
           loop ()));
  Cluster.settle ~dt:3_000_000 cluster;
  ignore
    (Cluster.spawn cluster ~machine:"sun1" ~name:"driver" (fun node ->
         match Commod.bind node ~name:"driver" with
         | Error _ -> ()
         | Ok commod -> (
           match Ali_layer.locate commod "worker" with
           | Error _ -> ()
           | Ok addr ->
             for _ = 1 to 6 do
               (* Under --naming, re-resolve before every call: after the
                  first miss these locates are what the cache answers. *)
               if naming then ignore (Ali_layer.locate commod "worker");
               ignore
                 (Ali_layer.send_sync commod ~dst:addr ~timeout_us:10_000_000
                    (raw "measured call"));
               ignore (Ali_layer.send_dgram commod ~dst:addr (raw "dgram"));
               Ntcs_sim.Sched.sleep (Node.sched node) 1_000_000
             done;
             ignore (Ali_layer.send commod ~dst:addr (raw "fire-and-forget")))));
  Cluster.settle ~dt:40_000_000 cluster;
  Cluster.metrics cluster

(* --- per-layer latency table --- *)

let layer_table r =
  let b = Buffer.create 1024 in
  Buffer.add_string b "-- per-layer latency and size distributions --\n";
  Buffer.add_string b
    (Printf.sprintf "%-26s %7s %8s %8s %8s %8s %8s\n" "histogram" "count" "p50" "p95"
       "p99" "max" "mean");
  List.iter
    (fun (name, h) ->
      Buffer.add_string b
        (Printf.sprintf "%-26s %7d %8d %8d %8d %8d %8.1f\n" name (Histo.count h)
           (Histo.p50 h) (Histo.p95 h) (Histo.p99 h) (Histo.max_value h) (Histo.mean h)))
    (Registry.histos_alist r);
  Buffer.contents b

(* --- naming-plane report (--naming) --- *)

(* What the sharded name service cost and saved: NSP lookup-cache traffic
   (hit rate is the headline), invalidation work (client floor raises and
   owner generation bumps), the shard router's forwards and fallbacks,
   and how the lookup load spread over the shards. *)
let naming_report r =
  let b = Buffer.create 512 in
  let get = Ntcs_obs.Registry.get r in
  let hits = get "nsp.cache_hits" in
  let stale = get "nsp.cache_stale" in
  let misses = get "nsp.cache_misses" in
  Buffer.add_string b "-- naming plane (4 shards) --\n";
  Buffer.add_string b
    (Printf.sprintf "lookup cache: %d hits, %d stale, %d misses (hit rate %s)\n" hits
       stale misses
       (if hits + stale + misses = 0 then "n/a"
        else
          Printf.sprintf "%.1f%%"
            (100. *. float_of_int hits /. float_of_int (hits + stale + misses))));
  Buffer.add_string b
    (Printf.sprintf "invalidations: %d owner generation bumps, %d cache floor raises\n"
       (get "ns.invalidations") (get "nsp.cache_invalidations"));
  Buffer.add_string b
    (Printf.sprintf "shard router: %d forwards, %d fallbacks; client failovers: %d\n"
       (get "ns.shard.forwards") (get "ns.shard.fallbacks") (get "nsp.failovers"));
  Buffer.add_string b "per-shard lookups:";
  for shard = 0 to 3 do
    Buffer.add_string b
      (Printf.sprintf "  shard%d %d" shard (get (Printf.sprintf "ns.shard%d.lookups" shard)))
  done;
  Buffer.add_string b "\n";
  Buffer.contents b

(* --- per-circuit timelines --- *)

(* The circuit-level B/E pair is the (circuit, seq=0) span. *)
let circuit_meta evs =
  let opened =
    List.find_opt
      (fun (e : Span.event) -> e.Span.ev_ctx.Span.sp_seq = 0 && e.Span.ev_phase = Span.B)
      evs
  in
  let closed =
    List.find_opt
      (fun (e : Span.event) -> e.Span.ev_ctx.Span.sp_seq = 0 && e.Span.ev_phase = Span.E)
      evs
  in
  (opened, closed)

let message_seqs evs =
  List.filter_map
    (fun (e : Span.event) ->
      if e.Span.ev_ctx.Span.sp_seq > 0 then Some e.Span.ev_ctx.Span.sp_seq else None)
    evs
  |> List.sort_uniq compare

let timeline_line evs seq =
  let mine =
    List.filter (fun (e : Span.event) -> e.Span.ev_ctx.Span.sp_seq = seq) evs
  in
  match List.find_opt (fun (e : Span.event) -> e.Span.ev_phase = Span.B) mine with
  | None -> None
  | Some b ->
    let fin = List.find_opt (fun (e : Span.event) -> e.Span.ev_phase = Span.E) mine in
    let hops =
      List.filter (fun (e : Span.event) -> e.Span.ev_phase = Span.I) mine
      |> List.map (fun (e : Span.event) ->
             Printf.sprintf "%s@%s+%d" e.Span.ev_name e.Span.ev_actor
               (e.Span.ev_at_us - b.Span.ev_at_us))
    in
    let outcome =
      match fin with
      | Some e ->
        Printf.sprintf "%+dus %s" (e.Span.ev_at_us - b.Span.ev_at_us)
          (Span.detail_to_string e.Span.ev_detail)
      | None -> "unfinished"
    in
    Some
      (Printf.sprintf "  #%-3d %-14s t=%-9d %-18s %s" seq b.Span.ev_name b.Span.ev_at_us
         outcome
         (if hops = [] then "" else "hops: " ^ String.concat " " hops))

let circuit_report r =
  let b = Buffer.create 4096 in
  Buffer.add_string b "-- per-circuit timelines --\n";
  List.iter
    (fun (c, evs) ->
      if c > 0 then begin
        let opened, closed = circuit_meta evs in
        let describe label = function
          | Some (e : Span.event) ->
            Printf.sprintf "%s t=%d %s" label e.Span.ev_at_us
              (Span.detail_to_string e.Span.ev_detail)
          | None -> label ^ " ?"
        in
        Buffer.add_string b
          (Printf.sprintf "circuit %d: %s, %s, msgs=%d\n" c
             (describe "opened" opened) (describe "closed" closed)
             (List.length (message_seqs evs)));
        List.iter
          (fun seq ->
            match timeline_line evs seq with
            | Some line -> Buffer.add_string b (line ^ "\n")
            | None -> ())
          (message_seqs evs)
      end)
    (Export.by_circuit r);
  Buffer.contents b

(* --- JSON report: stats + circuits, both from deterministic exporters --- *)

let json_report r =
  let circuits =
    Export.by_circuit r
    |> List.map (fun (c, evs) ->
           Printf.sprintf "{\"circuit\":%d,\"events\":[%s]}" c
             (String.concat "," (List.map Export.span_json evs)))
  in
  Printf.sprintf "{\"stats\":%s,\"circuits\":[%s]}" (Export.stats_json r)
    (String.concat "," circuits)

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

let report ~seed ~faults ~json ~naming ~chrome ~spans_out =
  let r = run_workload ~seed ~faults ~naming in
  (match chrome with
   | Some path ->
     write_file path (Export.chrome_trace r);
     if not json then Printf.printf "wrote Chrome trace to %s\n" path
   | None -> ());
  (match spans_out with
   | Some path ->
     write_file path (Export.spans_jsonl r);
     if not json then Printf.printf "wrote span events to %s\n" path
   | None -> ());
  if json then print_string (json_report r)
  else begin
    Printf.printf "== NTCS observability report (seed %d%s%s) ==\n\n" seed
      (if faults then ", fault plane armed" else "")
      (if naming then ", 4-shard naming plane" else "");
    print_string (layer_table r);
    print_newline ();
    if naming then begin
      print_string (naming_report r);
      print_newline ()
    end;
    print_string (circuit_report r);
    Printf.printf "\ncircuits allocated: %d   events logged: %d\n"
      (Registry.circuits_allocated r) (Registry.span_count r)
  end;
  0

let () =
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"World seed.") in
  let faults =
    Arg.(value & flag & info [ "faults" ] ~doc:"Arm the deterministic fault plane.")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the report as one JSON object.")
  in
  let naming =
    Arg.(value & flag
         & info [ "naming" ]
             ~doc:"Serve the workload's name space from the four-shard naming \
                   plane (replica name servers, NSP lookup caches) and print \
                   the naming section: cache hit rate, invalidation work, \
                   shard-router forwards/fallbacks and per-shard lookup load.")
  in
  let chrome =
    Arg.(value & opt (some string) None
         & info [ "chrome" ] ~docv:"FILE"
             ~doc:"Write a Chrome trace-event file (about:tracing / Perfetto).")
  in
  let spans_out =
    Arg.(value & opt (some string) None
         & info [ "spans" ] ~docv:"FILE" ~doc:"Write span events as JSONL.")
  in
  let term =
    Term.(const (fun seed faults json naming chrome spans_out ->
              report ~seed ~faults ~json ~naming ~chrome ~spans_out)
          $ seed $ faults $ json $ naming $ chrome $ spans_out)
  in
  exit
    (Cmd.eval'
       (Cmd.v
          (Cmd.info "ntcs_stat"
             ~doc:"Per-layer latency and per-circuit timelines from the obs plane.")
          term))
