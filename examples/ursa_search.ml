(* The paper's motivating application: a distributed information-retrieval
   system. Index and document servers live on Apollo workstations on an MBX
   ring; the search coordinator and the user's host processor are on an
   Ethernet; a gateway bridges the two. Every arrow in that picture is NTCS
   message passing — the application never mentions machines or networks.

   Run with: dune exec examples/ursa_search.exe *)

open Ntcs

let () =
  let cluster =
    Cluster.build
      ~nets:[ ("ether", Ntcs_sim.Net.Tcp_lan); ("ring", Ntcs_sim.Net.Mbx_ring) ]
      ~machines:
        [
          ("vax1", Ntcs_sim.Machine.Vax, [ "ether" ]);
          ("bridge", Ntcs_sim.Machine.Sun3, [ "ether"; "ring" ]);
          ("ap1", Ntcs_sim.Machine.Apollo, [ "ring" ]);
          ("ap2", Ntcs_sim.Machine.Apollo, [ "ring" ]);
        ]
      ~gateways:[ ("bridge-gw", "bridge", [ "ether"; "ring" ]) ]
      ~ns:"vax1" ()
  in
  Cluster.settle cluster;

  (* 120 documents, 4 partitions, backends on the ring. *)
  let corpus = Ursa.Corpus.generate 120 in
  Ursa.Host.deploy cluster ~machines:[ "ap1"; "ap2" ] ~partitions:4 ~corpus
    ~search_machine:"vax1";
  Cluster.settle ~dt:20_000_000 cluster;

  ignore
    (Cluster.spawn cluster ~machine:"vax1" ~name:"user" (fun node ->
         match Commod.bind node ~name:"user" with
         | Error e -> Printf.printf "bind failed: %s\n" (Errors.to_string e)
         | Ok commod ->
           let host = Ursa.Host.create commod in
           let queries =
             [ "network transparent message"; "gateway routing"; "index ranking" ]
           in
           List.iter
             (fun q ->
               Printf.printf "\nquery: %S\n" q;
               match Ursa.Host.search ~k:3 ~timeout_us:30_000_000 host q with
               | Error e -> Printf.printf "  search failed: %s\n" (Errors.to_string e)
               | Ok reply ->
                 Printf.printf "  %d partitions answered\n"
                   reply.Ursa.Ursa_msg.sr_partitions;
                 List.iter
                   (fun hit ->
                     match Ursa.Host.fetch host ~doc:hit.Ursa.Ursa_msg.h_doc with
                     | Ok (title, body) ->
                       Printf.printf "  doc %3d  score %5d  %-24s %s...\n"
                         hit.Ursa.Ursa_msg.h_doc hit.Ursa.Ursa_msg.h_score_milli title
                         (String.sub body 0 (min 42 (String.length body)))
                     | Error e ->
                       Printf.printf "  doc %3d  fetch failed: %s\n"
                         hit.Ursa.Ursa_msg.h_doc (Errors.to_string e))
                   reply.Ursa.Ursa_msg.sr_hits)
             queries));
  Cluster.settle ~dt:120_000_000 cluster;
  let m = Cluster.metrics cluster in
  Printf.printf
    "\nNTCS work underneath: %d frames sent, %d gateway forwards, %d name lookups\n"
    (Ntcs_obs.Registry.get m "nd.frames_sent")
    (Ntcs_obs.Registry.get m "gw.forwards")
    (Ntcs_obs.Registry.get m "ns.lookups")
