(* The URSA mini information-retrieval system: unit tests of the IR pieces
   and an end-to-end distributed search over the NTCS. *)

open Ntcs
open Helpers

let test_tokenizer () =
  Alcotest.(check (list string)) "splits and lowercases"
    [ "network"; "transparent"; "messages" ]
    (Ursa.Tokenizer.tokens "Network-TRANSPARENT messages!");
  Alcotest.(check (list string)) "drops stopwords" [ "cat"; "mat" ]
    (Ursa.Tokenizer.tokens "the cat is on the mat");
  Alcotest.(check (list string)) "empty" [] (Ursa.Tokenizer.tokens "  ... !!");
  let counts = Ursa.Tokenizer.term_counts "dog dog cat" in
  Alcotest.(check (list (pair string int))) "term counts" [ ("cat", 1); ("dog", 2) ] counts

let test_index_postings () =
  let doc d_id d_body = { Ursa.Corpus.d_id; d_title = ""; d_body } in
  let idx =
    Ursa.Index.of_docs [ doc 1 "gateway gateway circuit"; doc 2 "circuit naming" ]
  in
  let df term = List.length (Ursa.Index.postings idx term) in
  Alcotest.(check int) "docs" 2 (Ursa.Index.doc_count idx);
  Alcotest.(check int) "df circuit" 2 (df "circuit");
  Alcotest.(check int) "df gateway" 1 (df "gateway");
  (match Ursa.Index.postings idx "gateway" with
   | [ p ] ->
     Alcotest.(check int) "doc" 1 p.Ursa.Index.p_doc;
     Alcotest.(check int) "tf" 2 p.Ursa.Index.p_tf
   | _ -> Alcotest.fail "postings shape");
  Alcotest.(check (list int)) "missing term" []
    (List.map (fun p -> p.Ursa.Index.p_doc) (Ursa.Index.postings idx "nothing"))

let test_tf_idf_ranks_specific_terms_higher () =
  (* A term appearing in fewer documents scores higher at equal tf. *)
  let rare = Ursa.Index.tf_idf ~tf:2 ~df:1 ~n_docs:100 in
  let common = Ursa.Index.tf_idf ~tf:2 ~df:90 ~n_docs:100 in
  Alcotest.(check bool) "rare beats common" true (rare > common);
  Alcotest.(check (float 1e-9)) "zero df" 0. (Ursa.Index.tf_idf ~tf:3 ~df:0 ~n_docs:10)

let test_corpus_generation_deterministic () =
  let a = Ursa.Corpus.generate ~seed:7 20 and b = Ursa.Corpus.generate ~seed:7 20 in
  Alcotest.(check bool) "same corpus" true (a = b);
  let c = Ursa.Corpus.generate ~seed:8 20 in
  Alcotest.(check bool) "different seed differs" true (a <> c);
  Alcotest.(check int) "count" 20 (List.length a)

let test_corpus_partition () =
  let docs = Ursa.Corpus.generate 10 in
  let parts = Ursa.Corpus.partition 3 docs in
  Alcotest.(check int) "3 parts" 3 (List.length parts);
  let total = List.fold_left (fun acc p -> acc + List.length p) 0 parts in
  Alcotest.(check int) "no docs lost" 10 total;
  let ids = List.concat_map (List.map (fun d -> d.Ursa.Corpus.d_id)) parts in
  Alcotest.(check (list int)) "all ids present" (List.init 10 Fun.id) (List.sort compare ids)

let deploy_cluster () =
  let c = lan_cluster () in
  Cluster.settle c;
  let corpus = Ursa.Corpus.generate 60 in
  Ursa.Host.deploy c ~machines:[ "sun1"; "sun2" ] ~partitions:3 ~corpus
    ~search_machine:"vax1";
  Cluster.settle ~dt:5_000_000 c;
  (c, corpus)

let test_end_to_end_search () =
  let c, corpus = deploy_cluster () in
  let reply = ref None in
  ignore
    (Cluster.spawn c ~machine:"vax1" ~name:"user" (fun node ->
         let commod = bind_exn node ~name:"user" in
         let host = Ursa.Host.create commod in
         reply := Some (check_ok "search" (Ursa.Host.search ~k:5 host "gateway routing circuit"))));
  Cluster.settle ~dt:30_000_000 c;
  match !reply with
  | None -> Alcotest.fail "no reply"
  | Some r ->
    Alcotest.(check int) "all partitions answered" 3 r.Ursa.Ursa_msg.sr_partitions;
    Alcotest.(check bool) "found hits" true (List.length r.Ursa.Ursa_msg.sr_hits > 0);
    (* Scores sorted descending. *)
    let scores = List.map (fun h -> h.Ursa.Ursa_msg.h_score_milli) r.Ursa.Ursa_msg.sr_hits in
    Alcotest.(check (list int)) "ranked" (List.sort (fun a b -> compare b a) scores) scores;
    (* The top hit really contains at least one query term. *)
    (match r.Ursa.Ursa_msg.sr_hits with
     | top :: _ ->
       let doc = List.find (fun d -> d.Ursa.Corpus.d_id = top.Ursa.Ursa_msg.h_doc) corpus in
       let terms = Ursa.Tokenizer.tokens doc.Ursa.Corpus.d_body in
       Alcotest.(check bool) "top hit on-topic" true
         (List.exists (fun t -> List.mem t [ "gateway"; "routing"; "circuit" ]) terms)
     | [] -> Alcotest.fail "no hits")

let test_search_matches_local_reference () =
  (* The distributed answer must equal a single-machine reference ranking. *)
  let c, corpus = deploy_cluster () in
  let query = "name server resolution" in
  let reply = ref None in
  ignore
    (Cluster.spawn c ~machine:"vax1" ~name:"user" (fun node ->
         let commod = bind_exn node ~name:"user" in
         let host = Ursa.Host.create commod in
         reply := Some (check_ok "search" (Ursa.Host.search ~k:10 host query))));
  Cluster.settle ~dt:30_000_000 c;
  (* Reference: one big index. *)
  let idx = Ursa.Index.of_docs corpus in
  let terms = Ursa.Tokenizer.tokens query in
  let n_docs = Ursa.Index.doc_count idx in
  let scores = Hashtbl.create 32 in
  List.iter
    (fun term ->
      let postings = Ursa.Index.postings idx term in
      let df = List.length postings in
      List.iter
        (fun p ->
          let add = Ursa.Index.tf_idf ~tf:p.Ursa.Index.p_tf ~df ~n_docs in
          let cur =
            match Hashtbl.find_opt scores p.Ursa.Index.p_doc with Some s -> s | None -> 0.
          in
          Hashtbl.replace scores p.Ursa.Index.p_doc (cur +. add))
        postings)
    terms;
  let expected =
    Hashtbl.fold (fun d s acc -> (d, s) :: acc) scores []
    |> List.sort (fun (d1, s1) (d2, s2) ->
           match compare s2 s1 with 0 -> compare d1 d2 | c -> c)
    |> List.filteri (fun i _ -> i < 10)
    |> List.map fst
  in
  match !reply with
  | None -> Alcotest.fail "no reply"
  | Some r ->
    let got = List.map (fun h -> h.Ursa.Ursa_msg.h_doc) r.Ursa.Ursa_msg.sr_hits in
    Alcotest.(check (list int)) "distributed ranking equals reference" expected got

let test_document_fetch () =
  let c, corpus = deploy_cluster () in
  let fetched = ref None in
  ignore
    (Cluster.spawn c ~machine:"sun2" ~name:"reader" (fun node ->
         let commod = bind_exn node ~name:"reader" in
         let host = Ursa.Host.create commod in
         fetched := Some (check_ok "fetch" (Ursa.Host.fetch host ~doc:7))));
  Cluster.settle ~dt:30_000_000 c;
  match !fetched with
  | None -> Alcotest.fail "no fetch"
  | Some (title, fetched_body) ->
    let doc = List.find (fun d -> d.Ursa.Corpus.d_id = 7) corpus in
    Alcotest.(check string) "title" doc.Ursa.Corpus.d_title title;
    Alcotest.(check string) "body" doc.Ursa.Corpus.d_body fetched_body

let test_search_survives_partition_relocation () =
  (* Relocate an index partition mid-flight: the coordinator re-resolves
     through the naming service and answers from all partitions again. *)
  let c = lan_cluster () in
  Cluster.settle c;
  let corpus = Ursa.Corpus.generate 40 in
  let parts = Ursa.Corpus.partition 2 corpus in
  let pctl = Ntcs_drts.Process_ctl.create c in
  let specs =
    List.mapi
      (fun i docs ->
        {
          Ntcs_drts.Process_ctl.sp_name = Ursa.Servers.index_server_name i;
          sp_attrs = Ursa.Servers.index_server_attrs ~partition:i;
          sp_body = Ursa.Servers.index_server_body docs;
        })
      parts
  in
  let managed = List.map (fun spec -> Ntcs_drts.Process_ctl.start pctl spec ~machine:"sun1") specs in
  ignore
    (Cluster.spawn c ~machine:"vax1" ~name:"ursa-search" (fun node ->
         match Commod.bind node ~name:"ursa-search" ~attrs:Ursa.Servers.search_server_attrs with
         | Ok commod -> Ursa.Servers.search_server_body commod
         | Error e -> failwith (Errors.to_string e)));
  Cluster.settle ~dt:5_000_000 c;
  let first = ref None and second = ref None in
  ignore
    (Cluster.spawn c ~machine:"sun2" ~name:"user" (fun node ->
         let commod = bind_exn node ~name:"user" in
         let host = Ursa.Host.create commod in
         first := Some (check_ok "search 1" (Ursa.Host.search ~k:5 host "index search"));
         Ntcs_sim.Sched.sleep (Node.sched node) 8_000_000;
         second := Some (check_ok "search 2"
                           (Ursa.Host.search ~k:5 ~timeout_us:20_000_000 host "index search"))));
  Ntcs_sim.Sched.after (Cluster.sched c) 4_000_000 (fun () ->
      ignore (Ntcs_drts.Process_ctl.relocate pctl (List.hd managed) ~to_machine:"sun2"));
  Cluster.settle ~dt:60_000_000 c;
  (match !first with
   | Some r -> Alcotest.(check int) "both partitions before" 2 r.Ursa.Ursa_msg.sr_partitions
   | None -> Alcotest.fail "no first reply");
  match !second with
  | Some r -> Alcotest.(check int) "both partitions after relocation" 2 r.Ursa.Ursa_msg.sr_partitions
  | None -> Alcotest.fail "no second reply"

let () =
  Alcotest.run "ursa"
    [
      ( "ir-core",
        [
          Alcotest.test_case "tokenizer" `Quick test_tokenizer;
          Alcotest.test_case "index postings" `Quick test_index_postings;
          Alcotest.test_case "tf-idf" `Quick test_tf_idf_ranks_specific_terms_higher;
          Alcotest.test_case "corpus deterministic" `Quick test_corpus_generation_deterministic;
          Alcotest.test_case "corpus partition" `Quick test_corpus_partition;
        ] );
      ( "distributed",
        [
          Alcotest.test_case "end-to-end search" `Quick test_end_to_end_search;
          Alcotest.test_case "matches local reference" `Quick test_search_matches_local_reference;
          Alcotest.test_case "document fetch" `Quick test_document_fetch;
          Alcotest.test_case "partition relocation" `Quick
            test_search_survives_partition_relocation;
        ] );
    ]
