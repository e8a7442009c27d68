(* The URSA backend servers (§1.2): "a number of backend servers (e.g., for
   index lookup, searching, or retrieval of documents), handling requests
   from host processors or user workstations", glued together exclusively
   through the NTCS.

   Index servers hold one corpus partition each and answer term lookups;
   doc-store servers answer document fetches; the search server coordinates:
   it locates every index partition through attribute-based naming, fans the
   query out, merges tf-idf scores and returns the top-k. *)

open Ntcs
open Ntcs_wire

let index_service = "ursa-index"
let doc_service = "ursa-docs"
let search_service = "ursa-search"

(* --- index server --- *)

let index_server_name partition = Printf.sprintf "ursa-index/%d" partition

(* Body for an index server owning [docs]. Designed to run under
   [Process_ctl]-style management: receives its ComMod already bound. *)
let index_server_body docs commod =
  let index = Index.of_docs docs in
  Lcm_layer.serve (Commod.lcm commod) ~app_tag:Ursa_msg.index_tag (fun env ->
      match Packed.run_unpack_result Ursa_msg.term_query_codec env.Lcm_layer.data with
      | Error _ -> None
      | Ok q ->
        let results =
          List.map
            (fun term ->
              let postings = Index.postings index term in
              {
                Ursa_msg.tp_term = term;
                tp_df = List.length postings;
                tp_postings = List.map (fun p -> (p.Index.p_doc, p.Index.p_tf)) postings;
              })
            q.Ursa_msg.tq_terms
        in
        Some
          (Packed.run_pack Ursa_msg.index_reply_codec
             { Ursa_msg.ir_doc_count = Index.doc_count index; ir_results = results }))

let index_server_attrs ~partition =
  [ ("service", index_service); ("partition", string_of_int partition) ]

(* --- doc store server --- *)

let doc_server_name partition = Printf.sprintf "ursa-docs/%d" partition

let doc_server_body docs commod =
  let store = Hashtbl.create 64 in
  List.iter (fun (d : Corpus.doc) -> Hashtbl.replace store d.Corpus.d_id d) docs;
  Lcm_layer.serve (Commod.lcm commod) ~app_tag:Ursa_msg.doc_tag (fun env ->
      match Packed.run_unpack_result Ursa_msg.doc_request_codec env.Lcm_layer.data with
      | Error _ -> None
      | Ok q ->
        let reply =
          match Hashtbl.find_opt store q.Ursa_msg.dr_doc with
          | Some d -> Ursa_msg.Doc_found { df_title = d.Corpus.d_title; df_body = d.Corpus.d_body }
          | None -> Ursa_msg.Doc_missing
        in
        Some (Packed.run_pack Ursa_msg.doc_reply_codec reply))

let doc_server_attrs ~partition =
  [ ("service", doc_service); ("partition", string_of_int partition) ]

(* --- search coordinator --- *)

let merge_scores replies =
  let n_docs =
    List.fold_left (fun acc r -> acc + r.Ursa_msg.ir_doc_count) 0 replies
  in
  let df_by_term = Hashtbl.create 8 in
  List.iter
    (fun r ->
      List.iter
        (fun tp ->
          let cur =
            match Hashtbl.find_opt df_by_term tp.Ursa_msg.tp_term with
            | Some c -> c
            | None -> 0
          in
          Hashtbl.replace df_by_term tp.Ursa_msg.tp_term (cur + tp.Ursa_msg.tp_df))
        r.Ursa_msg.ir_results)
    replies;
  let scores = Hashtbl.create 64 in
  List.iter
    (fun r ->
      List.iter
        (fun tp ->
          let df =
            match Hashtbl.find_opt df_by_term tp.Ursa_msg.tp_term with
            | Some c -> c
            | None -> 0
          in
          List.iter
            (fun (doc, tf) ->
              let contribution = Index.tf_idf ~tf ~df ~n_docs in
              let cur = match Hashtbl.find_opt scores doc with Some s -> s | None -> 0. in
              Hashtbl.replace scores doc (cur +. contribution))
            tp.Ursa_msg.tp_postings)
        r.Ursa_msg.ir_results)
    replies;
  Ntcs_util.sorted_bindings scores
  |> List.sort (fun (d1, s1) (d2, s2) ->
         match compare s2 s1 with 0 -> compare d1 d2 | c -> c)

let search_server_body commod =
  (* Locate every index partition through attribute-based naming; re-query
     the naming service if the set went stale (a partition relocated). *)
  let partitions = ref [] in
  let refresh_partitions () =
    match Ali_layer.locate_attrs commod [ ("service", index_service) ] with
    | Ok addrs when addrs <> [] ->
      partitions := addrs;
      Ok addrs
    | Ok _ -> Error Errors.Unknown_name
    | Error _ as e -> e
  in
  let query_partition addr terms =
    Ali_layer.call commod ~dst:addr ~app_tag:Ursa_msg.index_tag Ursa_msg.term_query_codec
      Ursa_msg.index_reply_codec { Ursa_msg.tq_terms = terms }
  in
  (* A datagram gets no answer, so it must not cost a fan-out either. *)
  Lcm_layer.serve (Commod.lcm commod) ~app_tag:Ursa_msg.search_tag (fun env ->
      if env.Lcm_layer.conv = 0 then None
      else
        match Packed.run_unpack_result Ursa_msg.search_request_codec env.Lcm_layer.data with
        | Error _ -> None
        | Ok q ->
          let terms = Tokenizer.tokens q.Ursa_msg.sq_query in
          let addrs =
            match !partitions with
            | [] -> ( match refresh_partitions () with Ok a -> a | Error _ -> [])
            | a -> a
          in
          let replies =
            List.filter_map
              (fun addr ->
                match query_partition addr terms with
                | Ok r -> Some r
                | Error _ -> (
                  (* Partition may have relocated: refresh once and retry. *)
                  match refresh_partitions () with
                  | Ok _ -> Result.to_option (query_partition addr terms)
                  | Error _ -> None))
              addrs
          in
          let hits =
            merge_scores replies
            |> List.filteri (fun i _ -> i < q.Ursa_msg.sq_k)
            |> List.map (fun (doc, score) ->
                   {
                     Ursa_msg.h_doc = doc;
                     h_score_milli = int_of_float (score *. 1000.);
                     h_title = "";
                   })
          in
          Some
            (Packed.run_pack Ursa_msg.search_reply_codec
               { Ursa_msg.sr_hits = hits; sr_partitions = List.length replies }))

let search_server_attrs = [ ("service", search_service) ]
