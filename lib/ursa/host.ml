(* The host-processor / user-workstation side of URSA: a thin client that
   locates the search coordinator and doc stores through the naming service
   and issues queries and fetches. *)

open Ntcs
open Ntcs_wire

type t = {
  commod : Commod.t;
  mutable search : Addr.t option;
}

let create commod = { commod; search = None }

let locate_search t =
  match t.search with
  | Some a -> Ok a
  | None -> (
    match Ali_layer.locate_attrs t.commod [ ("service", Servers.search_service) ] with
    | Ok (a :: _) ->
      t.search <- Some a;
      Ok a
    | Ok [] -> Error Errors.Unknown_name
    | Error _ as e -> e)

let search ?(k = 10) ?timeout_us t query =
  match locate_search t with
  | Error _ as e -> e
  | Ok addr ->
    Ali_layer.call t.commod ~dst:addr ~app_tag:Ursa_msg.search_tag ?timeout_us
      Ursa_msg.search_request_codec Ursa_msg.search_reply_codec
      { Ursa_msg.sq_query = query; sq_k = k }

(* Fetch a document body from whichever doc store holds it (round-robin
   partitioning means doc i lives in partition i mod k; we just ask all). *)
let fetch ?timeout_us t ~doc =
  match Ali_layer.locate_attrs t.commod [ ("service", Servers.doc_service) ] with
  | Error _ as e -> e
  | Ok [] -> Error Errors.Unknown_name
  | Ok stores ->
    let req = Packed.run_pack Ursa_msg.doc_request_codec { Ursa_msg.dr_doc = doc } in
    let rec try_stores = function
      | [] -> Error Errors.Unknown_name
      | store :: rest -> (
        match
          Ali_layer.send_sync t.commod ~dst:store ~app_tag:Ursa_msg.doc_tag ?timeout_us
            (Convert.payload_raw req)
        with
        | Error _ -> try_stores rest
        | Ok env -> (
          match Packed.run_unpack_result Ursa_msg.doc_reply_codec env.Ali_layer.data with
          | Ok (Ursa_msg.Doc_found { df_title; df_body }) -> Ok (df_title, df_body)
          | Ok Ursa_msg.Doc_missing -> try_stores rest
          | Error m -> Error (Errors.Bad_message m)))
    in
    try_stores stores

(* Convenience: deploy a full URSA installation on a cluster — [partitions]
   index servers and doc stores spread round-robin over [machines], plus one
   search coordinator. Returns after spawning; settle the cluster to boot. *)
let deploy cluster ~machines ~partitions ~corpus ~search_machine =
  let parts = Corpus.partition partitions corpus in
  List.iteri
    (fun i docs ->
      let machine = List.nth machines (i mod List.length machines) in
      ignore
        (Cluster.spawn cluster ~machine ~name:(Servers.index_server_name i) (fun node ->
             match
               Commod.bind node ~name:(Servers.index_server_name i)
                 ~attrs:(Servers.index_server_attrs ~partition:i)
             with
             | Ok commod -> Servers.index_server_body docs commod
             | Error e -> failwith (Errors.to_string e)));
      ignore
        (Cluster.spawn cluster ~machine ~name:(Servers.doc_server_name i) (fun node ->
             match
               Commod.bind node ~name:(Servers.doc_server_name i)
                 ~attrs:(Servers.doc_server_attrs ~partition:i)
             with
             | Ok commod -> Servers.doc_server_body docs commod
             | Error e -> failwith (Errors.to_string e))))
    parts;
  ignore
    (Cluster.spawn cluster ~machine:search_machine ~name:"ursa-search" (fun node ->
         match Commod.bind node ~name:"ursa-search" ~attrs:Servers.search_server_attrs with
         | Ok commod -> Servers.search_server_body commod
         | Error e -> failwith (Errors.to_string e)))
