(** Wire protocol of the URSA backends (packed-mode codecs throughout). *)

open Ntcs_wire

val index_tag : int
val doc_tag : int
val search_tag : int

type term_query = { tq_terms : string list }

val term_query_codec : term_query Packed.t

type term_postings = {
  tp_term : string;
  tp_df : int;  (** document frequency within this partition *)
  tp_postings : (int * int) list;  (** (doc id, tf) *)
}

type index_reply = { ir_doc_count : int; ir_results : term_postings list }

val index_reply_codec : index_reply Packed.t

type doc_request = { dr_doc : int }

val doc_request_codec : doc_request Packed.t

type doc_reply =
  | Doc_found of { df_title : string; df_body : string }
  | Doc_missing

val doc_reply_codec : doc_reply Packed.t

type search_request = { sq_query : string; sq_k : int }

val search_request_codec : search_request Packed.t

type hit = { h_doc : int; h_score_milli : int; h_title : string }

type search_reply = { sr_hits : hit list; sr_partitions : int }

val search_reply_codec : search_reply Packed.t
