(* Wire protocol of the URSA backends, packed-mode codecs throughout. *)

open Ntcs_wire

let index_tag = 7001 (* term lookup on an index server *)
let doc_tag = 7002 (* document fetch from a doc-store server *)
let search_tag = 7003 (* ranked query to the search coordinator *)

(* --- index server --- *)

type term_query = { tq_terms : string list }

let term_query_codec =
  Packed.iso
    ~fwd:(fun l -> { tq_terms = l })
    ~bwd:(fun q -> q.tq_terms)
    (Packed.list Packed.string)

type term_postings = {
  tp_term : string;
  tp_df : int; (* document frequency within this partition *)
  tp_postings : (int * int) list; (* doc id, tf *)
}

let term_postings_codec =
  Packed.iso
    ~fwd:(fun ((t, df), ps) -> { tp_term = t; tp_df = df; tp_postings = ps })
    ~bwd:(fun r -> ((r.tp_term, r.tp_df), r.tp_postings))
    (Packed.pair (Packed.pair Packed.string Packed.int)
       (Packed.list (Packed.pair Packed.int Packed.int)))

type index_reply = { ir_doc_count : int; ir_results : term_postings list }

let index_reply_codec =
  Packed.iso
    ~fwd:(fun (n, rs) -> { ir_doc_count = n; ir_results = rs })
    ~bwd:(fun r -> (r.ir_doc_count, r.ir_results))
    (Packed.pair Packed.int (Packed.list term_postings_codec))

(* --- doc store --- *)

type doc_request = { dr_doc : int }

let doc_request_codec =
  Packed.iso ~fwd:(fun d -> { dr_doc = d }) ~bwd:(fun r -> r.dr_doc) Packed.int

type doc_reply =
  | Doc_found of { df_title : string; df_body : string }
  | Doc_missing

let doc_reply_codec =
  Packed.(
    tagged
      [
        case "doc" (pair string string)
          (fun (df_title, df_body) -> Doc_found { df_title; df_body })
          (function Doc_found { df_title; df_body } -> Some (df_title, df_body) | _ -> None);
        case "mis" unit (fun () -> Doc_missing) (function Doc_missing -> Some () | _ -> None);
      ])

(* --- search coordinator --- *)

type search_request = { sq_query : string; sq_k : int }

let search_request_codec =
  Packed.iso
    ~fwd:(fun (q, k) -> { sq_query = q; sq_k = k })
    ~bwd:(fun r -> (r.sq_query, r.sq_k))
    (Packed.pair Packed.string Packed.int)

type hit = { h_doc : int; h_score_milli : int; h_title : string }

let hit_codec =
  Packed.iso
    ~fwd:(fun ((d, s), t) -> { h_doc = d; h_score_milli = s; h_title = t })
    ~bwd:(fun h -> ((h.h_doc, h.h_score_milli), h.h_title))
    (Packed.pair (Packed.pair Packed.int Packed.int) Packed.string)

type search_reply = { sr_hits : hit list; sr_partitions : int }

let search_reply_codec =
  Packed.iso
    ~fwd:(fun (hs, p) -> { sr_hits = hs; sr_partitions = p })
    ~bwd:(fun r -> (r.sr_hits, r.sr_partitions))
    (Packed.pair (Packed.list hit_codec) Packed.int)
