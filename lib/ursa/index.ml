(* Inverted index with tf postings — the data structure behind the URSA
   index backend servers. *)

type posting = { p_doc : int; p_tf : int }

type t = {
  postings : (string, posting list ref) Hashtbl.t;
  mutable doc_count : int;
}

let create () = { postings = Hashtbl.create 256; doc_count = 0 }

let add_document t ~doc_id ~text =
  t.doc_count <- t.doc_count + 1;
  List.iter
    (fun (term, tf) ->
      let posting = { p_doc = doc_id; p_tf = tf } in
      match Hashtbl.find_opt t.postings term with
      | Some l -> l := posting :: !l
      | None -> Hashtbl.replace t.postings term (ref [ posting ]))
    (Tokenizer.term_counts text)

let of_docs docs =
  let t = create () in
  List.iter (fun (d : Corpus.doc) -> add_document t ~doc_id:d.Corpus.d_id ~text:d.Corpus.d_body)
    docs;
  t

let postings t term =
  match Hashtbl.find_opt t.postings term with
  | Some l -> List.rev !l
  | None -> []

let doc_count t = t.doc_count

(* tf-idf contribution of one posting given corpus-wide statistics. *)
let tf_idf ~tf ~df ~n_docs =
  if df = 0 || n_docs = 0 then 0.
  else begin
    let tf_part = 1. +. log (float_of_int tf) in
    let idf = log (float_of_int n_docs /. float_of_int df) in
    tf_part *. (1. +. idf)
  end
