(** Tokenization for the URSA retrieval pipeline: lowercase alphanumeric
    terms, minus a small stopword list. *)

val tokens : string -> string list
(** In document order, stopwords removed. *)

val term_counts : string -> (string * int) list
(** Term frequencies, sorted by term. *)
