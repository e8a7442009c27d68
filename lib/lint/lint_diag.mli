(** Linter diagnostics: one finding per source location. *)

type t = {
  file : string;  (** path as given to the linter *)
  line : int;  (** 1-based *)
  rule : string;  (** rule family: ["layering"], ["determinism"], ["pragma"] *)
  msg : string;
}

val make : file:string -> line:int -> rule:string -> string -> t

val sort : t list -> t list
(** Sort and drop exact duplicates. *)

val pp : Format.formatter -> t -> unit
(** Renders as [file:line: [rule] message]. *)

val json_escape : string -> string
(** Escape a string for embedding in a JSON string literal. *)

val list_to_json : t list -> string
(** A report as a JSON array, sorted and deduplicated ({!sort}), so CI can
    diff outputs byte-for-byte. *)
