(** Lexical front end for the linter: comment/string blanking, [lint:]
    pragma harvesting, and head-of-path module-reference extraction. *)

type source = {
  src_file : string;  (** path as given (used in diagnostics) *)
  src_text : string;  (** raw contents *)
  src_blank : string;  (** comments/strings/chars blanked, newlines kept *)
}

val blank : string -> string
(** Replace comment bodies (and delimiters), string-literal contents and
    character literals with spaces. Line structure is preserved exactly, so
    byte [i] is on the same line in both texts. *)

val of_string : file:string -> string -> source
val load : string -> source

val lines : string -> string list

val is_ident_char : char -> bool

val line_has_token : string -> string -> bool
(** [line_has_token line "Hashtbl.fold"]: word-bounded match — neither an
    identifier character nor a dot may precede it; no identifier character
    may follow it. *)

(** An allow pragma: a comment whose text {e begins} with [lint:]:

    {v (* lint: allow <rule>[(<arg>)] — <reason> *) v}

    or [allow-file] for whole-file scope. [<rule>] must be one of
    {!Lint_rules.pragma_rules}. The separator may be an em dash, [--] or
    [-]; the reason is mandatory (a pragma without one is reported as
    malformed). A line-scoped pragma covers the line its comment opens
    on and the next one. Mentions of the syntax mid-comment or in strings
    are ignored. *)
type pragma = {
  p_line : int;
  p_file_scope : bool;
  p_rule : string;  (** one of {!Lint_rules.pragma_rules} *)
  p_arg : string option;  (** restricts the pragma to one module/pattern *)
  p_reason : string;  (** mandatory justification, for the audit listing *)
}

val pragmas : source -> pragma list * Lint_diag.t list
(** Well-formed pragmas, plus a diagnostic for each malformed one (missing
    separator or reason, or a rule outside {!Lint_rules.pragma_rules}). *)

val pragma_allows : pragma list -> rule:string -> arg:string -> line:int -> bool
(** Is a violation of [rule] on [arg] at [line] suppressed? An argless
    pragma matches any [arg]. *)

val module_refs : source -> (int * string) list
(** [(line, module)] for every head-of-path module reference: [Foo.bar]
    yields [Foo] (not [bar]); [open Foo] and [include Foo] count. Computed
    on the blanked text, so comments and strings cannot fake references.
    Deduplicated per line. *)
