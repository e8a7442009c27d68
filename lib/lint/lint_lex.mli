(** The front end of every static analysis: each file is parsed once with
    the compiler's own parser ([compiler-libs.common]), its [lint:] pragmas
    are read from the compiler lexer's comments, and its path occurrences
    are collected in one walk over the AST. Comments, strings and quoted
    strings are the lexer's business, so none of them can fake a path. *)

(** A parsed file: an implementation or an interface. *)
type ast = Impl of Parsetree.structure | Intf of Parsetree.signature

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

type source = {
  src_file : string;  (** path as given (used in diagnostics) *)
  src_ast : ast;  (** empty when the file does not parse *)
  src_syntax : Lint_diag.t list;  (** the [parse] diagnostic, if it does not *)
  src_pragmas : pragma list;  (** well-formed pragmas *)
  src_malformed : Lint_diag.t list;  (** one [pragma] diagnostic per malformed one *)
  src_paths : (int * string) list;
      (** [(line, path)] for every non-ghost value, constructor, record-field
          and type path, dotted ([Hashtbl.iter], [Proto.Data]); sorted,
          deduplicated *)
  src_refs : (int * string) list;
      (** [(line, module)] for every head-of-path module reference: a
          qualified path [Foo.bar] or [c.Foo.f] yields [Foo]; a module path
          ([open Foo], [include Foo], [module M = Foo]) yields its head.
          Unqualified constructors are not references. Sorted,
          deduplicated. *)
}

val of_string : file:string -> string -> source
val load : string -> source

val walk : source -> Ast_iterator.iterator -> unit
(** Run an iterator over the whole parsed file. *)

val refs_of_expr : Parsetree.expression -> (int * string) list
(** {!source.src_refs} restricted to one expression. *)

val name : Longident.t -> string
(** Dotted form of a path: [Ldot (Lident "Hashtbl", "iter")] is
    ["Hashtbl.iter"]. *)

val line : Location.t -> int

val pragmas : source -> pragma list * Lint_diag.t list
(** Well-formed pragmas, plus a diagnostic for each malformed one (missing
    separator or reason, or a rule outside {!Lint_rules.pragma_rules}). *)

val covering : pragma list -> rule:string -> arg:string -> line:int -> pragma option
(** The pragma suppressing a violation of [rule] on [arg] at [line], if
    any. An argless pragma matches any [arg]. *)

val pragma_allows : pragma list -> rule:string -> arg:string -> line:int -> bool
