(** Static-analysis entry points: walk source trees, parse every
    [.ml]/[.mli] once ({!Lint_lex}), run pragma well-formedness, layering
    (R1), the forbidden paths of R1, R2 and R5 and categories (R4) on
    each file, then domain safety (R8) over the whole tree, and aggregate
    sorted diagnostics. Trace-based invariants (R3) live in {!Lint_trace}
    and run from tests. *)

val source_files : string list -> string list
(** Every [.ml]/[.mli] under the given files/directories, walked in sorted
    order; hidden and [_build]-style directories are skipped. *)

val load : string list -> Lint_lex.source list
(** Every source under the given paths ({!source_files}), parsed once. *)

val lint : ?graph:(string * string) list -> Lint_lex.source list -> Lint_diag.t list
(** Tree-level run: checks every file, then runs R8 over the whole set.
    A file that does not parse is one [parse] diagnostic. [graph]
    substitutes resolved (referrer, referee) module edges for R8
    reachability (ntcs_lint passes the hook-aware
    [Check_graph] edges); default is the module-reference graph of the
    sources themselves. *)

val report : Format.formatter -> Lint_diag.t list -> unit
(** One [file:line: [rule] message] per line. *)

val pragmas : Lint_lex.source list -> (string * Lint_lex.pragma) list
(** Every well-formed [lint: allow] pragma in the given sources, in
    deterministic (file, line) order — the audit feed for
    [ntcs_lint --pragmas]. *)

val report_pragmas : Format.formatter -> (string * Lint_lex.pragma) list -> unit
(** One [file:line: allow[-file] rule(arg) — reason] per line. *)

val pragmas_to_json : (string * Lint_lex.pragma) list -> string
