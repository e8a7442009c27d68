(** Static-analysis driver: walks source trees and runs, on every
    [.ml]/[.mli], pragma well-formedness, layering (R1), determinism (R2),
    categories (R4) and copies (R5), then domain safety (R8) over the whole
    tree; aggregates sorted diagnostics. Trace-based invariants (R3) live
    in {!Lint_trace} and run from tests. *)

val source_files : string list -> string list
(** Every [.ml]/[.mli] under the given files/directories, walked in sorted
    order; hidden and [_build]-style directories are skipped. *)

val lint_paths : ?graph:(string * string) list -> string list -> Lint_diag.t list
(** Tree-level run: checks every file, then runs R8 over the whole set.
    [graph] substitutes resolved (referrer, referee) module edges for R8
    reachability (the ntcs_lint driver passes the hook-aware
    [Check_graph] edges); default is the lexical module-reference graph. *)

val ownership_map : ?graph:(string * string) list -> string list -> Lint_domsafe.entry list
(** The R8 shared-state inventory over the given paths
    ([ntcs_lint --ownership-map]). *)

val report : Format.formatter -> Lint_diag.t list -> unit
(** One [file:line: [rule] message] per line. *)

val pragmas_in_paths : string list -> (string * Lint_lex.pragma) list
(** Every well-formed [lint: allow] pragma under the given paths, in
    deterministic (file, line) order — the audit feed for
    [ntcs_lint --pragmas]. *)

val report_pragmas : Format.formatter -> (string * Lint_lex.pragma) list -> unit
(** One [file:line: allow[-file] rule(arg) — reason] per line. *)

val pragmas_to_json : (string * Lint_lex.pragma) list -> string
