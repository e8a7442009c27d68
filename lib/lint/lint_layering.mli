(** R1: layer discipline — downward-only references, and IPCS backends
    named only below the ND boundary. (R1's conversion and retry checks
    are forbidden paths, {!Lint_forbidden}.) Suppress with
    [lint: allow layering(<module>) — reason]. *)

val check : Lint_lex.source -> Lint_diag.t list
