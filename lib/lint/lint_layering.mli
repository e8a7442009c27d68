(** R1: layer discipline — downward-only references, IPCS backends named
    only below the ND boundary, conversion modes selected only by the IP
    layer. Suppress with [lint: allow layering(<module>) — reason]. *)

val check : Lint_lex.source -> Lint_diag.t list
