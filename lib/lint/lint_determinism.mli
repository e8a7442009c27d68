(** R2: determinism — no wall clocks, unseeded randomness, [Obj.magic], or
    hash-order iteration in protocol paths. Suppress with
    [lint: allow determinism(<pattern>) — reason]. *)

val check : Lint_lex.source -> Lint_diag.t list
