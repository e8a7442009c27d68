(** R1's conversion and retry checks, R2 (determinism) and R5 (copies):
    a path from {!Lint_rules.forbidden} named outside its scope. Each
    finding carries its own rule's ID; suppress it with
    [lint: allow <rule>(<path>) — reason]. *)

val check : Lint_lex.source -> Lint_diag.t list
