(** R4: every literal [~cat:"..."] trace category must appear in the
    registered manifest ([Ntcs_obs.Manifest]). *)

val check : Lint_lex.source -> Lint_diag.t list
