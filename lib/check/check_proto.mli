(** Handler exhaustiveness against the protocol constructors.

    Two directions, both anchored in {!Check_auto}'s single declaration:
    the variant constructors declared in proto.ml/ns_proto.ml must match
    the automaton's tables in order, and every module the table names
    must mention every constructor it is responsible for.
    Opt a module out of one (state, kind) pair only with a reasoned
    pragma: [lint: allow lifecycle(Kind) — reason]. *)

val check : Lint_lex.source list -> Lint_diag.t list
(** Run both directions over the tree; diagnostics carry rule
    ["lifecycle"]. Sources other than proto.ml/ns_proto.ml and the
    dispatching modules contribute nothing. *)
