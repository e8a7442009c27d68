(** R8 [domsafe]: no ambient mutable state — static half of the
    domain-safety pass (dynamic half: [Check_race]).

    A module-scope [let] allocating a [ref]/table/pool/queue
    ({!Lint_rules.mutable_ctors}) outside a closure is one instance every
    domain would share, so unwaived it is a finding in any file. Functions,
    closure-captured state and [mutable] record fields never fire. Waive
    with [lint: allow domsafe(<name>) — <reason>]. *)

val check : Lint_lex.source -> Lint_diag.t list
(** One [domsafe] diagnostic per unwaived module-level mutable binding,
    at the line of its allocating constructor. Interfaces have none. *)
