(** R8 [domsafe]: the shared-state ownership map — static half of the
    domain-safety pass (dynamic half: [Check_race]).

    Classifies every module-level mutable binding in the tree for the
    ROADMAP-2 domain-parallel refactor:

    - a module-scope [let] allocating a [ref]/table/pool/queue
      ({!Lint_rules.mutable_ctors}) is {e ambient-global} — one instance
      every domain would share. Reachable from per-machine code
      ({!Lint_rules.machine_path}, transitively over the module-reference
      graph) and unwaived, it is an R8 violation. Waive with
      [lint: allow domsafe(<name>) — <reason>].
    - a [mutable] record field is {e machine-local} or {e world-local}
      by where the record is declared — inventory only, never a
      violation: this is the state the refactor threads through domains.

    [ntcs_lint --ownership-map --json] emits the full inventory
    (schema [ntcs.lint.ownership-map/1]) as the refactor's work list. *)

type scope = Binding | Field
type cls = World_local | Machine_local | Ambient_global

type entry = {
  d_file : string;
  d_line : int;  (** allocating line (binding) / the field's line *)
  d_module : string;
  d_name : string;  (** binding name, or [type.field] *)
  d_ctor : string;  (** the mutable constructor, or ["mutable"] *)
  d_scope : scope;
  d_class : cls;
  d_reachable : bool;  (** can per-machine code reach the holder module? *)
  d_waived : string option;  (** covering pragma's reason, if any *)
}

val class_name : cls -> string

val inventory : ?graph:(string * string) list -> Lint_lex.source list -> entry list
(** The full ownership map over the given sources ([.mli]s are skipped —
    interfaces restate the implementation's fields). [graph] supplies
    resolved (referrer, referee) module edges — the caller may pass the
    hook-aware graph from [Check_graph]; the default is the
    module-reference graph of the sources themselves. *)

val check : ?graph:(string * string) list -> Lint_lex.source list -> Lint_diag.t list
(** R8 violations: unwaived ambient-global bindings reachable from
    per-machine code. *)

val pp_entry : Format.formatter -> entry -> unit

val map_to_json : entry list -> string
(** The inventory as [{"schema":"ntcs.lint.ownership-map/1","entries":[…]}],
    sorted by (file, line, name) so runs diff byte-for-byte. *)
