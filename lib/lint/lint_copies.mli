(** R5: copy discipline — no [Bytes.cat]/[Bytes.sub]/[Bytes.copy]/
    [Buffer.to_bytes] on frame paths in lib/core and lib/ipcs outside
    [Proto]; the pipeline moves payloads as {!Proto.Frame} views.
    Suppress with [lint: allow copies(<call>) — reason]. *)

val check : Lint_lex.source -> Lint_diag.t list
