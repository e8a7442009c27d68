(* R5: copy discipline. The frame pipeline is zero-copy by construction —
   the IPCS hands received messages up as they arrived, they travel as
   Proto.Frame views, gateways patch header words in place, sends encode
   once into the buffer the wire carries. A bare Bytes.cat / Bytes.sub /
   Bytes.copy / Buffer.to_bytes in lib/core or lib/ipcs is a payload copy
   sneaking back onto the hot path; Proto (which owns the sanctioned
   materialisation points) is exempt. Grep-grade, word-bounded, on blanked
   text; suppress with `lint: allow copies(<call>) — reason`. *)

let rule = "copies"

let check (src : Lint_lex.source) =
  let file = src.Lint_lex.src_file in
  if Lint_rules.may_copy_frames file then []
  else begin
    let pragmas, _ = Lint_lex.pragmas src in
    let diags = ref [] in
    List.iteri
      (fun idx line ->
        let lineno = idx + 1 in
        List.iter
          (fun call ->
            if Lint_lex.line_has_token line call
               && not (Lint_lex.pragma_allows pragmas ~rule ~arg:call ~line:lineno)
            then
              diags :=
                Lint_diag.make ~file ~line:lineno ~rule
                  (Printf.sprintf
                     "%s: byte copy on a frame path — use Proto.Frame views and keep \
                      payloads in place"
                     call)
                :: !diags)
          Lint_rules.copy_calls)
      (Lint_lex.lines src.Lint_lex.src_blank);
    Lint_diag.sort !diags
  end
