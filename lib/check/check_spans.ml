(* Span invariants, checked over a finished world's causal span log the way
   Check_lifecycle checks the trace: one ordered walk, one automaton per
   logical circuit.

   The obs plane promises (DESIGN.md §10):
   - circuit spans bracket everything: a message span can only begin on a
     circuit that is open, and circuit ids are never reused;
   - B/E events pair: no E without a B, no duplicate B for the same
     (circuit, seq, name), at most one close per circuit;
   - every opened message span ends — the LCM brackets its primitives
     synchronously — unless its owner died mid-operation (the circuit is
     then marked crashed by the dispatcher's exit hook) or the run ended
     with the operation genuinely in flight (its circuit is still open);
   - a circuit close carries a known reason.

   Instant (I) events — nd.tx / nd.rx / gw.forward / lcm.deliver hops —
   only require their circuit to have been opened at some point: the fault
   plane may replay a frame after the sender already shut down, and the
   late delivery is legal (§4.3). Events with the null context (trace
   entries, control-frame forwards) belong to no circuit and are skipped. *)

type violation = Lint_trace.violation = {
  v_at_us : int;
  v_invariant : string;
  v_detail : string;
}

let close_reasons = [ "peer-down"; "shutdown"; "crashed" ]

type circ_state = {
  mutable c_open : bool;
  mutable c_reason : string; (* close reason once closed *)
  (* open message spans on this circuit: (seq, name) -> B timestamp *)
  c_msgs : (int * string, int) Hashtbl.t;
}

let check (spans : Ntcs_obs.Span.event list) =
  let open Ntcs_obs.Span in
  let circuits : (int, circ_state) Hashtbl.t = Hashtbl.create 32 in
  let violations = ref [] in
  let fail at inv detail =
    violations := { v_at_us = at; v_invariant = inv; v_detail = detail } :: !violations
  in
  List.iter
    (fun e ->
      let c = e.ev_ctx.sp_circuit in
      let seq = e.ev_ctx.sp_seq in
      if not (is_none e.ev_ctx) then begin
        let state = Hashtbl.find_opt circuits c in
        match (seq, e.ev_phase) with
        | 0, B -> (
          match state with
          | Some _ ->
            (* Ids are allocated fresh, so a second B is a reopen either way. *)
            fail e.ev_at_us "span-circuit-unique"
              (Printf.sprintf "circuit %d opened twice (%s)" c e.ev_detail)
          | None ->
            Hashtbl.replace circuits c
              { c_open = true; c_reason = ""; c_msgs = Hashtbl.create 4 })
        | 0, E -> (
          match state with
          | Some st when st.c_open ->
            st.c_open <- false;
            st.c_reason <- e.ev_detail;
            if not (List.mem e.ev_detail close_reasons) then
              fail e.ev_at_us "span-close-reason"
                (Printf.sprintf "circuit %d closed with unknown reason %S" c e.ev_detail)
          | Some _ ->
            fail e.ev_at_us "span-orphan-end"
              (Printf.sprintf "circuit %d closed twice" c)
          | None ->
            fail e.ev_at_us "span-orphan-end"
              (Printf.sprintf "circuit %d closed but never opened" c))
        | 0, I -> ()
        | _, B -> (
          match state with
          | Some st when st.c_open ->
            if Hashtbl.mem st.c_msgs (seq, e.ev_name) then
              fail e.ev_at_us "span-duplicate-begin"
                (Printf.sprintf "span %s %s began twice" (to_string e.ev_ctx) e.ev_name)
            else Hashtbl.replace st.c_msgs (seq, e.ev_name) e.ev_at_us
          | Some _ ->
            fail e.ev_at_us "span-use-after-close"
              (Printf.sprintf "span %s %s began on a closed circuit"
                 (to_string e.ev_ctx) e.ev_name)
          | None ->
            fail e.ev_at_us "span-orphan"
              (Printf.sprintf "span %s %s began on an unopened circuit"
                 (to_string e.ev_ctx) e.ev_name))
        | _, E -> (
          (* The circuit may already be closed (a sender blocked in a retry
             completes after peers_down) — only the B must exist. *)
          match state with
          | Some st when Hashtbl.mem st.c_msgs (seq, e.ev_name) ->
            Hashtbl.remove st.c_msgs (seq, e.ev_name)
          | Some _ | None ->
            fail e.ev_at_us "span-orphan-end"
              (Printf.sprintf "span %s %s ended but never began"
                 (to_string e.ev_ctx) e.ev_name))
        | _, I ->
          if state = None then
            fail e.ev_at_us "span-orphan"
              (Printf.sprintf "hop %s on unopened circuit %s" e.ev_name
                 (to_string e.ev_ctx))
      end)
    spans;
  (* End of run: every message span still open must be excused — its owner
     died mid-operation (circuit marked crashed) or the operation was still
     genuinely in flight when the world stopped (circuit still open). *)
  Hashtbl.fold (fun c st acc -> (c, st) :: acc) circuits []
  |> List.sort compare
  |> List.iter (fun (c, st) ->
         if (not st.c_open) && st.c_reason <> "crashed" then
           Hashtbl.fold (fun k at acc -> (k, at) :: acc) st.c_msgs []
           |> List.sort compare
           |> List.iter (fun ((seq, name), at) ->
                  fail at "span-unterminated"
                    (Printf.sprintf "span c%d#%d %s never ended (circuit closed: %s)"
                       c seq name st.c_reason)));
  List.rev !violations
