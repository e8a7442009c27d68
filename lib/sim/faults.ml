(* Deterministic, seeded fault plane.

   A [t] is a declarative description of how the world should misbehave —
   per-link frame fault rules (drop / duplicate / reorder / delay) and a
   timed schedule of machine crashes, restarts, partitions and heals — plus
   the seeded runtime state that makes every injection reproducible: the
   same spec and seed always yield the same fault schedule, byte for byte.

   The plane itself is passive. [World.install_faults] arms it: the world
   registers the schedule's timed events on the scheduler, points [emit] at
   its trace (every injected fault becomes a [fault.*] trace event, so the
   lifecycle automaton and the R3 invariant checkers keep working on faulty
   runs), and consults [frame_action]/[blocked] from inside
   [World.transmit].

   Frame faults apply only to transmissions the IPCS backends mark
   droppable — whole, self-contained ND frames. Control segments (SYN, FIN,
   channel-open) and partial segments of a larger frame are never dropped,
   duplicated or reordered: losing half a framed message would desynchronise
   the receiver's framing, which no real network failure produces (TCP
   retransmits; the ring delivers whole messages or nothing). Dropping a
   *whole* frame is exactly what a broken circuit looks like from above,
   which is the failure the NTCS recovery machinery claims to handle. *)

type rule = {
  r_net : Net.id option; (* None: applies on every network *)
  r_from : int; (* active window in virtual µs: [r_from, r_until) *)
  r_until : int;
  r_drop : float; (* per-frame probabilities, each in [0,1] *)
  r_dup : float;
  r_reorder : float;
  r_delay : float;
  r_delay_us : int; (* extra latency drawn uniformly from [1, r_delay_us] *)
}

let rule ?net ?(from_us = 0) ?(until_us = max_int) ?(drop = 0.) ?(dup = 0.) ?(reorder = 0.)
    ?(delay = 0.) ?(delay_us = 0) () =
  {
    r_net = net;
    r_from = from_us;
    r_until = until_us;
    r_drop = drop;
    r_dup = dup;
    r_reorder = reorder;
    r_delay = delay;
    r_delay_us = delay_us;
  }

(* Scheduled whole-world events. Machines and nets are named by their
   human-readable names, so a schedule can be written before the world is
   built; [World.install_faults] resolves them at arm time. *)
type event =
  | Crash of string (* machine: mark down, kill its processes *)
  | Restart of string
  | Partition of string list list
      (* isolate the machine groups from each other: frames between two
         different groups are refused at the wire, frames within a group
         (and to/from unlisted machines) pass. Replaces any earlier
         partition. *)
  | Heal (* forget the partition *)
  | Net_down of string (* whole-network outage, by net name *)
  | Net_up of string

type spec = {
  seed : int;
  rules : rule list;
  schedule : (int * event) list; (* (virtual µs, event), sorted at create *)
}

type action = Deliver | Drop | Duplicate | Delay of int | Reorder of int

type t = {
  spec : spec;
  rng : Ntcs_util.Rng.t;
  blocked_pairs : (int * int, unit) Hashtbl.t; (* unordered machine-id pairs *)
  mutable emit : (cat:string -> detail:string -> unit) option;
}

let create ?(rules = []) ?(schedule = []) ~seed () =
  {
    spec =
      {
        seed;
        rules;
        (* Stable order: ties fire in list order, independent of how the
           caller happened to write the schedule. *)
        schedule = List.stable_sort (fun (a, _) (b, _) -> compare a b) schedule;
      };
    rng = Ntcs_util.Rng.create seed;
    blocked_pairs = Hashtbl.create 8;
    emit = None;
  }

let schedule t = t.spec.schedule

let set_emit t f = t.emit <- Some f

let trace t ~cat detail =
  match t.emit with None -> () | Some f -> f ~cat ~detail

(* --- partitions --- *)

let pair_key a b = if a <= b then (a, b) else (b, a)

let clear_partition t = Hashtbl.reset t.blocked_pairs

(* Block every pair of machine ids drawn from two different groups. *)
let block_groups t (groups : int list list) =
  clear_partition t;
  let rec outer = function
    | [] -> ()
    | g :: rest ->
      List.iter
        (fun other -> List.iter (fun a -> List.iter (fun b ->
             Hashtbl.replace t.blocked_pairs (pair_key a b) ()) other) g)
        rest;
      outer rest
  in
  outer groups

let blocked t a b = Hashtbl.mem t.blocked_pairs (pair_key a b)

(* --- frame faults --- *)

let rule_active r ~now ~net =
  now >= r.r_from && now < r.r_until
  && (match r.r_net with None -> true | Some id -> id = net)

let draw t p = p > 0. && Ntcs_util.Rng.float t.rng 1.0 < p

(* Decide the fate of one droppable frame. At most one fault per frame; the
   first matching rule wins and within it drop > dup > reorder > delay, so a
   spec reads top to bottom. Every decision draws from the plane's own
   seeded stream — the fault schedule is a pure function of (spec, consult
   order), and the consult order is the deterministic transmission order. *)
let frame_action t ~now ~net ~src ~dst =
  let rec go = function
    | [] -> Deliver
    | r :: rest ->
      if not (rule_active r ~now ~net) then go rest
      else if draw t r.r_drop then begin
        trace t ~cat:"fault.drop" (Printf.sprintf "%s -> %s net%d" src dst net);
        Drop
      end
      else if draw t r.r_dup then begin
        trace t ~cat:"fault.dup" (Printf.sprintf "%s -> %s net%d" src dst net);
        Duplicate
      end
      else if draw t r.r_reorder then begin
        let extra = 1 + Ntcs_util.Rng.int t.rng (max 1 r.r_delay_us) in
        trace t ~cat:"fault.reorder"
          (Printf.sprintf "%s -> %s net%d held %dus" src dst net extra);
        Reorder extra
      end
      else if draw t r.r_delay then begin
        let extra = 1 + Ntcs_util.Rng.int t.rng (max 1 r.r_delay_us) in
        trace t ~cat:"fault.delay"
          (Printf.sprintf "%s -> %s net%d +%dus" src dst net extra);
        Delay extra
      end
      else go rest
  in
  go t.spec.rules
