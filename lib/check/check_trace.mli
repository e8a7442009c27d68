(** The runtime invariants, judged over a world's event log (trace entries
    and span events alike, oldest first: {!Ntcs_sim.Trace.entries}). Each
    family names its findings:

    - R3, the protocol promises no source rule can see: ["gateway-peering"]
      (§4.2: a chain may pass through gateways but never ends at one, and
      no gateway opens an IVC or a chainless circuit to another),
      ["recursion-depth"] (§6.3: [lcm.depth] marks stay within the limit)
      and ["identity-conversion"] (§5: never packed between identical byte
      orders, never raw images between differing ones, unless [forced]);
    - ["lifecycle"]: every circuit endpoint and gateway splice leg replays
      through the {!Check_auto} automaton, so a frame forwarded across a
      torn-down splice is the §4.3 teardown-ordering bug;
    - ["span-*"]: the causal span log brackets (DESIGN.md §10);
    - ["naming-*"]: the sharded naming plane's cache coherence
      (DESIGN.md §15);
    - ["process-crash"] and ["race"]: a simulated process crash and a
      race-checker conflict ({!Check_race}) fail a schedule too. *)

type violation = { v_at_us : int; v_invariant : string; v_detail : string }

val pp_violation : Format.formatter -> violation -> unit
(** [t=<at>us [<invariant>] <detail>]. *)

val check :
  ?recursion_limit:int ->
  ?crashes_expected:bool ->
  races:bool ->
  Ntcs_obs.Span.event list ->
  violation list
(** Every family over one log, in event order; end-of-run span findings
    come last. The recursion bound is only checked when [recursion_limit]
    is given, crashes are findings unless [crashes_expected] (default
    false), and [race.conflict] events only when [races]. *)

val spans : Ntcs_obs.Span.event list -> violation list
(** The span family alone, for a log that is no one world's: the merged
    multi-shard log of {!Ntcs_sim.World.Par.merged_events}. *)
