(* The registered category manifest: every name an event of the log may
   carry, trace category or span name alike, with one line of
   documentation each. Exporters and the ntcs_stat timeline reader key off
   these names, so lint rule R4 fails the build when a source file invents
   a category that is not listed here — add the category (and its meaning)
   to this table first. *)

let all =
  [
    (* ND layer: physical circuits over an IPCS backend. *)
    ("nd.open", "ND circuit opened to a peer");
    ("nd.accept", "ND acceptor completed a handshake");
    ("nd.send_fail", "ND frame transmission failed");
    ("nd.circuit_down", "ND circuit torn down");
    ("nd.bad_frame", "undecodable frame dropped by ND");
    ("nd.handshake_fail", "ND open/accept handshake failed");
    ("nd.listen_fail", "ND could not listen on a net");
    ("nd.tadd_purge", "ND purged a stale transport address");
    ("nd.tx", "frame left this machine (span instant)");
    ("nd.rx", "frame arrived at this machine (span instant)");
    (* IP layer: intermachine virtual circuits and conversion policy. *)
    ("ip.convert", "conversion mode chosen for an IVC");
    ("ip.ivc_open", "IVC open accepted by the remote IP layer");
    ("ip.ivc_open_sent", "IVC open request sent");
    ("ip.ivc_accept", "IVC open accepted locally");
    ("ip.ivc_close", "IVC closed");
    ("ip.ivc_reject", "IVC open rejected");
    ("ip.dup_open", "duplicate IVC open suppressed");
    ("ip.bad_open", "malformed IVC open dropped");
    ("ip.tadd_purge", "IP layer purged a stale transport address");
    (* LCM layer: logical circuits, retries, spans are born here. *)
    ("lcm.fault", "address fault: destination unknown/moved");
    ("lcm.relocate", "logical circuit re-pointed after relocation");
    ("lcm.retry", "LCM retry policy re-attempted a send");
    ("lcm.depth", "recursive-entry depth mark");
    ("lcm.circuit", "logical circuit span opened/closed");
    ("lcm.send", "asynchronous send span");
    ("lcm.send_dgram", "datagram send span");
    ("lcm.send_sync", "synchronous call span");
    ("lcm.reply", "reply send span");
    ("lcm.ping", "ping probe span");
    ("lcm.deliver", "frame delivered to the application inbox (span instant)");
    (* Gateway / router. *)
    ("gw.forward", "gateway forwarded a frame between nets");
    ("gw.splice", "gateway spliced two IVC legs");
    ("gw.close", "gateway tore down a splice");
    ("gw.addr", "gateway resolved a cross-net address");
    ("gw.up", "gateway serving a net");
    ("gw.dup_open", "gateway suppressed a duplicate open");
    ("gw.hop_overflow", "gateway dropped a frame whose hop count filled the 8-bit field (E7)");
    ("gw.register_fail", "gateway failed to register with the NS");
    (* Name server. *)
    ("ns.register", "name server registered a binding");
    ("ns.forward", "name server forwarded a request");
    ("ns.bad_request", "name server rejected a malformed request");
    (* Sharded naming plane (DESIGN.md §15). *)
    ("ns.shard.forward", "shard router forwarded a request to the owning shard");
    ("ns.shard.fallback", "shard owner unreachable: replica answered from its backup copy");
    ("ns.shard.gen", "shard owner bumped its invalidation generation");
    (* NSP-side lookup caches (versioned; only traced under a sharded plane). *)
    ("ns.cache.hit", "NSP lookup cache answered fresh");
    ("ns.cache.stale", "NSP lookup cache entry below its shard's generation floor (resolved as a miss)");
    ("ns.cache.store", "NSP lookup cache stored an authoritative answer");
    ("ns.cache.invalidate", "NSP lookup cache retired entries (generation floor raise or splice)");
    (* DRTS process control. *)
    ("pctl.bind_fail", "managed process failed to bind");
    ("pctl.kill", "managed process killed");
    ("pctl.relocate", "managed process relocated");
    (* IPCS backends. *)
    ("mbx.create", "mailbox backend created an endpoint");
    ("mbx.open", "mailbox backend opened an endpoint");
    ("tcp.connect", "TCP backend connected");
    ("tcp.listen", "TCP backend listening");
    (* Fault plane injections. *)
    ("fault.drop", "fault plane dropped a frame");
    ("fault.dup", "fault plane duplicated a frame");
    ("fault.reorder", "fault plane reordered a frame");
    ("fault.delay", "fault plane delayed a frame");
    ("fault.crash", "fault plane crashed a machine");
    ("fault.restart", "fault plane restarted a machine");
    ("fault.partition", "fault plane partitioned the world");
    ("fault.heal", "fault plane healed all partitions");
    ("fault.net_down", "fault plane took a net down");
    ("fault.net_up", "fault plane brought a net up");
    ("fault.error", "fault plane schedule referenced an unknown target");
    (* Race checker: happens-before conflicts on registered shared cells. *)
    ("race.conflict", "race checker: conflicting accesses to a shared cell unordered by happens-before");
    (* Parallel worlds: cross-shard barrier-channel traffic. *)
    ("par.send", "cross-shard token posted to a barrier channel");
    ("par.recv", "cross-shard token delivered on the destination shard");
    ("par.token", "cross-shard coupling token (bench workloads)");
    ("par.tick", "parallel-harness local progress mark");
    ("par.circuit", "barrier-soak ring circuit span opened/closed");
    ("par.msg", "barrier-soak token span, posted to delivered");
    ("par.hop", "barrier-soak token arrived on a shard (span instant)");
    (* Simulator. *)
    ("sim.crash", "machine crashed");
    ("sim.proc_crash", "process died with an exception");
    (* ComMod assembly. *)
    ("commod.registered", "ComMod registered with the name server");
  ]

let known =
  let tbl = lazy (List.map fst all) in
  fun cat -> List.mem cat (Lazy.force tbl)

(* Chrome-trace track for a category: the prefix up to the first '.', which
   groups events by layer in the viewer. *)
let track_of cat =
  match String.index_opt cat '.' with Some i -> String.sub cat 0 i | None -> cat
