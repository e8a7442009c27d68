(** Size-classed buffer pool (freelist).

    Nothing in [lib/] allocates from a pool: a frame is encoded once, into
    the buffer the wire carries, and never comes back. The module stays for
    the [pool.alloc_release] micro-benchmark row, which links it, and for
    its sanitizer's own tests; it leaves with a benchmark change.

    Buffers come in power-of-two classes from 64 B to 64 KiB; a request is
    served from the smallest class that fits, so callers must carry an
    explicit length — the buffer may be bigger than asked for. Larger
    requests fall through to plain allocation.

    Ownership: {!alloc} transfers the buffer to the caller; {!release}
    returns it, after which the caller must not touch it. A never-released
    buffer is a leak (visible in the high-water gauge and in the
    sanitizer's {!leak_check} report), not a correctness problem.

    The static side of the same discipline is machine-checked by lint
    rules R6/R7 ([ownership]/[escape]); this module's sanitizer mode is
    the dynamic side, catching whatever escapes the lexical analysis.

    When created with a registry, the pool keeps [pool.hits] /
    [pool.misses] / [pool.unpooled] / [pool.bad_release] counters and
    [pool.in_use] / [pool.high_water] gauges up to date there. *)

type t

val create : ?registry:Ntcs_obs.Registry.t -> unit -> t

val max_pooled : int
(** Largest request served from a freelist (64 KiB); anything bigger is a
    plain allocation counted as [pool.unpooled]. *)

val alloc : t -> int -> Bytes.t
(** A buffer of at least the requested size (exactly the class size).
    Contents are unspecified — reused buffers keep stale bytes. *)

val release : t -> Bytes.t -> unit
(** Return a buffer to its class. Bogus releases — a buffer already on its
    freelist (double release), a size no {!alloc} ever produced, or a
    release while nothing is outstanding — are rejected and counted as
    [pool.bad_release] rather than corrupting the freelist. With the
    sanitizer armed they additionally raise a specific
    [pool.sanitizer.double_release] / [pool.sanitizer.foreign_release]
    violation. *)

val in_use : t -> int

(** {1 Sanitizer}

    Armed via {!set_sanitize}, the pool tracks every hand-out by physical
    identity with a generation tag, fills released pooled buffers with a
    poison canary that is verified on the next hand-out (a write through a
    stale view trips [pool.sanitizer.poison]), classifies bogus releases
    as double or foreign, and reports buffers still outstanding at
    teardown via {!leak_check}. Each violation increments the matching
    [pool.sanitizer.*] registry counter and, if an emitter is installed,
    produces one deterministic trace event. Arm the sanitizer before
    traffic: buffers already outstanding at arming time are unknown to the
    tracker and their releases would read as foreign. Off by default;
    costs nothing when off. *)

val set_sanitize : t -> bool -> unit
(** Arm or disarm the sanitizer. Arming poisons buffers already resting on
    freelists so their next hand-out verifies cleanly; disarming drops the
    outstanding-buffer tracking. *)

val set_emit : t -> (cat:string -> detail:string -> unit) -> unit
(** Install the violation emitter — typically a trace, so each violation
    becomes a deterministic [pool.sanitizer.*] trace event. *)

val leak_check : t -> int
(** Report every buffer still outstanding (one [pool.sanitizer.leak]
    violation each, in hand-out order) and return how many there were.
    Intended at world teardown. A leak is loss, not corruption — crashed
    machines legitimately strand their in-flight buffers — so callers
    usually report it rather than fail on it. *)

val violations : t -> int
(** Total sanitizer violations recorded on this pool, leaks included. *)
