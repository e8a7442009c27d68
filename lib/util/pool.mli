(** Size-classed buffer pool (freelist).

    Nothing in [lib/] allocates from a pool: a frame is encoded once, into
    the buffer the wire carries, and never comes back. The module stays
    only for the [pool.alloc_release] micro-benchmark row, which links it;
    it leaves with a benchmark change.

    Buffers come in power-of-two classes from 64 B to 64 KiB; a request is
    served from the smallest class that fits, so callers must carry an
    explicit length — the buffer may be bigger than asked for. Larger
    requests fall through to plain allocation.

    Ownership: {!alloc} transfers the buffer to the caller; {!release}
    returns it, after which the caller must not touch it. A never-released
    buffer is a leak, not a correctness problem. *)

type t

val create : unit -> t

val max_pooled : int
(** Largest request served from a freelist (64 KiB); anything bigger is a
    plain allocation. *)

val alloc : t -> int -> Bytes.t
(** A buffer of at least the requested size (exactly the class size).
    Contents are unspecified — reused buffers keep stale bytes. *)

val release : t -> Bytes.t -> unit
(** Return a buffer to its class. A buffer already on its freelist (double
    release) or of a size no {!alloc} produces is dropped rather than
    spliced in, so two later {!alloc}s never share one buffer. Releasing a
    buffer above {!max_pooled} does nothing. *)
