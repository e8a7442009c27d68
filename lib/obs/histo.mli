(** Log-bucketed histograms for non-negative integer samples
    (sim-time microseconds, frame bytes, retry counts, queue depths).

    Fixed 256-bucket layout: exact buckets for 0..3, then 4 linear
    sub-buckets per power-of-two octave, bounding quantile error to one
    sub-bucket width (25% relative) while count/sum/min/max stay exact. *)

type t

val create : unit -> t

val add : t -> int -> unit
(** Record one sample; negative samples are clamped to 0. *)

val count : t -> int
val sum : t -> int
val max_value : t -> int
val mean : t -> float

val p50 : t -> int
(** The upper bound of the bucket holding the rank-[ceil (count / 2)]
    sample, clamped to the observed max; 0 when empty. [p95] and [p99]
    likewise. *)

val p95 : t -> int
val p99 : t -> int

type summary = {
  s_count : int;
  s_sum : int;
  s_min : int;
  s_max : int;
  s_p50 : int;
  s_p95 : int;
  s_p99 : int;
}

val summary : t -> summary
