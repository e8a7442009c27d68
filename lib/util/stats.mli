(** Sample accumulator: mean and percentiles. *)

type t

val create : unit -> t
val add : t -> float -> unit
val count : t -> int
val mean : t -> float

val percentile : t -> float -> float
(** [percentile t p] with [p] in [\[0, 100\]], linear interpolation. *)

val median : t -> float
