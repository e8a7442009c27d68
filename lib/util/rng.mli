(** Deterministic splitmix64 pseudo-random generator.

    All randomness in the simulator flows through explicitly-seeded values of
    {!t}, keeping every experiment reproducible. *)

type t

val create : int -> t
(** [create seed] is a fresh generator. Equal seeds yield equal streams. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. Raises [Invalid_argument] if
    [bound <= 0]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val between : t -> int -> int -> int
(** [between t lo hi] is uniform in [\[lo, hi)]; returns [lo] if [hi <= lo]. *)

val split : t -> t
(** Derive an independent generator (for giving subsystems their own stream). *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val pick : t -> 'a array -> 'a
(** Uniformly chosen element. Raises [Invalid_argument] on an empty array. *)
