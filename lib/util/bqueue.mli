(** Bounded FIFO queue with drop accounting. *)

type 'a t

val create : int -> 'a t
(** Raises [Invalid_argument] on a non-positive capacity. *)

val length : 'a t -> int
val is_full : 'a t -> bool

val push : 'a t -> 'a -> bool
(** [push t x] enqueues [x] and returns [true]; returns [false] (and counts a
    drop) when the queue is full. *)

val pop : 'a t -> 'a option
val peek : 'a t -> 'a option

val dropped : 'a t -> int
(** Number of refused pushes since creation. *)

val iter : 'a t -> ('a -> unit) -> unit
