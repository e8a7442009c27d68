(** Bounded FIFO queue: once full, pushes are refused. *)

type 'a t

val create : int -> 'a t
(** Raises [Invalid_argument] on a non-positive capacity. *)

val is_full : 'a t -> bool

val push : 'a t -> 'a -> bool
(** [push t x] enqueues [x] and returns [true]; returns [false] when the
    queue is full. *)

val pop : 'a t -> 'a option

val iter : 'a t -> ('a -> unit) -> unit
