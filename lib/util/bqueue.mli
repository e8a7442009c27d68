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

val push_evict : 'a t -> 'a -> unit
(** [push_evict t x] enqueues [x], first dropping the oldest item when the
    queue is full: a ring of the latest [capacity] items. *)

val newest : 'a t -> int -> 'a list
(** The newest [n] items (all of them when fewer), oldest first. *)
