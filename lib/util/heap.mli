(** Array-backed binary min-heap. *)

type 'a t

val create : leq:('a -> 'a -> bool) -> 'a t
(** [create ~leq] is an empty heap ordered by [leq] (total preorder:
    [leq a b] means [a] sorts before or equal to [b]). *)

val length : 'a t -> int
val is_empty : 'a t -> bool

val push : 'a t -> 'a -> unit

val peek : 'a t -> 'a option
(** Smallest element, without removing it. *)

val pop : 'a t -> 'a option
(** Remove and return the smallest element. *)

val to_list : 'a t -> 'a list
(** Drain the heap into a sorted list (destructive). *)
