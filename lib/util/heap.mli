(** Array-backed binary min-heap, with lazy withdrawal of elements. *)

type 'a t

val create : leq:('a -> 'a -> bool) -> gone:('a -> bool) -> 'a t
(** [create ~leq ~gone] is an empty heap ordered by [leq] (total preorder:
    [leq a b] means [a] sorts before or equal to [b]). An element is
    withdrawn while stored by setting a mark on it that [gone] reads and
    then calling {!withdrawn}. From then on it is invisible: it is never
    returned, and it is not counted by {!length}. *)

val withdrawn : 'a t -> unit
(** Report that one stored element has just been marked gone. Call it
    exactly once per such element, and only while the element is stored.
    Compacts the array once gone elements are more than half of it, so
    storage stays O(live elements). *)

val length : 'a t -> int
(** Live elements. *)

val is_empty : 'a t -> bool
(** No live element left. Drops gone elements off the top. *)

val push : 'a t -> 'a -> unit

val top : 'a t -> 'a
(** Smallest live element, without removing it. Raises
    [Invalid_argument] when empty; does not allocate. *)

val pop_min : 'a t -> 'a
(** Remove and return the smallest live element. Raises
    [Invalid_argument] when empty; does not allocate. *)
