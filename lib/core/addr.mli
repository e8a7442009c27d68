(** The NTCS internal address space (§2.3, §3.4).

    UAdds are flat, network- and location-independent unique addresses
    assigned by the naming service (a counter, plus a name-server identifier
    so replicated name servers never collide). TAdds are identical in form
    but only locally unique to the module that assigned them: they exist so
    the internal protocols work before the naming service has assigned a
    real UAdd, and they are purged from all tables within the first
    communications with the name server. *)

type space =
  | Unique of int  (** the name-server id that assigned it *)
  | Temporary of int  (** the assigner's tag: locally unique only *)

type t = { space : space; value : int }

val unique : server_id:int -> value:int -> t
(** Raises [Invalid_argument] when [server_id] exceeds 30 bits. *)

val temporary : assigner:int -> value:int -> t

val is_temporary : t -> bool
val is_unique : t -> bool
val equal : t -> t -> bool
val compare : t -> t -> int

val to_string : t -> string
(** ["U<server>.<value>"] or ["T<assigner>.<value>"]. *)

val space_word : t -> int
(** First shift-mode word: the temporary flag (top bit) and the space tag. *)

val value_word : t -> int
(** Second shift-mode word: the value, kept to 32 bits. *)

val of_words : int -> int -> t
(** Inverse of {!space_word} and {!value_word}. *)

(** Per-module generator of TAdds: a module assigns itself one at start, and
    each Nucleus layer assigns its own TAdd to each incoming connection from
    a TAdd source (§3.4). *)
module Tadd_gen : sig
  type gen

  val create : assigner:int -> gen
  val fresh : gen -> t
end
