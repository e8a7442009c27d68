(** Network-dependent physical addresses — the lowest of the paper's three
    addressing levels (§2.3).

    A TCP address is host:port; an MBX address is a mailbox pathname. The
    naming service stores them uninterpreted, as strings; only the ND-layer
    ever takes them apart. *)

type t =
  | Tcp of { host : string; port : int }
  | Mbx of { path : string }

val tcp : host:string -> port:int -> t
val mbx : path:string -> t

type kind = K_tcp | K_mbx

val kind : t -> kind
val kind_to_string : kind -> string

val to_string : t -> string
(** ["tcp://host:port"] or ["mbx:path"] — the uninterpreted form the naming
    service carries. *)

val of_string : string -> t option
(** Inverse of {!to_string}; [None] on malformed input. *)
