(** Packed mode (§5.1): application-supplied conversion into a standard
    byte-stream transport format.

    The transport format is character-based — every value is a
    machine-representation-independent text token — so "standard problems
    with byte orderings do not arise, since the message is viewed as a byte
    stream". Codecs compose; {!of_layout} is the moral equivalent of
    Schlegel's generator, deriving pack/unpack directly from a message
    structure definition. *)

exception Unpack_error of string

type cursor
(** Read position inside packed data. *)

type 'a t = {
  pack : Buffer.t -> 'a -> unit;
  unpack : cursor -> 'a;
}
(** A codec: how to pack a value into the transport format and back. *)

val run_pack : 'a t -> 'a -> Bytes.t

val run_unpack : 'a t -> Bytes.t -> 'a
(** Raises {!Unpack_error} on malformed data or trailing bytes. *)

val run_unpack_result : 'a t -> Bytes.t -> ('a, string) result
(** Exception-free variant for protocol boundaries. *)

(** {1 Primitives} *)

val int : int t
val bool : bool t

val float : float t
(** Exact (hexadecimal text representation). *)

val string : string t
(** Length-prefixed; may contain any byte. *)

(** {1 Combinators} *)

val list : ?max:int -> 'a t -> 'a list t
(** [max] bounds the element count a decoder accepts: a longer list
    raises {!Unpack_error} before any element is read. Unbounded by
    default. *)

val pair : 'a t -> 'b t -> ('a * 'b) t
val triple : 'a t -> 'b t -> 'c t -> ('a * 'b * 'c) t
val option : 'a t -> 'a option t

val iso : fwd:('a -> 'b) -> bwd:('b -> 'a) -> 'a t -> 'b t
(** Map a codec through an isomorphism — how record types get codecs. *)

val unit : unit t
(** Packs to nothing: the payload of a nullary union case. *)

type 'a case
(** One case of a tagged union over ['a], its payload type hidden. *)

val case : string -> 'b t -> ('b -> 'a) -> ('a -> 'b option) -> 'a case
(** [case tag codec inj prj]: values [v] with [prj v = Some x] pack as
    [tag] then [x]; [tag] unpacks through [codec] then [inj]. *)

val tagged : 'a case list -> 'a t
(** Tagged unions: the first case whose projection accepts the value packs
    it. Unknown tags raise {!Unpack_error}; a value no case accepts raises
    [Invalid_argument]. *)

val of_layout : Layout.t -> Layout.value list t
(** Generate the packed codec from a message structure definition, so one
    description yields both conversion modes. It carries exactly the values
    {!Layout.check} accepts: packing any other raises [Invalid_argument],
    unpacking one raises {!Unpack_error}. *)
