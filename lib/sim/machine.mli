(** Simulated machines: the VAX / Sun-3 / Apollo hosts of the paper.

    What matters to the NTCS is that machine types disagree about native
    data representation (byte order), giving the conversion machinery real
    work, and that each machine runs its own drifting clock, giving the
    DRTS time corrector real error to correct. *)

type mtype =
  | Vax  (** little-endian, Unix TCP *)
  | Sun3  (** big-endian, Unix TCP *)
  | Apollo  (** big-endian, Aegis MBX *)

type byte_order = Little_endian | Big_endian

val byte_order : mtype -> byte_order

type id = int

type t = {
  id : id;
  name : string;
  mtype : mtype;
  mutable up : bool;
  drift_ppm : float;  (** clock rate error, parts per million *)
  offset_us : int;  (** initial clock offset *)
}

val make :
  id:id -> name:string -> mtype:mtype -> ?drift_ppm:float -> ?offset_us:int -> unit -> t

val local_time : t -> now_us:int -> int
(** The machine's own wall clock as a function of global virtual time. *)
