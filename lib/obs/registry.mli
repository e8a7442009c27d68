(** Per-world observability registry: counters, gauges, histograms, the
    world's one event log (causal span events and trace entries), and the
    deterministic circuit-id allocator. *)

type t

val create : unit -> t

(** {1 Counters and gauges} *)

val incr : ?by:int -> t -> string -> unit
val get : t -> string -> int
val set_gauge : t -> string -> float -> unit
val gauge : t -> string -> float

val counters_alist : t -> (string * int) list
val gauges_alist : t -> (string * float) list

(** {1 Histograms} *)

val observe : t -> string -> int -> unit
(** Record a sample in histogram [name], creating it on first use. *)

val find_histo : t -> string -> Histo.t option
val histos_alist : t -> (string * Histo.t) list

(** {1 Circuit ids} *)

val fresh_circuit : t -> int
(** Next world-unique circuit id (base + 1, base + 2, ...). Allocation
    order is fixed by the deterministic scheduler, so equal seeds allocate
    identical ids. *)

val set_circuit_base : t -> int -> unit
(** Shard namespace offset for parallel worlds (shard [i] gets
    [i * 1_000_000]) so circuit ids stay unique in merged span logs.
    Raises [Invalid_argument] once any circuit has been allocated. *)

val circuits_allocated : t -> int
(** Count of circuits allocated (excludes the base). *)

(** {1 The event log}

    One append-only log per world, for span events and trace entries (an
    instant with {!Span.none}, named by its category) alike. *)

val span : t -> Span.event -> unit
(** Append. Every event is kept: a reader selects the names it wants. *)

val spans : t -> Span.event list
(** Oldest first. *)

val span_count : t -> int

val clear_spans : t -> unit
(** Empty the log; counters and histograms stay. *)

(** {1 Printing} *)

val pp_stats : Format.formatter -> t -> unit
(** Counters then gauges, sorted. *)
