(** Small statistics toolkit used by the experiment runner and benches.

    Two flavours: {!Summary} is a constant-memory accumulator for streams of
    observations (counts, mean, variance, min/max), and {!Sample} retains all
    observations so that exact percentiles can be reported in experiment
    tables. *)

module Summary : sig
  type t

  (** A fresh, empty accumulator. *)
  val create : unit -> t

  (** [add t x] records one observation. Welford's algorithm keeps the mean
      and variance numerically stable. *)
  val add : t -> float -> unit

  val count : t -> int
  val mean : t -> float

  (** Sample variance (Bessel-corrected); [0.] with fewer than 2 points. *)
  val variance : t -> float

  (** [min t], [max t]: raise [Invalid_argument] when empty. *)
  val min : t -> float

  val max : t -> float

  (** Total of all observations. *)
  val total : t -> float
end

module Sample : sig
  type t

  val create : unit -> t
  val add : t -> float -> unit
  val count : t -> int
  val mean : t -> float

  (** [percentile t p] with [p] in [\[0,100\]], linear interpolation between
      order statistics. Raises [Invalid_argument] when empty or [p] is out of
      range. *)
  val percentile : t -> float -> float

  val median : t -> float

  (** All observations in insertion order. *)
  val values : t -> float array
end

(** [histogram ~buckets values] splits the value range into [buckets]
    equal-width bins and returns [(lower_bound, count)] pairs; used by the
    CLI's trace summaries. Raises [Invalid_argument] if [buckets <= 0]. *)
val histogram : buckets:int -> float array -> (float * int) array
