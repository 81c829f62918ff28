(** Online statistics for simulation measurements.

    Three collectors cover the experiments' needs: {!Summary} for
    streaming mean/variance, {!Samples} for quantiles (exact by
    default, bounded-memory reservoir sampling for million-flow runs)
    and {!P2} for O(1)-memory single-quantile tracking.  {!jain_index}
    computes the fairness metric used by the traffic-engineering
    experiments. *)

module Summary : sig
  (** Welford's streaming mean and variance. *)

  type t

  val create : unit -> t
  val add : t -> float -> unit
  val mean : t -> float
  (** 0 when empty. *)

  val variance : t -> float
  (** Unbiased sample variance; 0 with fewer than two observations. *)

  val stddev : t -> float
end

module Samples : sig
  (** Quantiles over observations, stored unboxed ([floatarray]).

      [Exact] mode (the default) stores every observation and reports
      exact order statistics.  [Reservoir k] keeps a uniform random
      sample of at most [k] observations (Vitter's algorithm R, with a
      deterministic internal stream so runs are reproducible): memory
      stays O(k) while count and mean remain exact, and quantiles become
      unbiased estimates — the mode the 100k–1M-flow scale experiments
      run in. *)

  type t

  type mode = Exact | Reservoir of int

  val create : ?mode:mode -> unit -> t
  (** Default [Exact].  Raises [Invalid_argument] when the reservoir
      capacity is not positive. *)

  val add : t -> float -> unit

  val count : t -> int
  (** Observations offered, regardless of how many were retained. *)

  val retained : t -> int
  (** Observations currently stored: equal to {!count} in [Exact] mode,
      bounded by the capacity in [Reservoir] mode. *)

  val mean : t -> float
  (** Exact streaming mean over every observation, in both modes. *)

  val percentile : t -> float -> float
  (** [percentile t p] with [p] in [\[0, 100\]], linear interpolation
      between order statistics of the retained observations (exact in
      [Exact] mode, estimated in [Reservoir] mode).  Raises
      [Invalid_argument] when empty or [p] out of range. *)

  val median : t -> float
end

module P2 : sig
  (** The P² algorithm (Jain & Chlamtac, 1985): tracks one quantile with
      five markers — O(1) memory and O(1) update, no samples stored.
      Typical estimation error is well under a percent of the value
      range once a few hundred observations have arrived. *)

  type t

  val create : p:float -> t
  (** [create ~p] tracks the [p]-th percentile, [p] in (0, 100)
      exclusive.  Raises [Invalid_argument] otherwise. *)

  val add : t -> float -> unit

  val quantile : t -> float
  (** Current estimate; exact while fewer than five observations have
      been seen.  Raises [Invalid_argument] when empty. *)
end

val jain_index : float array -> float
(** Jain's fairness index [(Σx)² / (n·Σx²)]: 1 when perfectly balanced,
    [1/n] when one element carries everything.  Defined as 1.0 for empty
    or all-zero input. *)
