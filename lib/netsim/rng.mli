(** Deterministic pseudo-random number generation for simulations.

    The generator is SplitMix64: a small, fast, well-distributed generator
    whose state is a single [int64].  Every stochastic component of the
    simulator takes an explicit [Rng.t] so that experiments are
    bit-reproducible from their seed.  Independent streams are obtained
    with {!split}, which never shares state with its parent. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] returns a fresh generator.  Equal seeds yield equal
    streams. *)

val copy : t -> t
(** [copy t] duplicates the current state; the copy evolves
    independently. *)

val split : t -> t
(** [split t] derives a statistically independent generator from [t],
    advancing [t] once.  Use one split stream per simulation component so
    that adding draws to one component does not perturb the others. *)

val int64 : t -> int64
(** Next raw 64-bit output. *)

val float : t -> float
(** [float t] is uniform in [\[0, 1)]. *)

val uniform : t -> lo:float -> hi:float -> float
(** Uniform in [\[lo, hi)].  Requires [lo <= hi]. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].  Requires [bound > 0]. *)

val bool : t -> bool
(** Fair coin. *)

val bernoulli : t -> p:float -> bool
(** [bernoulli t ~p] is [true] with probability [p]. *)

val exponential : t -> mean:float -> float
(** Exponentially distributed sample with the given mean.
    Requires [mean > 0]. *)

val pareto : t -> shape:float -> scale:float -> float
(** Pareto (type I) sample: minimum value [scale], tail index [shape].
    Requires [shape > 0] and [scale > 0]. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

module Zipf : sig
  (** Zipf-distributed ranks over a finite universe, used for destination
      popularity in workloads.  Sampling is O(1) per draw via Walker's
      alias method (one uniform variate per sample); table construction
      is O(n). *)

  type dist

  val create : n:int -> alpha:float -> dist
  (** [create ~n ~alpha] prepares a Zipf distribution over ranks
      [0 .. n-1] with exponent [alpha >= 0].  [alpha = 0] degenerates to
      the uniform distribution. *)

  val sample : dist -> t -> int
  (** Draw a rank in [\[0, n)]. *)

  val support : dist -> int
  (** The universe size [n]. *)

  val probability : dist -> int -> float
  (** [probability d k] is the probability mass of rank [k]. *)
end
