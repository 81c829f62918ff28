(** Fixed-bucket time series.

    Counts (or sums) events into uniform time buckets over
    [\[0, horizon)] — drop timelines, per-second delivery rates, link
    load histories.  Out-of-range samples are counted separately rather
    than silently discarded. *)

type t

val create : bucket:float -> horizon:float -> t
(** [bucket] seconds per bin; both must be positive. *)

val bucket_count : t -> int

val add : t -> at:float -> ?value:float -> unit -> unit
(** Add [value] (default 1.0) to the bucket containing time [at]. *)

val total : t -> float
(** Sum over all buckets (excludes out-of-range samples). *)

val out_of_range : t -> int
(** Samples that fell outside [\[0, horizon)]. *)

val value : t -> int -> float
(** Raises [Invalid_argument] on a bad index. *)

val values : t -> float array
(** A copy of the bucket contents. *)

val bucket_start : t -> int -> float

val peak : t -> (float * float) option
(** [(bucket_start, value)] of the largest bucket; [None] when all
    buckets are zero. *)

val last_active : t -> float option
(** Start time of the last non-zero bucket. *)

val first_active_after : t -> float -> float option
(** Start time of the first non-zero bucket at or after the given
    time. *)

val last_active_after : t -> float -> float option
(** Start time of the last non-zero bucket at or after the given time —
    e.g. "when did drops cease after the failure". *)

val to_rows : t -> (float * float) list
(** [(bucket_start, value)] pairs for tables/CSV. *)

val pp : Format.formatter -> t -> unit
(** Sparkline-style rendering, one line per bucket with a bar. *)
