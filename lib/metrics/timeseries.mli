(** Fixed-bucket time series.

    Counts (or sums) events into uniform time buckets over
    [\[0, horizon)] — drop timelines, per-second delivery rates, link
    load histories. *)

type t

val create : bucket:float -> horizon:float -> t
(** [bucket] seconds per bin; both must be positive. *)

val bucket_count : t -> int

val add : t -> at:float -> ?value:float -> unit -> unit
(** Add [value] (default 1.0) to the bucket containing time [at].  A
    sample outside [\[0, horizon)] is ignored. *)

val value : t -> int -> float
(** Raises [Invalid_argument] on a bad index. *)

val values : t -> float array
(** A copy of the bucket contents. *)

val bucket_start : t -> int -> float

val last_active_after : t -> float -> float option
(** Start time of the last non-zero bucket at or after the given time —
    e.g. "when did drops cease after the failure". *)
