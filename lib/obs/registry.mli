(** Central metrics registry: named gauges and histograms with a
    snapshot operation.

    Gauges are callback-based so existing subsystem counters
    ([Lispdp.Dataplane.counters], [Mapsys.Cp_stats], map-cache stats,
    engine internals) can be exposed without double bookkeeping — a
    registered gauge costs nothing until a snapshot reads it. *)

type t

type histogram

type summary = {
  hist_count : int;
  hist_sum : float;
  hist_min : float;
  hist_max : float;
  hist_mean : float;
}

type value = Gauge of float | Histogram of summary

val create : unit -> t

val register_gauge : t -> string -> (unit -> float) -> unit
(** Register a read-on-snapshot gauge.  Raises [Invalid_argument] on a
    duplicate name. *)

val register_many : t -> string -> (unit -> (string * float) list) -> unit
(** Register a dynamically-keyed gauge family: each [(key, v)] row the
    collector returns appears in snapshots as ["prefix.key"].  Used for
    per-cause drop counts whose key set is not known up front. *)

val histogram : t -> string -> histogram
(** Get-or-create a named histogram (count/sum/min/max/mean summary). *)

val observe : histogram -> float -> unit

val scalar : value -> float
(** Flatten a value to one scalar: gauge value, histogram observation
    count. *)

val snapshot : t -> (string * value) list
(** Current value of every metric, sorted by name. *)

val sample : t -> (string * float) list
(** Like {!snapshot} but flattened to one scalar per metric (gauge
    value, histogram observation count) — the shape the periodic
    sampler stores. *)

val size : t -> int
(** Number of statically-registered metrics (excludes collector rows). *)
