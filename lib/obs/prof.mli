(** Observability face of the self-profiler.

    The accounting core lives in {!Netsim.Prof} so the engine itself
    can be instrumented (obs depends on netsim, not the other way
    around); this module re-exports it and adds everything that needs
    the observability stack: GC telemetry, JSON round-trip for
    BENCH.json (schema [lisp-pce-bench/4]), the human-readable
    breakdown table, Chrome-trace export of the recorded intervals,
    and registry gauges. *)

include module type of struct
  include Netsim.Prof
end

(** {1 GC telemetry}

    Flat [(name, value)] lists derived from [Gc.quick_stat]: the
    counter-like fields ([minor_collections], [major_collections],
    [compactions], [minor_words], [promoted_words], [major_words]) and
    the size fields ([heap_words], [top_heap_words]). *)

val gc_snapshot : unit -> (string * float) list

val gc_since : (string * float) list -> (string * float) list
(** [gc_since before] reads the GC again and returns counter fields as
    deltas since [before] and size fields at their current (absolute)
    value — the shape worth putting in a per-experiment report. *)

val register_gc_gauges : Registry.t -> unit
(** Register the {!gc_snapshot} fields as [gc.*] gauges (read at
    snapshot time, so sampled timelines see GC progress). *)

(** {1 BENCH.json (v3) serialisation} *)

val json_of_report : ?gc:(string * float) list -> report -> Json.t
(** Object with [wall_s], [coverage], [unattributed_s],
    [intervals_dropped], [phases] (each with [name]/[self_s]/[total_s]/
    [calls]/[share] where share = self/wall) and [gc]. *)

val report_of_json :
  Json.t -> (report * (string * float) list, string) result
(** Inverse of {!json_of_report} (up to float formatting: values
    round-trip through the exporter's decimal rendering, so compare
    with a relative epsilon).  Returns the report and the [gc] list.
    Fields it does not read are ignored, among them the [counters]
    list that records written while the profiler had named counters
    still carry. *)

(** {1 Rendering} *)

val pp_report : Format.formatter -> report -> unit
(** Per-phase table sorted by self time (descending), with share
    percentages, calls and an unattributed row, then a line counting
    dropped profile intervals, if any. *)

(** {1 Chrome-trace self-profile} *)

val chrome_events :
  ?pid:int -> ?process_name:string -> interval list -> Json.t list
(** Complete ["X"]-phase event objects (timestamps in microseconds
    since the profiled origin) preceded by a [process_name] metadata
    record — ready to drop into a [traceEvents] array, alongside the
    span export from {!Span.write_chrome_trace}. *)

val write_chrome_trace :
  file:string -> (string * interval list) list -> unit
(** One Chrome-trace JSON file with one process per labelled interval
    set.  Open the result in [chrome://tracing] / Perfetto. *)
