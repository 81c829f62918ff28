(** Reports over a {!Netsim.Telemetry} plane.

    The presentation layers the rest of the observability stack already
    has for {!Prof}: registry gauges, a JSON snapshot, rendered tables, a
    windowed-series CSV, and Chrome-trace counter events.  Every report
    reads the plane it is given (a scenario's, via [Scenario.telemetry]);
    the counters and hooks themselves live in {!Netsim.Telemetry}.  The
    drop figures (the [dropped] gauge, the JSON [dropped]/[drop_totals]/
    [drops_by_node] fields and {!drop_table}) read the scenario's
    {!Netsim.Drop} ledger through {!Netsim.Telemetry.ledger}, rejections
    included, and label the causes as they print. *)

val register_gauges : Registry.t -> Netsim.Telemetry.t -> unit
(** Register a ["telemetry"] gauge family over the plane: window/
    cumulative bytes and shares per provider and direction, Jain
    indexes, load ratios (only when finite), drop and sketch totals. *)

val gauge_rows : Netsim.Telemetry.t -> (string * float) list
(** The rows {!register_gauges} exports, for callers that sample
    directly. *)

val json_snapshot : ?series:bool -> Netsim.Telemetry.t -> Json.t
(** Full structured snapshot: config, TE balance (window and total),
    per-provider / per-node / per-link stats, drop totals and
    per-node attributions, top EIDs/flows with error bounds, and IRC
    selection counts.  Nodes carry their {!Netsim.Telemetry.node_name}.
    [series:true] additionally embeds the retained per-provider
    windowed series.  Non-finite load ratios serialise as [null]. *)

(** {1 Tables} *)

val provider_table : Netsim.Telemetry.t -> Metrics.Table.t
(** Per-provider in/out bytes and shares, with a trailing Jain/ratio
    summary row over the sliding window. *)

val node_table : ?limit:int -> Netsim.Telemetry.t -> Metrics.Table.t
(** Per-node tx/rx/fwd counters, heaviest nodes first (default top
    20). *)

val drop_table : Netsim.Telemetry.t -> Metrics.Table.t
(** Per-(node, cause) drop counts with share of all drops. *)

val top_eid_table : ?limit:int -> Netsim.Telemetry.t -> Metrics.Table.t
val top_flow_table : ?limit:int -> Netsim.Telemetry.t -> Metrics.Table.t

val tables : Netsim.Telemetry.t -> Metrics.Table.t list
(** All of the above, in report order. *)

(** {1 Series export} *)

val series_csv : Netsim.Telemetry.t -> string
(** Retained per-provider windowed series as CSV
    ([slot,start_s,provider,direction,pkts,bytes]). *)

(** {1 Chrome trace} *)

val chrome_counter_events : ?pid:int -> Netsim.Telemetry.t -> Json.t list
(** ["ph":"C"] counter events (one track per provider and direction,
    one sample per retained window) on the simulated-time axis, in
    microseconds — mergeable with {!Prof.chrome_events} output. *)

val write_chrome_trace : file:string -> Netsim.Telemetry.t -> unit
(** Write [{"traceEvents": [...]}] containing the counter events. *)
