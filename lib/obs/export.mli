(** Exporters: JSONL event streams and JSON/CSV metrics snapshots.

    Event stream: one JSON object per line, every line carrying [time],
    [actor] and [kind]; flow-scoped events add [flow]; kind-specific
    payload fields follow ({!Event.to_json}).

    Metrics: [{"runs": [{"label", "final", "interval", "series"}]}] in
    JSON, or long-format [run,time,metric,value] rows in CSV (chosen by
    the [.csv] file extension). *)

val event_line : Event.t -> string
(** One event as a single JSON line (no trailing newline). *)

val jsonl_sink : out_channel -> Hub.sink
(** A hub sink appending one JSON line per event to [oc]. *)

val parse_event : string -> (Event.t, string) result
(** Parse one JSONL line back into an event. *)

val read_jsonl : string -> Event.t list * (int * string) list
(** Read a whole exported file: parsed events in order, plus
    [(line-number, message)] for every unparseable line. *)

type run = {
  run_label : string;
  registry : Registry.t;
  sampler : Sampler.t option;
}

val write_metrics : file:string -> run list -> unit
(** Write CSV when [file] ends in [.csv], JSON otherwise. *)
