(** Scenario description files: a small line-oriented format so
    experiments can be run from the CLI without recompiling
    ([examples/scenarios/] holds three).

    One [key value] pair per line, key and value separated by a space;
    [#] starts a comment and blank lines are skipped.  A value with
    several fields separates them with spaces.  A later line overrides
    an earlier one, except that [cp-flap] and [cp-partition] add one
    outage each and [pce-crash-at]/[pce-recover-at] pair up into crash
    windows (a crash with no recovery never restarts).  Without any
    [cp-*], [pce-*], [attack-*], [auth-*] or [glean-cap] key the matching
    layer does not exist, so the run is byte-identical to one without it.

    Every key is one entry of the table in [scenario_file.ml], giving
    its value syntax, a one-line doc and its setter; {!keys} lists them
    and [repro_cli connect --help] prints them.  Unknown keys, malformed
    values, out-of-range numbers and domain ids the topology does not
    have are reported with their line number.  Omitted keys take the
    defaults in {!default}. *)

type workload = {
  flows : int;
  rate : float;
  zipf_alpha : float;
  data_packets : int;
  data_bytes : int;
  hotspot : int option;
}

type t = { config : Scenario.config; workload : workload }

val default : t
(** {!Scenario.default_config} on a 16-domain random internet
    ({!Topology.Builder.default_params} otherwise).  Its [workload] is
    also the default workload of every experiment. *)

val keys : (string * string * string) list
(** [(name, value syntax, doc)] for every key, in table order. *)

val parse : ?figure1:bool -> string -> (t, string) result
(** Parse file contents over {!default}.  [~figure1:true] starts from
    the Figure-1 topology instead, as a leading [topology figure1] line
    would.  An error reads ["line N: message"]. *)

val load : string -> (t, string) result
(** Read and parse a file; IO errors become [Error]. *)
