(* Command-line interface to the reproduction.

     repro_cli list                     enumerate experiments
     repro_cli run t1 [--csv DIR]       run one (or more) experiments
                [--trace-out FILE]      ... exporting structured events (JSONL)
                [--metrics-out FILE]    ... and metrics (JSON, or CSV by suffix)
     repro_cli obs FILE                 summarise an exported event stream
     repro_cli spans FILE               per-run latency decomposition
                [--chrome FILE]        ... plus a Perfetto-loadable trace
     repro_cli prof t1 [--chrome FILE]  run experiments under the self-profiler
     repro_cli trace                    print the Figure-1 walkthrough
     repro_cli topology [-d N] [-p N]   describe a generated internet
     repro_cli connect [-s 'KEY VALUE'] one measured connection end-to-end *)

open Cmdliner

(* ------------------------------------------------------------------ *)
(* list                                                                *)
(* ------------------------------------------------------------------ *)

let list_cmd =
  let run () =
    List.iter
      (fun e ->
        Printf.printf "%-6s %s\n" e.Experiments.Exp_index.exp_id
          e.Experiments.Exp_index.exp_title)
      Experiments.Exp_index.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List the experiments the harness can regenerate.")
    Term.(const run $ const ())

(* ------------------------------------------------------------------ *)
(* run                                                                 *)
(* ------------------------------------------------------------------ *)

let run_cmd =
  let ids =
    Arg.(non_empty & pos_all string [] & info [] ~docv:"EXPERIMENT"
           ~doc:"Experiment ids (see $(b,list)).")
  in
  let csv_dir =
    Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"DIR"
           ~doc:"Also write each table as a CSV file into $(docv).")
  in
  let trace_out =
    Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE"
           ~doc:"Export every structured event of every scenario the \
                 experiments build, one JSON object per line.")
  in
  let metrics_out =
    Arg.(value & opt (some string) None & info [ "metrics-out" ] ~docv:"FILE"
           ~doc:"Export the metrics registry of every scenario: final \
                 snapshot plus periodic samples, as JSON (or CSV when \
                 $(docv) ends in .csv).")
  in
  let metrics_interval =
    Arg.(value & opt float 1.0 & info [ "metrics-interval" ] ~docv:"SECONDS"
           ~doc:"Simulated-time spacing of periodic metrics samples.")
  in
  let run ids csv_dir trace_out metrics_out metrics_interval =
    let entries =
      List.map
        (fun id ->
          match Experiments.Exp_index.find id with
          | Some e -> e
          | None ->
              Printf.eprintf "unknown experiment id: %s (try 'list')\n" id;
              exit 1)
        ids
    in
    let exporting = trace_out <> None || metrics_out <> None in
    if exporting then begin
      if metrics_interval <= 0.0 then begin
        Printf.eprintf "repro_cli: --metrics-interval must be positive\n";
        exit 1
      end;
      ignore
        (Obs.Runtime.install ?trace_out ?metrics_out ~metrics_interval ())
    end;
    Fun.protect
      ~finally:(fun () ->
        if exporting then begin
          Obs.Runtime.finalize ();
          Option.iter (Printf.printf "(events written to %s)\n") trace_out;
          Option.iter (Printf.printf "(metrics written to %s)\n") metrics_out
        end)
      (fun () ->
        List.iter
          (fun e ->
            Printf.printf ">>> [%s] %s\n%!" e.Experiments.Exp_index.exp_id
              e.Experiments.Exp_index.exp_title;
            match csv_dir with
            | None -> e.Experiments.Exp_index.print ()
            | Some dir ->
                if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
                let tables = e.Experiments.Exp_index.tables () in
                List.iteri
                  (fun i table ->
                    Metrics.Table.print table;
                    let file =
                      Filename.concat dir
                        (Printf.sprintf "%s_%d.csv"
                           e.Experiments.Exp_index.exp_id i)
                    in
                    let oc = open_out file in
                    output_string oc (Metrics.Table.to_csv table);
                    close_out oc;
                    Printf.printf "(csv written to %s)\n" file)
                  tables)
          entries)
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:"Run experiments by id and print (optionally export) their tables.")
    Term.(const run $ ids $ csv_dir $ trace_out $ metrics_out
          $ metrics_interval)

(* ------------------------------------------------------------------ *)
(* trace                                                               *)
(* ------------------------------------------------------------------ *)

let trace_cmd =
  let run () = Experiments.Exp_f1.print () in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Print the step-by-step event trace of the paper's Figure 1.")
    Term.(const run $ const ())

(* ------------------------------------------------------------------ *)
(* topology                                                            *)
(* ------------------------------------------------------------------ *)

let topology_cmd =
  let domains =
    Arg.(value & opt int 10 & info [ "d"; "domains" ] ~docv:"N"
           ~doc:"Number of LISP domains.")
  in
  let providers =
    Arg.(value & opt int 4 & info [ "p"; "providers" ] ~docv:"N"
           ~doc:"Number of transit providers.")
  in
  let borders =
    Arg.(value & opt int 2 & info [ "b"; "borders" ] ~docv:"N"
           ~doc:"Border routers per domain.")
  in
  let seed =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"RNG seed.")
  in
  let run domains providers borders seed =
    let net =
      Topology.Builder.generate
        (Netsim.Rng.create seed)
        { Topology.Builder.default_params with
          Topology.Builder.domain_count = domains; provider_count = providers;
          borders_per_domain = borders }
    in
    Format.printf "%d nodes, %d providers, %d domains@."
      (Topology.Graph.node_count net.Topology.Builder.graph)
      (Array.length net.Topology.Builder.providers)
      (Array.length net.Topology.Builder.domains);
    Array.iter
      (fun (p : Topology.Builder.provider) ->
        Format.printf "provider %s: %a@." p.Topology.Builder.provider_name
          Nettypes.Ipv4.pp_prefix p.Topology.Builder.prefix)
      net.Topology.Builder.providers;
    Array.iter
      (fun d ->
        Format.printf "%a@." Topology.Domain.pp d;
        Array.iter
          (fun b ->
            Format.printf "  rloc %a via provider %s (%.1f ms uplink)@."
              Nettypes.Ipv4.pp_addr b.Topology.Domain.rloc
              net.Topology.Builder.providers.(b.Topology.Domain.provider)
                .Topology.Builder.provider_name
              (Topology.Link.latency b.Topology.Domain.uplink *. 1e3))
          d.Topology.Domain.borders)
      net.Topology.Builder.domains
  in
  Cmd.v
    (Cmd.info "topology" ~doc:"Generate and describe a random internet.")
    Term.(const run $ domains $ providers $ borders $ seed)

(* ------------------------------------------------------------------ *)
(* simulate                                                            *)
(* ------------------------------------------------------------------ *)

(* The SCENARIO KEYS man section, one item per entry of the
   scenario-file key table. *)
let scenario_keys =
  [ `S Manpage.s_options;
    `S "SCENARIO KEYS";
    `P "A scenario file holds one $(i,KEY VALUE) line per setting, and \
        $(b,connect --set) takes the same lines.  A $(b,#) starts a \
        comment; omitted keys keep their defaults." ]
  @ List.map
      (fun (name, syntax, doc) ->
        let label =
          Printf.sprintf "$(b,%s) %s" (Manpage.escape name) (Manpage.escape syntax)
        in
        `I (label, Manpage.escape doc))
      Core.Scenario_file.keys

(* A scenario file as a harness spec; a parse error is reported with its
   line and exits 1. *)
let load_spec file =
  match Experiments.Harness.spec_of_file file with
  | Ok spec -> spec
  | Error message ->
      Printf.eprintf "%s: %s\n" file message;
      exit 1

let simulate_cmd =
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE"
           ~doc:"Scenario description file (see lib/core/scenario_file.mli).")
  in
  let run file =
    let spec = load_spec file in
    let r = Experiments.Harness.run spec in
    let table =
      Metrics.Table.create
        ~title:(Printf.sprintf "simulation: %s" (Filename.basename file))
        ~columns:[ "metric"; "value" ]
    in
    let h = Experiments.Harness.mean r.Experiments.Harness.setups in
    Metrics.Table.add_rows table
      [ [ "control plane";
          Core.Scenario.cp_label
            spec.Experiments.Harness.config.Core.Scenario.cp ];
        [ "flows opened"; string_of_int r.Experiments.Harness.opened ];
        [ "established"; string_of_int r.Experiments.Harness.established ];
        [ "failed"; string_of_int r.Experiments.Harness.failed ];
        [ "drops"; string_of_int (Experiments.Harness.drops r) ];
        [ "syn retransmissions";
          string_of_int r.Experiments.Harness.syn_retransmissions ];
        [ "mean setup (ms)"; Metrics.Table.cell_ms h ];
        [ "p95 setup (ms)";
          Metrics.Table.cell_ms
            (Experiments.Harness.percentile_or_zero
               r.Experiments.Harness.setups 95.0) ];
        [ "cache hit ratio";
          Metrics.Table.cell_pct (Experiments.Harness.cache_hit_ratio r) ];
        [ "control messages";
          string_of_int
            (Mapsys.Cp_stats.message_total (Experiments.Harness.cp_stats r)) ] ];
    (match Core.Scenario.lifecycle r.Experiments.Harness.scenario with
    | Some _ ->
        let stats = Experiments.Harness.cp_stats r in
        let pull_resolved =
          match
            Core.Scenario.fallback_pull r.Experiments.Harness.scenario
          with
          | Some pull ->
              (Mapsys.Pull.stats pull).Mapsys.Cp_stats.resolutions
          | None -> 0
        in
        Metrics.Table.add_rows table
          [ [ "pce bypasses";
              string_of_int stats.Mapsys.Cp_stats.bypasses ];
            [ "pce recoveries";
              string_of_int stats.Mapsys.Cp_stats.recoveries ];
            [ "pull fallback"; string_of_int pull_resolved ] ]
    | None -> ());
    List.iter
      (fun (cause, n) ->
        Metrics.Table.add_row table
          [ "drop: " ^ cause; string_of_int n ])
      (Experiments.Harness.drop_causes r);
    Metrics.Table.print table
  in
  Cmd.v
    (Cmd.info "simulate" ~man:scenario_keys
       ~doc:"Run a workload described by a scenario file and print a summary.")
    Term.(const run $ file)

(* ------------------------------------------------------------------ *)
(* compare                                                             *)
(* ------------------------------------------------------------------ *)

let compare_cmd =
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE"
           ~doc:"Scenario description file; its 'cp' key is ignored.")
  in
  let run file =
    let spec = load_spec file in
    let table =
      Metrics.Table.create
        ~title:
          (Printf.sprintf "all control planes on %s" (Filename.basename file))
        ~columns:
          [ "cp"; "drops"; "failed"; "syn-retx"; "mean setup (ms)";
            "p95 setup (ms)"; "ctl msgs" ]
    in
    List.iter
      (fun (label, cp) ->
        let r =
          Experiments.Harness.run ~label
            { spec with
              Experiments.Harness.config =
                { spec.Experiments.Harness.config with Core.Scenario.cp } }
        in
        Metrics.Table.add_row table
          [ label;
            string_of_int (Experiments.Harness.drops r);
            string_of_int r.Experiments.Harness.failed;
            string_of_int r.Experiments.Harness.syn_retransmissions;
            Metrics.Table.cell_ms
              (Experiments.Harness.mean r.Experiments.Harness.setups);
            Metrics.Table.cell_ms
              (Experiments.Harness.percentile_or_zero
                 r.Experiments.Harness.setups 95.0);
            string_of_int
              (Mapsys.Cp_stats.message_total (Experiments.Harness.cp_stats r)) ])
      Experiments.Harness.standard_cps;
    Metrics.Table.print table
  in
  Cmd.v
    (Cmd.info "compare" ~man:scenario_keys
       ~doc:"Run one scenario under every control plane and tabulate.")
    Term.(const run $ file)

(* ------------------------------------------------------------------ *)
(* obs                                                                 *)
(* ------------------------------------------------------------------ *)

let obs_cmd =
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE"
           ~doc:"JSONL event stream written by $(b,run --trace-out).")
  in
  let run file =
    let events, errors = Obs.Export.read_jsonl file in
    if events = [] && errors = [] then begin
      Printf.printf "%s: empty event stream\n" file;
      exit 0
    end;
    let bump tbl key =
      Hashtbl.replace tbl key
        (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key))
    in
    let kinds = Hashtbl.create 16 in
    let actors = Hashtbl.create 64 in
    let flows = Hashtbl.create 256 in
    let drops = Hashtbl.create 16 in
    let t_min = ref infinity and t_max = ref neg_infinity in
    List.iter
      (fun e ->
        bump kinds (Obs.Event.kind_name e.Obs.Event.kind);
        bump actors e.Obs.Event.actor;
        Option.iter (fun id -> Hashtbl.replace flows id ()) e.Obs.Event.flow;
        (match e.Obs.Event.kind with
        | Obs.Event.Packet_drop { cause } -> bump drops cause
        | _ -> ());
        t_min := Float.min !t_min e.Obs.Event.time;
        t_max := Float.max !t_max e.Obs.Event.time)
      events;
    let sorted tbl =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
      |> List.sort (fun (_, a) (_, b) -> Int.compare b a)
    in
    let table =
      Metrics.Table.create
        ~title:(Printf.sprintf "event stream: %s" (Filename.basename file))
        ~columns:[ "metric"; "value" ]
    in
    Metrics.Table.add_rows table
      [ [ "events"; string_of_int (List.length events) ];
        [ "parse errors"; string_of_int (List.length errors) ];
        [ "time span (s)";
          if events = [] then "-"
          else Printf.sprintf "%.6f .. %.6f" !t_min !t_max ];
        [ "actors"; string_of_int (Hashtbl.length actors) ];
        [ "distinct flows"; string_of_int (Hashtbl.length flows) ] ];
    List.iter
      (fun (kind, n) ->
        Metrics.Table.add_row table [ "kind: " ^ kind; string_of_int n ])
      (sorted kinds);
    Metrics.Table.print table;
    (* Per-cause drop breakdown: the JSONL cause strings are the typed
       {!Netsim.Telemetry.drop_cause} labels, so streams from older
       builds that predate the enum are flagged rather than dropped. *)
    let total_drops = Hashtbl.fold (fun _ n acc -> acc + n) drops 0 in
    if total_drops > 0 then begin
      let drop_table =
        Metrics.Table.create ~title:"drop attribution"
          ~columns:[ "cause"; "count"; "share"; "typed" ]
      in
      List.iter
        (fun (cause, n) ->
          Metrics.Table.add_row drop_table
            [ cause; string_of_int n;
              Metrics.Table.cell_pct
                (float_of_int n /. float_of_int total_drops);
              (match Netsim.Telemetry.drop_cause_of_label cause with
              | Some _ -> "yes"
              | None -> "NO (unknown label)") ])
        (sorted drops);
      Metrics.Table.print drop_table
    end;
    List.iter
      (fun (line, message) ->
        Printf.eprintf "%s:%d: unparseable event: %s\n" file line message)
      errors;
    if errors <> [] then exit 1
  in
  Cmd.v
    (Cmd.info "obs"
       ~doc:"Summarise an exported JSONL event stream (counts by kind, \
             actors, flows, drops, time span).")
    Term.(const run $ file)

(* ------------------------------------------------------------------ *)
(* telemetry                                                           *)
(* ------------------------------------------------------------------ *)

let telemetry_cmd =
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE"
           ~doc:"Scenario description file (see lib/core/scenario_file.mli).")
  in
  let format =
    Arg.(value & opt (enum [ ("table", `Table); ("json", `Json);
                             ("csv", `Csv) ]) `Table
         & info [ "format" ] ~docv:"FMT"
             ~doc:"Output format: $(b,table) (rendered report), $(b,json) \
                   (full snapshot), or $(b,csv) (tables plus windowed \
                   series).")
  in
  let window =
    Arg.(value & opt float 1.0 & info [ "window" ] ~docv:"SECONDS"
           ~doc:"Sliding-window slot length in simulated seconds.")
  in
  let slots =
    Arg.(value & opt int 60 & info [ "slots" ] ~docv:"N"
           ~doc:"Ring size: the window covers N slots.")
  in
  let topk =
    Arg.(value & opt int 32 & info [ "topk" ] ~docv:"K"
           ~doc:"Space-Saving sketch capacity for EID/flow heavy hitters.")
  in
  let chrome =
    Arg.(value & opt (some string) None & info [ "chrome" ] ~docv:"FILE"
           ~doc:"Also write Chrome-trace counter events (provider load per \
                 window) to FILE; open in Perfetto.")
  in
  let series =
    Arg.(value & flag & info [ "series" ]
           ~doc:"Include the retained per-provider windowed series (json \
                 embeds it; table prints a per-window listing).")
  in
  let run file format window slots topk chrome series =
    if window <= 0.0 || slots < 1 || topk < 1 then begin
      prerr_endline "--window, --slots and --topk must be positive";
      exit 2
    end;
    let spec = load_spec file in
    let r =
      Experiments.Harness.run
        { spec with
          Experiments.Harness.config =
            { spec.Experiments.Harness.config with
              Core.Scenario.telemetry =
                Some { Netsim.Telemetry.window_s = window; slots; topk } } }
    in
    let scenario = r.Experiments.Harness.scenario in
    let dataplane = Core.Scenario.dataplane scenario in
    let plane = Option.get (Core.Scenario.telemetry scenario) in
    (match format with
    | `Json ->
        print_endline (Obs.Json.to_string
                         (Obs.Telemetry.json_snapshot ~series plane))
    | `Csv ->
        List.iter
          (fun table -> print_string (Metrics.Table.to_csv table))
          (Obs.Telemetry.tables plane);
        if series then print_string (Obs.Telemetry.series_csv plane)
    | `Table ->
        List.iter Metrics.Table.print (Obs.Telemetry.tables plane);
        (* Occupancy gauges ride the same row producers the scenario
           registers in its metrics registry, so this report and the
           exporter/`obs` view cannot disagree. *)
        let gauges =
          Metrics.Table.create ~title:"map-cache / flow-table gauges"
            ~columns:[ "gauge"; "value" ]
        in
        List.iter
          (fun (prefix, rows) ->
            List.iter
              (fun (name, v) ->
                Metrics.Table.add_row gauges
                  [ prefix ^ "." ^ name; Metrics.Table.cell_float v ])
              rows)
          [ ("cache", Core.Scenario.cache_gauge_rows dataplane);
            ("flows", Core.Scenario.flow_gauge_rows dataplane) ];
        Metrics.Table.print gauges;
        if series then print_string (Obs.Telemetry.series_csv plane));
    (match chrome with
    | Some out ->
        Obs.Telemetry.write_chrome_trace ~file:out plane;
        Printf.eprintf "wrote %s\n" out
    | None -> ())
  in
  Cmd.v
    (Cmd.info "telemetry" ~man:scenario_keys
       ~doc:"Run a scenario-file workload with the telemetry plane enabled \
             and report per-provider/per-node traffic, TE balance (shares, \
             Jain index), drop attribution and heavy hitters.")
    Term.(const run $ file $ format $ window $ slots $ topk $ chrome $ series)

(* ------------------------------------------------------------------ *)
(* spans                                                               *)
(* ------------------------------------------------------------------ *)

(* Split a multi-run JSONL stream at its run_start markers.  Streams
   written before the markers existed fall into one unlabelled
   segment. *)
let segment_runs events =
  let rec go label current_rev acc = function
    | [] -> List.rev ((label, List.rev current_rev) :: acc)
    | e :: rest -> (
        match e.Obs.Event.kind with
        | Obs.Event.Run_start { label = next } ->
            go next [] ((label, List.rev current_rev) :: acc) rest
        | _ -> go label (e :: current_rev) acc rest)
  in
  match go "(unlabelled)" [] [] events with
  | ("(unlabelled)", []) :: (_ :: _ as rest) -> rest
  | segments -> segments

let spans_cmd =
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE"
           ~doc:"JSONL event stream written by $(b,run --trace-out).")
  in
  let format =
    Arg.(value & opt (enum [ ("table", `Table); ("json", `Json); ("csv", `Csv) ])
           `Table
         & info [ "format" ] ~docv:"FORMAT"
             ~doc:"Output format: $(b,table), $(b,json) or $(b,csv).")
  in
  let chrome =
    Arg.(value & opt (some string) None & info [ "chrome" ] ~docv:"FILE"
           ~doc:"Also write the span trees as a Chrome trace_event file \
                 (open in Perfetto or chrome://tracing).")
  in
  let run file format chrome =
    let events, errors = Obs.Export.read_jsonl file in
    if events = [] && errors = [] then begin
      Printf.printf "%s: empty event stream\n" file;
      exit 0
    end;
    let segments = segment_runs events in
    let segment_end evs =
      List.fold_left (fun acc e -> Float.max acc e.Obs.Event.time) 0.0 evs
    in
    let reports =
      List.map
        (fun (label, evs) ->
          let lat = Obs.Latency.create () in
          List.iter (Obs.Latency.feed lat) evs;
          Obs.Latency.close lat ~now:(segment_end evs);
          (label, Obs.Latency.summary lat))
        segments
    in
    (match chrome with
    | None -> ()
    | Some out ->
        let trees =
          List.map
            (fun (label, evs) ->
              let b = Obs.Span.create_builder () in
              List.iter (Obs.Span.feed b) evs;
              Obs.Span.finish b ~now:(segment_end evs);
              (label, Obs.Span.roots b))
            segments
        in
        Obs.Span.write_chrome_trace ~file:out trees);
    (match format with
    | `Json ->
        let json =
          Obs.Json.Obj
            [ ("file", Obs.Json.String file);
              ("parse_errors", Obs.Json.Int (List.length errors));
              ( "runs",
                Obs.Json.List
                  (List.map
                     (fun (label, summary) ->
                       Obs.Json.Obj
                         (("run", Obs.Json.String label)
                         :: List.map
                              (fun (k, v) -> (k, Obs.Json.Float v))
                              summary))
                     reports) ) ]
        in
        print_endline (Obs.Json.to_string json)
    | `Table | `Csv ->
        let table =
          Metrics.Table.create
            ~title:
              (Printf.sprintf "latency decomposition: %s"
                 (Filename.basename file))
            ~columns:("metric" :: List.map fst reports)
        in
        let metric_names =
          match reports with (_, s) :: _ -> List.map fst s | [] -> []
        in
        List.iter
          (fun name ->
            Metrics.Table.add_row table
              (name
              :: List.map
                   (fun (_, summary) ->
                     let v = List.assoc name summary in
                     if Float.is_integer v && Float.abs v < 1e9 then
                       Printf.sprintf "%.0f" v
                     else Printf.sprintf "%.6f" v)
                   reports))
          metric_names;
        (match format with
        | `Csv -> print_string (Metrics.Table.to_csv table)
        | _ -> Metrics.Table.print table));
    (* stderr: stdout must stay machine-readable under --format json/csv *)
    Option.iter (Printf.eprintf "(chrome trace written to %s)\n") chrome;
    List.iter
      (fun (line, message) ->
        Printf.eprintf "%s:%d: unparseable event: %s\n" file line message)
      errors;
    if errors <> [] then exit 1
  in
  Cmd.v
    (Cmd.info "spans"
       ~doc:"Stitch an exported event stream into causal span trees and \
             report each run's setup-latency decomposition (T_DNS, \
             T_map_resol, first-packet wait, handshake) in the paper's \
             terms.")
    Term.(const run $ file $ format $ chrome)

(* ------------------------------------------------------------------ *)
(* connect                                                             *)
(* ------------------------------------------------------------------ *)

let connect_cmd =
  let verbose =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print the event trace.")
  in
  let settings =
    Arg.(value & opt_all string [] & info [ "s"; "set" ] ~docv:"'KEY VALUE'"
           ~doc:"One scenario-file line (see $(b,SCENARIO KEYS)), applied \
                 over the Figure-1 defaults; repeatable, applied in \
                 command-line order.  An error names the offending \
                 $(b,--set) as line N, counting from 1.")
  in
  let run verbose settings =
    let open Core in
    let config =
      match Scenario_file.parse ~figure1:true (String.concat "\n" settings) with
      | Ok t -> t.Scenario_file.config
      | Error message ->
          Printf.eprintf "connect --set: %s\n" message;
          exit 1
    in
    let scenario = Scenario.build config in
    let walkthrough =
      if verbose then Some (Scenario.walkthrough scenario) else None
    in
    let internet = Scenario.internet scenario in
    let flow =
      Nettypes.Flow.create
        ~src:(Topology.Domain.host_eid internet.Topology.Builder.domains.(0) 0)
        ~dst:(Topology.Domain.host_eid internet.Topology.Builder.domains.(1) 0)
        ~src_port:50000 ()
    in
    let c = Scenario.open_connection scenario ~flow ~data_packets:3 () in
    Scenario.run scenario;
    Option.iter (Format.printf "%a@." Netsim.Trace.pp) walkthrough;
    let counters = Lispdp.Dataplane.counters (Scenario.dataplane scenario) in
    Format.printf "control plane : %s@." (Scenario.cp_label config.Scenario.cp);
    Format.printf "T_DNS         : %.1f ms@."
      (Option.value ~default:nan c.Scenario.dns_time *. 1e3);
    Format.printf "handshake     : %.1f ms@."
      (Option.value ~default:nan
         (Option.bind c.Scenario.tcp Workload.Tcp.handshake_time)
      *. 1e3);
    Format.printf "total setup   : %.1f ms@."
      (Option.value ~default:nan (Scenario.total_setup_time c) *. 1e3);
    Format.printf "drops         : %d@." counters.Lispdp.Dataplane.dropped;
    List.iter
      (fun (cause, n) -> Format.printf "  %-28s %d@." cause n)
      (Lispdp.Dataplane.drop_causes (Scenario.dataplane scenario));
    (match Scenario.faults scenario with
    | None -> ()
    | Some faults ->
        let stats = Scenario.cp_stats scenario in
        Format.printf "cp losses     : %d@." (Netsim.Faults.losses faults);
        Format.printf "cp retx       : %d@."
          stats.Mapsys.Cp_stats.retransmissions;
        Format.printf "cp timeouts   : %d@." stats.Mapsys.Cp_stats.timeouts);
    (match Scenario.lifecycle scenario with
    | None -> ()
    | Some _ ->
        let stats = Scenario.cp_stats scenario in
        Format.printf "pce bypasses  : %d@." stats.Mapsys.Cp_stats.bypasses;
        Format.printf "pce recoveries: %d@." stats.Mapsys.Cp_stats.recoveries;
        match Scenario.fallback_pull scenario with
        | None -> ()
        | Some pull ->
            Format.printf "pull fallback : %d resolution(s)@."
              (Mapsys.Pull.stats pull).Mapsys.Cp_stats.resolutions);
    (match Scenario.adversary scenario with
    | None -> ()
    | Some adv ->
        let stats = Scenario.cp_stats scenario in
        let dns_counters = Dnssim.System.counters (Scenario.dns scenario) in
        Format.printf "forged replies: %d (%d accepted)@."
          (Netsim.Adversary.forged_replies adv)
          stats.Mapsys.Cp_stats.spoofed_accepted;
        Format.printf "replayed      : %d (%d accepted)@."
          (Netsim.Adversary.replayed_replies adv)
          stats.Mapsys.Cp_stats.replayed_accepted;
        Format.printf "dns poisoned  : %d (%d accepted)@."
          (Netsim.Adversary.poisoned_answers adv)
          dns_counters.Dnssim.System.poisoned_accepted)
  in
  Cmd.v
    (Cmd.info "connect" ~man:scenario_keys
       ~doc:"Run one measured DNS-then-TCP connection on the Figure-1 \
             scenario.  The workload keys do not apply to it.")
    Term.(const run $ verbose $ settings)

(* ------------------------------------------------------------------ *)
(* prof                                                                *)
(* ------------------------------------------------------------------ *)

let prof_cmd =
  let ids =
    Arg.(non_empty & pos_all string [] & info [] ~docv:"EXPERIMENT"
           ~doc:"Experiment ids (see $(b,list)).")
  in
  let chrome =
    Arg.(value & opt (some string) None & info [ "chrome" ] ~docv:"FILE"
           ~doc:"Also write the self-profile as a Chrome trace_event file \
                 (open in Perfetto or chrome://tracing), one process per \
                 experiment.")
  in
  let run ids chrome =
    let entries =
      List.map
        (fun id ->
          match Experiments.Exp_index.find id with
          | Some e -> e
          | None ->
              Printf.eprintf "unknown experiment id: %s (try 'list')\n" id;
              exit 1)
        ids
    in
    if chrome <> None then Obs.Prof.set_record_intervals true;
    let ph_exp = Obs.Prof.phase "experiment" in
    let labelled =
      List.map
        (fun e ->
          Printf.printf ">>> [%s] %s\n%!" e.Experiments.Exp_index.exp_id
            e.Experiments.Exp_index.exp_title;
          Obs.Prof.start ();
          let gc0 = Obs.Prof.gc_snapshot () in
          (match
             Obs.Prof.with_phase ph_exp e.Experiments.Exp_index.print
           with
          | () -> ()
          | exception ex ->
              Obs.Prof.stop ();
              raise ex);
          Obs.Prof.stop ();
          let report = Obs.Prof.report () in
          let gc = Obs.Prof.gc_since gc0 in
          let ivs = Obs.Prof.intervals () in
          print_newline ();
          Format.printf "%a@." Obs.Prof.pp_report report;
          Printf.printf "  coverage: %.2f%% of %.3fs wall\n"
            (100.0 *. Obs.Prof.coverage report)
            report.Obs.Prof.r_wall_s;
          List.iter
            (fun (name, v) ->
              if Float.is_integer v then Printf.printf "  gc.%s: %.0f\n" name v
              else Printf.printf "  gc.%s: %.1f\n" name v)
            gc;
          print_newline ();
          ( Printf.sprintf "%s %s" e.Experiments.Exp_index.exp_id
              e.Experiments.Exp_index.exp_title,
            ivs ))
        entries
    in
    match chrome with
    | None -> ()
    | Some file ->
        Obs.Prof.write_chrome_trace ~file labelled;
        Printf.printf "(chrome trace written to %s)\n" file
  in
  Cmd.v
    (Cmd.info "prof"
       ~doc:"Run experiments in-process with the self-profiler enabled and \
             print the per-phase breakdown (engine dispatch, DNS, map \
             resolution, PCE push, dataplane, trace emission) plus GC \
             telemetry.")
    Term.(const run $ ids $ chrome)

let () =
  let info =
    Cmd.info "repro_cli" ~version:"1.0.0"
      ~doc:
        "Reproduction of 'Advantages of a PCE-based Control Plane for LISP' \
         (CoNEXT 2008)."
  in
  exit (Cmd.eval (Cmd.group info
       [ list_cmd; run_cmd; trace_cmd; topology_cmd; connect_cmd; simulate_cmd;
         compare_cmd; obs_cmd; telemetry_cmd; spans_cmd; prof_cmd ]))
