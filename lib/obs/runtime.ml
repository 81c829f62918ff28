(* Process-wide export configuration.

   Experiments build their scenarios internally, so the CLI cannot hand
   an export target to each one.  Instead it installs a runtime before
   running; every scenario built while it is installed attaches its hub
   and registry here and gets the requested sinks (JSONL writer,
   metrics sampler).  [finalize] flushes everything and uninstalls. *)

type t = {
  trace_channel : out_channel option;
  metrics_file : string option;
  interval : float;
  latency : bool;
  mutable runs_rev : Export.run list;
  mutable latency_rev : (string * Latency.t) list;
  mutable run_seq : int;
}

let current : t option ref = ref None

let install ?trace_out ?metrics_out ?(metrics_interval = 1.0)
    ?(latency = false) () =
  if !current <> None then invalid_arg "Obs.Runtime.install: already installed";
  if metrics_interval <= 0.0 then
    invalid_arg "Obs.Runtime.install: metrics interval must be positive";
  let t =
    { trace_channel = Option.map open_out trace_out;
      metrics_file = metrics_out; interval = metrics_interval; latency;
      runs_rev = []; latency_rev = []; run_seq = 0 }
  in
  current := Some t;
  t

let active () = !current <> None

let attach ?label ~hub ~registry () =
  match !current with
  | None -> ()
  | Some t ->
      Hub.set_enabled hub true;
      t.run_seq <- t.run_seq + 1;
      let run_label =
        match label with
        | Some l -> l
        | None -> Printf.sprintf "run-%d" t.run_seq
      in
      (match t.trace_channel with
      | Some oc ->
          Hub.add_sink hub (Export.jsonl_sink oc);
          (* Stream marker so a multi-run JSONL file can be split back
             into per-run segments by [repro_cli spans]. *)
          Hub.emit hub ~actor:"runtime" (Event.Run_start { label = run_label })
      | None -> ());
      if t.latency then begin
        let analyzer = Latency.create () in
        Hub.add_sink hub (fun e -> Latency.feed analyzer e);
        t.latency_rev <- (run_label, analyzer) :: t.latency_rev
      end;
      let sampler =
        match t.metrics_file with
        | None -> None
        | Some _ ->
            let sampler =
              Sampler.create ~interval:t.interval ~registry ()
            in
            Hub.add_sink hub (fun e -> Sampler.tick sampler ~now:e.Event.time);
            Some sampler
      in
      t.runs_rev <- { Export.run_label; registry; sampler } :: t.runs_rev

let finish_run ~now =
  match !current with
  | None -> ()
  | Some t ->
      (match t.runs_rev with
      | { Export.sampler = Some sampler; _ } :: _ ->
          Sampler.finalise sampler ~now
      | _ -> ());
      (match t.latency_rev with
      | (_, analyzer) :: _ -> Latency.close analyzer ~now
      | [] -> ())

let latency_reports () =
  match !current with
  | None -> []
  | Some t ->
      List.rev_map
        (fun (label, analyzer) -> (label, Latency.summary analyzer))
        t.latency_rev

let finalize () =
  match !current with
  | None -> ()
  | Some t ->
      current := None;
      (match t.trace_channel with
      | Some oc ->
          flush oc;
          close_out oc
      | None -> ());
      (match t.metrics_file with
      | Some file -> Export.write_metrics ~file (List.rev t.runs_rev)
      | None -> ())
