let event_line event = Json.to_string (Event.to_json event)

let jsonl_sink oc event =
  output_string oc (event_line event);
  output_char oc '\n'

let parse_event line =
  match Json.of_string line with
  | Error message -> Error message
  | Ok json -> Event.of_json json

let read_jsonl file =
  let ic = open_in file in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let events = ref [] in
      let errors = ref [] in
      let lineno = ref 0 in
      (try
         while true do
           let line = input_line ic in
           incr lineno;
           if String.trim line <> "" then
             match parse_event line with
             | Ok event -> events := event :: !events
             | Error message ->
                 errors := (!lineno, message) :: !errors
         done
       with End_of_file -> ());
      (List.rev !events, List.rev !errors))

(* ------------------------------------------------------------------ *)
(* Metrics snapshots                                                   *)
(* ------------------------------------------------------------------ *)

let value_json = function
  | Registry.Gauge v -> Json.Float v
  | Registry.Histogram s ->
      Json.Obj
        [ ("count", Json.Int s.Registry.hist_count);
          ("sum", Json.Float s.Registry.hist_sum);
          ("min", Json.Float s.Registry.hist_min);
          ("max", Json.Float s.Registry.hist_max);
          ("mean", Json.Float s.Registry.hist_mean) ]

type run = { run_label : string; registry : Registry.t; sampler : Sampler.t option }

let run_json { run_label; registry; sampler } =
  let final =
    Json.Obj
      (List.map (fun (name, v) -> (name, value_json v)) (Registry.snapshot registry))
  in
  let series =
    match sampler with
    | None -> []
    | Some sampler ->
        [ ("interval", Json.Float (Sampler.interval sampler));
          ( "series",
            Json.List
              (List.map
                 (fun (row : Sampler.row) ->
                   Json.Obj
                     [ ("time", Json.Float row.Sampler.at);
                       ( "values",
                         Json.Obj
                           (List.map
                              (fun (name, v) -> (name, Json.Float v))
                              row.Sampler.values) ) ])
                 (Sampler.rows sampler)) ) ]
  in
  Json.Obj ([ ("label", Json.String run_label); ("final", final) ] @ series)

let metrics_json runs = Json.to_string (Json.Obj [ ("runs", Json.List (List.map run_json runs)) ])

(* CSV: long format, one (run, time, metric, value) per row; final
   snapshot rows carry time = "final". *)
let metrics_csv runs =
  let table =
    Metrics.Table.create ~title:"metrics"
      ~columns:[ "run"; "time"; "metric"; "value" ]
  in
  List.iter
    (fun { run_label; registry; sampler } ->
      (match sampler with
      | None -> ()
      | Some sampler ->
          List.iter
            (fun (row : Sampler.row) ->
              List.iter
                (fun (name, v) ->
                  Metrics.Table.add_row table
                    [ run_label; Printf.sprintf "%.6f" row.Sampler.at; name;
                      Printf.sprintf "%g" v ])
                row.Sampler.values)
            (Sampler.rows sampler));
      List.iter
        (fun (name, v) ->
          Metrics.Table.add_row table
            [ run_label; "final"; name;
              Printf.sprintf "%g" (Registry.scalar v) ])
        (Registry.snapshot registry))
    runs;
  Metrics.Table.to_csv table

let write_file file contents =
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc contents)

let write_metrics ~file runs =
  let contents =
    if Filename.check_suffix file ".csv" then metrics_csv runs
    else metrics_json runs
  in
  write_file file contents
