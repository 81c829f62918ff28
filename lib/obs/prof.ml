include Netsim.Prof

(* ------------------------------------------------------------------ *)
(* GC telemetry                                                        *)
(* ------------------------------------------------------------------ *)

(* Counter-like fields are reported as deltas across a run; size
   fields as absolute values.  Order is the report order. *)
let gc_counter_fields =
  [ "minor_collections"; "major_collections"; "compactions";
    "minor_words"; "promoted_words"; "major_words" ]

let gc_snapshot () =
  let s = Gc.quick_stat () in
  [
    ("minor_collections", float_of_int s.Gc.minor_collections);
    ("major_collections", float_of_int s.Gc.major_collections);
    ("compactions", float_of_int s.Gc.compactions);
    ("minor_words", s.Gc.minor_words);
    ("promoted_words", s.Gc.promoted_words);
    ("major_words", s.Gc.major_words);
    ("heap_words", float_of_int s.Gc.heap_words);
    ("top_heap_words", float_of_int s.Gc.top_heap_words);
  ]

let gc_since before =
  let now = gc_snapshot () in
  List.map
    (fun (name, v) ->
      if List.mem name gc_counter_fields then
        let v0 =
          match List.assoc_opt name before with Some x -> x | None -> 0.0
        in
        (name, v -. v0)
      else (name, v))
    now

let register_gc_gauges registry =
  List.iter
    (fun (name, _) ->
      Registry.register_gauge registry ("gc." ^ name) (fun () ->
          List.assoc name (gc_snapshot ())))
    (gc_snapshot ())

(* ------------------------------------------------------------------ *)
(* BENCH.json (lisp-pce-bench/4) serialisation                         *)
(* ------------------------------------------------------------------ *)

let json_of_report ?(gc = []) r =
  let share self = if r.r_wall_s > 0.0 then self /. r.r_wall_s else 0.0 in
  Json.Obj
    [
      ("wall_s", Json.Float r.r_wall_s);
      ("coverage", Json.Float (coverage r));
      ("unattributed_s", Json.Float r.r_unattributed_s);
      ("intervals_dropped", Json.Int r.r_intervals_dropped);
      ( "phases",
        Json.List
          (List.map
             (fun p ->
               Json.Obj
                 [
                   ("name", Json.String p.ps_name);
                   ("self_s", Json.Float p.ps_self_s);
                   ("total_s", Json.Float p.ps_total_s);
                   ("calls", Json.Int p.ps_calls);
                   ("share", Json.Float (share p.ps_self_s));
                 ])
             r.r_phases) );
      ("gc", Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) gc));
    ]

let report_of_json json =
  let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e in
  let field name conv =
    match Option.bind (Json.member name json) conv with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "prof block: bad or missing %S" name)
  in
  let* wall = field "wall_s" Json.to_float_opt in
  let* unattributed = field "unattributed_s" Json.to_float_opt in
  let* dropped = field "intervals_dropped" Json.to_int_opt in
  let* phase_list =
    field "phases" (function Json.List l -> Some l | _ -> None)
  in
  let* phases =
    List.fold_left
      (fun acc p ->
        let* acc = acc in
        let get name conv =
          match Option.bind (Json.member name p) conv with
          | Some v -> Ok v
          | None -> Error (Printf.sprintf "phase entry: bad %S" name)
        in
        let* name = get "name" Json.to_string_opt in
        let* self = get "self_s" Json.to_float_opt in
        let* total = get "total_s" Json.to_float_opt in
        let* calls = get "calls" Json.to_int_opt in
        Ok
          ({ ps_name = name; ps_self_s = self; ps_total_s = total;
             ps_calls = calls }
          :: acc))
      (Ok []) phase_list
  in
  let gc =
    match Json.member "gc" json with
    | Some (Json.Obj fields) ->
        List.filter_map
          (fun (k, v) ->
            Option.map (fun f -> (k, f)) (Json.to_float_opt v))
          fields
    | _ -> []
  in
  Ok
    ( {
        r_wall_s = wall;
        r_phases = List.rev phases;
        r_unattributed_s = unattributed;
        r_intervals_dropped = dropped;
      },
      gc )

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let breakdown_table r =
  let table =
    Metrics.Table.create ~title:"simulator self-profile"
      ~columns:[ "phase"; "self ms"; "share"; "total ms"; "calls" ]
  in
  let by_self =
    List.sort (fun a b -> compare b.ps_self_s a.ps_self_s) r.r_phases
  in
  List.iter
    (fun p ->
      Metrics.Table.add_row table
        [
          p.ps_name;
          Metrics.Table.cell_ms p.ps_self_s;
          Metrics.Table.cell_pct
            (if r.r_wall_s > 0.0 then p.ps_self_s /. r.r_wall_s else 0.0);
          Metrics.Table.cell_ms p.ps_total_s;
          Metrics.Table.cell_int p.ps_calls;
        ])
    by_self;
  Metrics.Table.add_row table
    [
      "(unattributed)";
      Metrics.Table.cell_ms r.r_unattributed_s;
      Metrics.Table.cell_pct
        (if r.r_wall_s > 0.0 then r.r_unattributed_s /. r.r_wall_s else 0.0);
      "-";
      "-";
    ];
  Metrics.Table.add_row table
    [ "wall"; Metrics.Table.cell_ms r.r_wall_s; "100.0"; "-"; "-" ];
  table

let pp_report ppf r =
  Metrics.Table.pp ppf (breakdown_table r);
  if r.r_intervals_dropped > 0 then
    Format.fprintf ppf "(%d profile intervals dropped)@."
      r.r_intervals_dropped

(* ------------------------------------------------------------------ *)
(* Chrome-trace export                                                 *)
(* ------------------------------------------------------------------ *)

let chrome_events ?(pid = 1) ?process_name ivs =
  let metadata =
    match process_name with
    | None -> []
    | Some name ->
        [
          Json.Obj
            [
              ("name", Json.String "process_name");
              ("ph", Json.String "M");
              ("pid", Json.Int pid);
              ("tid", Json.Int 0);
              ("args", Json.Obj [ ("name", Json.String name) ]);
            ];
        ]
  in
  metadata
  @ List.map
      (fun iv ->
        Json.Obj
          [
            ("name", Json.String iv.iv_name);
            ("cat", Json.String "prof");
            ("ph", Json.String "X");
            ("ts", Json.Float (iv.iv_start_s *. 1e6));
            ("dur", Json.Float (iv.iv_dur_s *. 1e6));
            ("pid", Json.Int pid);
            ("tid", Json.Int 0);
          ])
      ivs

let write_chrome_trace ~file labelled =
  let events =
    List.concat
      (List.mapi
         (fun i (label, ivs) ->
           chrome_events ~pid:(i + 1) ~process_name:label ivs)
         labelled)
  in
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc
        (Json.to_string
           (Json.Obj
              [
                ("traceEvents", Json.List events);
                ("displayTimeUnit", Json.String "ms");
              ]));
      output_char oc '\n')
