(* Tests for the `bench --check` regression gate.  For each row block a
   clean baseline/current pair must pass, and every injected regression
   (a flipped gate, a float moved past the epsilon, a changed int, a
   dropped or renamed row, a removed block) must give a strict failure
   attributed to that block.  The CLI wrapper must refuse a baseline
   that is not a BENCH record, and gate experiments the baseline lacks. *)

module Check = Experiments.Check
module Json = Obs.Json

let f x = Json.Float x

let bench_row run ok fields =
  Experiments.Bench_row.to_json { Experiments.Bench_row.run; ok; fields }

(* The four row blocks, shaped as the experiments write them: the
   experiment id, the block name and its rows. *)
let blocks =
  [ ( "t1", "latency",
      [ Json.Obj
          [ ("run", Json.String "pce"); ("flows", f 1.0);
            ("t_map_resol_mean", f 0.0); ("t_setup_mean", f 0.3078) ];
        Json.Obj
          [ ("run", Json.String "pull-drop"); ("flows", f 1.0);
            ("t_map_resol_mean", f 0.1182); ("t_setup_mean", f 1.4261) ] ] );
    ( "m1", "cache",
      [ bench_row "lru/c=4096" true
          [ ("policy", Json.String "lru"); ("n", Json.Int 1_000_000);
            ("alpha", f 0.9); ("capacity", Json.Int 4096);
            ("refs", Json.Int 2_000_000); ("measured_miss", f 0.581735);
            ("predicted_miss", f 0.579102); ("rel_err", f 0.00454);
            ("tolerance", f 0.1) ];
        bench_row "lfu/a=0.6" true
          [ ("policy", Json.String "lfu"); ("n", Json.Int 1_000_000);
            ("alpha", f 0.6); ("capacity", Json.Int 65536);
            ("refs", Json.Int 2_000_000); ("measured_miss", f 0.901177) ] ] );
    ( "te1", "telemetry",
      [ bench_row "pce/s21" true
          [ ("cp", Json.String "pce"); ("providers", Json.Int 4);
            ("in_share", Json.List [ f 0.30; f 0.23; f 0.23; f 0.24 ]);
            ("jain_in", f 0.986); ("jain_out", f 0.805);
            ("ratio_in", f 1.322); ("drops", Json.Int 0);
            ("threshold", f 0.8) ];
        bench_row "symmetric/s21" true
          [ ("cp", Json.String "symmetric"); ("providers", Json.Int 4);
            ("in_share", Json.List [ f 0.53; f 0.15; f 0.15; f 0.17 ]);
            ("jain_in", f 0.698); ("jain_out", f 0.821);
            ("drops", Json.Int 3); ("threshold", f 0.0) ] ] );
    ( "sec1", "security",
      [ bench_row "pull/s41" true
          [ ("cp", Json.String "pull-queue"); ("attempted", Json.Int 210);
            ("accepted", Json.Int 210); ("success", f 1.0);
            ("gleaned", Json.Int 12); ("glean_rejected", Json.Int 0);
            ("pollution", f 0.25); ("setup_mean", f 0.35129);
            ("gate", Json.String "success >= 0.90") ];
        bench_row "pull-clean/s41" true
          [ ("cp", Json.String "pull-queue"); ("attempted", Json.Int 0);
            ("accepted", Json.Int 0); ("success", f 0.0);
            ("gleaned", Json.Int 9); ("glean_rejected", Json.Int 0);
            ("pollution", f 0.2); ("setup_mean", f 0.33871);
            ("gate", Json.String "-") ] ] ) ]

let experiment ?(ok = true) id block_fields =
  Json.Obj
    ([ ("id", Json.String id); ("ok", Json.Bool ok); ("events", Json.Int 1000) ]
    @ block_fields)

let record experiments =
  Json.Obj
    [ ("schema", Json.String "lisp-pce-bench/6");
      ("experiments", Json.List experiments) ]

let one_block id block rows =
  record [ experiment id [ (block, Json.List rows) ] ]

let strict_failures ~base ~cur =
  List.filter
    (fun f -> (not f.Check.f_ok) && f.Check.f_class = Check.Strict)
    (Check.findings ~tolerance:Check.default_tolerance ~base ~cur)

(* Replace the first field, in row order then field order, that [edit]
   rewrites. *)
let edit_first edit rows =
  let edited = ref false in
  let field (k, v) =
    if !edited then (k, v)
    else
      match edit k v with
      | Some v' ->
          edited := true;
          (k, v')
      | None -> (k, v)
  in
  List.map
    (function Json.Obj kvs -> Json.Obj (List.map field kvs) | row -> row)
    rows

let moved x = x +. (1e-6 *. Float.max 1.0 (Float.abs x))

let injections =
  [ ( "flip ok",
      edit_first (fun k v ->
          match (k, v) with
          | "ok", Json.Bool b -> Some (Json.Bool (not b))
          | _ -> None) );
    ( "move a float",
      edit_first (fun _ v ->
          match v with Json.Float x -> Some (f (moved x)) | _ -> None) );
    ( "move a list element",
      edit_first (fun _ v ->
          match v with
          | Json.List (Json.Float x :: rest) ->
              Some (Json.List (f (moved x) :: rest))
          | _ -> None) );
    ( "change an int",
      edit_first (fun _ v ->
          match v with Json.Int i -> Some (Json.Int (i + 1)) | _ -> None) );
    ("drop a row", fun rows -> List.rev (List.tl (List.rev rows)));
    ( "rename a row",
      edit_first (fun k v ->
          match (k, v) with
          | "run", Json.String s -> Some (Json.String (s ^ "-renamed"))
          | _ -> None) ) ]

let test_clean_pair (id, block, rows) () =
  let base = one_block id block rows in
  Alcotest.(check int) "identical records pass" 0
    (List.length (strict_failures ~base ~cur:base));
  (* Fields only the current row has are ignored. *)
  let extra =
    List.map
      (function
        | Json.Obj kvs -> Json.Obj (kvs @ [ ("extra", Json.Int 7) ])
        | row -> row)
      rows
  in
  Alcotest.(check int) "extra current fields pass" 0
    (List.length (strict_failures ~base ~cur:(one_block id block extra)))

(* Latency rows carry no gate and no ints, and only telemetry rows hold
   a float list: there those injections must find nothing to edit. *)
let inapplicable = function
  | "latency" -> [ "flip ok"; "move a list element"; "change an int" ]
  | "telemetry" -> []
  | _ -> [ "move a list element" ]

let test_regressions (id, block, rows) () =
  let base = one_block id block rows in
  let fails_strictly cur =
    List.exists
      (fun fd -> String.starts_with ~prefix:block fd.Check.f_field)
      (strict_failures ~base ~cur)
  in
  List.iter
    (fun (name, inject) ->
      let injected = inject rows in
      if List.mem name (inapplicable block) then
        Alcotest.(check bool) (name ^ " finds nothing to edit") true
          (injected = rows)
      else
        Alcotest.(check bool) (name ^ " fails strictly") true
          (fails_strictly (one_block id block injected)))
    injections;
  Alcotest.(check bool) "removed block fails strictly" true
    (fails_strictly (record [ experiment id [] ]))

(* ------------------------------------------------------------------ *)
(* The CLI wrapper                                                     *)
(* ------------------------------------------------------------------ *)

let write_temp doc =
  let path = Filename.temp_file "bench-check" ".json" in
  let oc = open_out_bin path in
  output_string oc (Json.to_string doc);
  close_out oc;
  path

let check_cli ~cur ~base =
  let cur = write_temp cur and base = write_temp base in
  Fun.protect
    ~finally:(fun () -> List.iter Sys.remove [ cur; base ])
    (fun () -> Check.main [ "--bench-json"; cur; "--baseline"; base ])

let clean_experiments =
  List.map
    (fun (id, block, rows) -> experiment id [ (block, Json.List rows) ])
    blocks

let clean = record clean_experiments

(* A file that is not a BENCH record (the repo benchmark's manifest), or
   a BENCH record with no experiments, gives nothing to compare
   against: a usage error, not "all fields within bounds". *)
let test_foreign_baseline () =
  let manifest =
    Json.Obj
      [ ( "command",
          Json.List [ Json.String "bash"; Json.String "benchmark/run.sh" ] );
        ("workloads", Json.List []) ]
  in
  Alcotest.(check int) "untagged baseline" 2
    (check_cli ~cur:clean ~base:manifest);
  Alcotest.(check int) "baseline without experiments" 2
    (check_cli ~cur:clean ~base:(record []));
  Alcotest.(check int) "untagged current record" 2
    (check_cli ~cur:manifest ~base:clean);
  Alcotest.(check int) "clean pair" 0 (check_cli ~cur:clean ~base:clean)

(* An experiment the baseline does not know is still gated: its own ok
   flag and its rows' ok flags are acceptance bars, not ratchets. *)
let test_new_experiment_gated () =
  let cur_with extra = record (clean_experiments @ [ extra ]) in
  Alcotest.(check int) "passing new experiment" 0
    (check_cli ~cur:(cur_with (experiment "new1" [])) ~base:clean);
  Alcotest.(check int) "failing new experiment" 1
    (check_cli ~cur:(cur_with (experiment ~ok:false "new1" [])) ~base:clean);
  Alcotest.(check int) "new experiment with a failing row" 1
    (check_cli
       ~cur:
         (cur_with
            (experiment "new2"
               [ ("security", Json.List [ bench_row "flood/s43" false [] ]) ]))
       ~base:clean)

(* A profile block as the runner writes it.  Records written while the
   profiler still had named counters carry a [counters] list, as the
   committed baseline's blocks do; the runner writes none now, and the
   gate must read both. *)
let prof_block ~counters =
  Json.Obj
    ([ ("wall_s", f 0.5); ("coverage", f 0.98); ("unattributed_s", f 0.01);
       ("intervals_dropped", Json.Int 0);
       ( "phases",
         Json.List
           [ Json.Obj
               [ ("name", Json.String "engine"); ("self_s", f 0.49);
                 ("total_s", f 0.49); ("calls", Json.Int 36);
                 ("share", f 0.98) ] ] ) ]
    @ (if counters then [ ("counters", Json.List []) ] else [])
    @ [ ("gc", Json.Obj [ ("minor_words", f 1024.0) ]) ])

let test_prof_without_counters () =
  let with_prof counters =
    record [ experiment "f1" [ ("prof", prof_block ~counters) ] ]
  in
  let base = with_prof true and cur = with_prof false in
  Alcotest.(check bool) "current prof block read" true
    (List.exists
       (fun fd -> fd.Check.f_field = "prof.coverage" && fd.Check.f_ok)
       (Check.findings ~tolerance:Check.default_tolerance ~base ~cur));
  Alcotest.(check int) "no strict failure" 0
    (List.length (strict_failures ~base ~cur));
  Alcotest.(check int) "--check exits 0" 0 (check_cli ~cur ~base)

let () =
  Alcotest.run "check"
    [ ( "blocks",
        List.concat_map
          (fun ((_, block, _) as b) ->
            [ Alcotest.test_case (block ^ " clean pair passes") `Quick
                (test_clean_pair b);
              Alcotest.test_case (block ^ " regressions fail") `Quick
                (test_regressions b) ])
          blocks );
      ( "cli",
        [ Alcotest.test_case "foreign baseline rejected" `Quick
            test_foreign_baseline;
          Alcotest.test_case "new experiment gated" `Quick
            test_new_experiment_gated;
          Alcotest.test_case "prof block without counters" `Quick
            test_prof_without_counters ] ) ]
