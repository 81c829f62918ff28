(* Tests for the scale-out experiment runner: forked workers must
   produce a byte-identical emitted stream whatever the worker count,
   outcomes must come back in task order with failures flagged, and the
   BENCH.json document must carry one record per experiment. *)

let task id body =
  { Experiments.Runner.task_id = id; task_title = "task " ^ id;
    task_run = body }

(* Workers print through both buffered stdout and Format.std_formatter
   (the Metrics.Table path), so the runner's capture must handle both. *)
let chatty id () =
  Printf.printf "report for %s\n" id;
  Format.printf "formatted line (%s)@." id

let run_to_string ~jobs tasks =
  let buf = Buffer.create 256 in
  let outcomes =
    Experiments.Runner.run ~jobs ~emit:(Buffer.add_string buf)
      ~log:(fun _ -> ()) tasks
  in
  (Buffer.contents buf, outcomes)

let ids = [ "a"; "b"; "c"; "d"; "e" ]
let tasks () = List.map (fun id -> task id (chatty id)) ids

let test_serial_parallel_identical () =
  let serial, _ = run_to_string ~jobs:1 (tasks ()) in
  let parallel, _ = run_to_string ~jobs:3 (tasks ()) in
  Alcotest.(check string) "byte-identical output" serial parallel

let test_output_in_task_order () =
  let out, outcomes = run_to_string ~jobs:2 (tasks ()) in
  Alcotest.(check (list string)) "outcomes in task order" ids
    (List.map (fun o -> o.Experiments.Runner.out_id) outcomes);
  let expected =
    String.concat ""
      (List.map
         (fun id ->
           Printf.sprintf ">>> [%s] task %s\nreport for %s\nformatted line (%s)\n\n"
             id id id id)
         ids)
  in
  Alcotest.(check string) "headers + captured output, task order" expected out

let test_failure_flagged () =
  let ts =
    [ task "fine" (chatty "fine"); task "boom" (fun () -> failwith "boom") ]
  in
  let _, outcomes = run_to_string ~jobs:2 ts in
  match outcomes with
  | [ a; b ] ->
      Alcotest.(check bool) "healthy task ok" true
        a.Experiments.Runner.out_summary.s_ok;
      Alcotest.(check bool) "failing task flagged" false
        b.Experiments.Runner.out_summary.s_ok
  | _ -> Alcotest.fail "expected two outcomes"

let test_jobs_validated () =
  Alcotest.check_raises "jobs must be positive"
    (Invalid_argument "Runner.run: jobs must be >= 1") (fun () ->
      ignore (Experiments.Runner.run ~jobs:0 []))

let test_bench_json_shape () =
  let _, outcomes = run_to_string ~jobs:1 (tasks ()) in
  match Experiments.Runner.bench_json ~jobs:1 outcomes with
  | Obs.Json.Obj fields ->
      Alcotest.(check bool) "schema tag" true
        (List.assoc "schema" fields = Obs.Json.String "lisp-pce-bench/6");
      Alcotest.(check bool) "jobs recorded" true
        (List.assoc "jobs" fields = Obs.Json.Int 1);
      (match List.assoc "experiments" fields with
      | Obs.Json.List l ->
          Alcotest.(check int) "one record per task" (List.length ids)
            (List.length l);
          List.iter2
            (fun id record ->
              match record with
              | Obs.Json.Obj fs ->
                  Alcotest.(check bool)
                    (Printf.sprintf "record %s carries its id" id)
                    true
                    (List.assoc "id" fs = Obs.Json.String id);
                  (* These tasks build no scenario, so the latency list
                     is present but empty. *)
                  Alcotest.(check bool)
                    (Printf.sprintf "record %s carries a latency list" id)
                    true
                    (match List.assoc_opt "latency" fs with
                    | Some (Obs.Json.List _) -> true
                    | _ -> false);
                  Alcotest.(check bool)
                    (Printf.sprintf "record %s carries a prof block" id)
                    true
                    (match List.assoc_opt "prof" fs with
                    | Some (Obs.Json.Obj _) -> true
                    | _ -> false)
              | _ -> Alcotest.fail "experiment record not an object")
            ids l
      | _ -> Alcotest.fail "experiments not a list")
  | _ -> Alcotest.fail "bench_json not an object"

(* A task that builds a real scenario must come back with the latency
   decomposition of every run it attached — measured in the forked
   worker via the Obs runtime, marshalled home in the summary — and
   nothing when the decomposition is switched off. *)
let scenario_task id =
  task id (fun () ->
      let s =
        Core.Scenario.build
          { Core.Scenario.default_config with
            Core.Scenario.cp = Core.Scenario.Cp_pce Core.Pce_control.default_options }
      in
      let internet = Core.Scenario.internet s in
      let flow =
        Nettypes.Flow.create
          ~src:(Topology.Domain.host_eid internet.Topology.Builder.domains.(0) 0)
          ~dst:(Topology.Domain.host_eid internet.Topology.Builder.domains.(1) 0)
          ~src_port:1 ()
      in
      ignore (Core.Scenario.open_connection s ~flow ~data_packets:2 ());
      Core.Scenario.run s;
      print_endline "done")

let test_latency_block () =
  let _, outcomes = run_to_string ~jobs:1 [ scenario_task "pce1" ] in
  match outcomes with
  | [ o ] ->
      (match o.Experiments.Runner.out_summary.s_latency with
      | [ (label, metrics) ] ->
          Alcotest.(check string) "labelled by control plane" "pce" label;
          let get k = List.assoc k metrics in
          Alcotest.(check (float 0.0)) "one flow" 1.0 (get "flows");
          Alcotest.(check (float 0.0)) "established" 1.0 (get "established");
          Alcotest.(check bool) "setup time measured" true
            (get "t_setup_mean" > 0.0);
          Alcotest.(check (float 0.0)) "pce pays no resolution" 0.0
            (get "t_map_resol_mean")
      | l ->
          Alcotest.fail
            (Printf.sprintf "expected one latency run, got %d" (List.length l)))
  | _ -> Alcotest.fail "expected one outcome"

let test_latency_disabled () =
  let outcomes =
    Experiments.Runner.run ~jobs:1 ~latency:false ~emit:ignore ~log:ignore
      [ scenario_task "pce1" ]
  in
  match outcomes with
  | [ o ] ->
      Alcotest.(check int) "no latency block" 0
        (List.length o.Experiments.Runner.out_summary.s_latency)
  | _ -> Alcotest.fail "expected one outcome"

(* A long sweep's summary — one latency block per scenario built —
   can exceed the 64 KB pipe buffer.  The parent must drain the pipe
   while the worker writes (EOF, not wait(), is the completion
   signal), or writer and reaper deadlock; this pins a summary several
   buffers large. *)
let test_large_summary () =
  let n = 500 in
  let t =
    task "sweep" (fun () ->
        for _ = 1 to n do
          let s =
            Core.Scenario.build
              { Core.Scenario.default_config with
                Core.Scenario.cp =
                  Core.Scenario.Cp_pce Core.Pce_control.default_options }
          in
          Core.Scenario.run s
        done;
        print_endline "done")
  in
  let _, outcomes = run_to_string ~jobs:1 [ t ] in
  match outcomes with
  | [ o ] ->
      Alcotest.(check bool) "sweep ok" true
        o.Experiments.Runner.out_summary.s_ok;
      Alcotest.(check int) "one latency entry per scenario" n
        (List.length o.Experiments.Runner.out_summary.s_latency)
  | _ -> Alcotest.fail "expected one outcome"

(* Rows recorded inside a worker must come home in the summary and
   surface as a block of the experiment's object; tasks that record none
   must not carry the block at all. *)
let test_cache_rows_ride_summary () =
  let row =
    { Experiments.Bench_row.run = "lru/c=8"; ok = true;
      fields =
        [ ("policy", Obs.Json.String "lru");
          ("measured_miss", Obs.Json.Float 0.25) ] }
  in
  let ts =
    [ task "cachy" (fun () -> Experiments.Bench_row.record "cache" row);
      task "plain" (chatty "plain") ]
  in
  let _, outcomes = run_to_string ~jobs:2 ts in
  (match outcomes with
  | [ cachy; plain ] ->
      Alcotest.(check bool) "row marshalled home" true
        (cachy.Experiments.Runner.out_summary.s_rows = [ ("cache", [ row ]) ]);
      Alcotest.(check bool) "no rows for a plain task" true
        (plain.Experiments.Runner.out_summary.s_rows = [])
  | _ -> Alcotest.fail "expected two outcomes");
  match Experiments.Runner.bench_json ~jobs:2 outcomes with
  | Obs.Json.Obj fields -> (
      match List.assoc "experiments" fields with
      | Obs.Json.List [ Obs.Json.Obj cachy; Obs.Json.Obj plain ] ->
          Alcotest.(check bool) "cache block emitted" true
            (match List.assoc_opt "cache" cachy with
            | Some (Obs.Json.List [ r ]) ->
                Experiments.Bench_row.of_json r = Some row
            | _ -> false);
          Alcotest.(check bool) "no cache block when no rows" true
            (List.assoc_opt "cache" plain = None)
      | _ -> Alcotest.fail "expected two experiment records")
  | _ -> Alcotest.fail "bench_json not an object"

(* One row shape carries every block.  Rows must survive the JSON text
   round trip with int, float, string and float-list fields, and with
   the optional fields (predicted_miss, ratio_in) omitted; the wire
   order is run, fields in order, ok. *)
let test_bench_row_round_trip () =
  let f x = Obs.Json.Float x in
  let rows =
    [ { Experiments.Bench_row.run = "lru/c=4096"; ok = true;
        fields =
          [ ("policy", Obs.Json.String "lru"); ("n", Obs.Json.Int 1_000_000);
            ("alpha", f 0.9); ("measured_miss", f 0.5817);
            ("predicted_miss", f 0.5791) ] };
      { Experiments.Bench_row.run = "lfu/a=0.6"; ok = true;
        fields =
          [ ("policy", Obs.Json.String "lfu"); ("n", Obs.Json.Int 1_000_000);
            ("measured_miss", f 0.9012) ] };
      { Experiments.Bench_row.run = "pce/s21"; ok = true;
        fields =
          [ ("cp", Obs.Json.String "pce");
            ("in_share", Obs.Json.List [ f 0.30; f 0.23; f 0.23; f 0.24 ]);
            ("ratio_in", f 1.322); ("threshold", f 0.8) ] };
      { Experiments.Bench_row.run = "symmetric/s21"; ok = false;
        fields =
          [ ("cp", Obs.Json.String "symmetric");
            ("in_share", Obs.Json.List [ f 0.53; f 0.0 ]);
            ("drops", Obs.Json.Int 3); ("threshold", f 0.0) ] } ]
  in
  List.iter
    (fun row ->
      let text = Obs.Json.to_string (Experiments.Bench_row.to_json row) in
      match Obs.Json.of_string text with
      | Error msg -> Alcotest.failf "round-trip parse failed: %s" msg
      | Ok json ->
          Alcotest.(check bool)
            (row.Experiments.Bench_row.run ^ " survives the round trip")
            true
            (Experiments.Bench_row.of_json json = Some row))
    rows;
  Alcotest.(check string) "wire format"
    {|{"run":"lfu/a=0.6","policy":"lfu","n":1000000,"measured_miss":0.9012,"ok":true}|}
    (Obs.Json.to_string (Experiments.Bench_row.to_json (List.nth rows 1)))

let prop_output_independent_of_jobs =
  QCheck.Test.make ~name:"emitted bytes independent of job count" ~count:8
    QCheck.(pair (int_range 2 4) (int_range 1 6))
    (fun (jobs, n) ->
      let mk () =
        List.init n (fun i ->
            let id = Printf.sprintf "t%d" i in
            task id (chatty id))
      in
      let serial, _ = run_to_string ~jobs:1 (mk ()) in
      let multi, _ = run_to_string ~jobs (mk ()) in
      String.equal serial multi)

let () =
  Alcotest.run "runner"
    [
      ( "runner",
        [
          Alcotest.test_case "serial = parallel" `Quick
            test_serial_parallel_identical;
          Alcotest.test_case "task order" `Quick test_output_in_task_order;
          Alcotest.test_case "failure flagged" `Quick test_failure_flagged;
          Alcotest.test_case "jobs validated" `Quick test_jobs_validated;
          Alcotest.test_case "bench json" `Quick test_bench_json_shape;
          Alcotest.test_case "latency block" `Quick test_latency_block;
          Alcotest.test_case "latency disabled" `Quick test_latency_disabled;
          Alcotest.test_case "oversized summary" `Quick test_large_summary;
          Alcotest.test_case "cache rows ride summary" `Quick
            test_cache_rows_ride_summary;
          Alcotest.test_case "bench row round-trip" `Quick
            test_bench_row_round_trip;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_output_independent_of_jobs ]
      );
    ]
