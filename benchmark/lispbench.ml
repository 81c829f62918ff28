(* lispbench: the repository's performance benchmark.

     lispbench.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]
                   [--trace-file FILE]

   Untraced (--trace 0): runs the workload again and again within S
   seconds of wall time (at least once) and prints the end-to-end
   metrics.
   Traced (--trace 1): runs it once untraced, then once under the
   self-profiler, writes the profiler's Chrome trace, runs the outside
   probes and prints the per-layer metrics.  Every run passes the
   correctness gate in Verify; the last line of stdout is the JSON
   result.  Progress goes to stderr. *)

open Lispbench_lib

(* Set-ups timed before the first run.  A set-up takes about a
   millisecond, so one sample is mostly noise. *)
let setup_samples = 100

let fail ~attempted problems =
  List.iter prerr_endline problems;
  print_endline (Report.result_line ~correct:false ~attempted ~failed:attempted []);
  exit 1

(* One run of the workload, from a collected heap so that it pays for no
   earlier garbage, that has passed the correctness gate.  [traced]
   wraps it in the self-profiler. *)
let checked_run ?(traced = false) w ~seed =
  Gc.full_major ();
  if traced then Obs.Prof.start ();
  let r = Workloads.run w ~seed in
  if traced then Obs.Prof.stop ();
  let expected = Verify.expected w.Workloads.name ~seed in
  let tally, digest, problems = Verify.check ?expected r in
  if problems <> [] then fail ~attempted:r.Workloads.opened problems;
  Printf.eprintf "%s seed %d: %d flows, setup %.2f ms, run %.3f s, %.0f flows/s\n  digest %s\n%!"
    w.Workloads.name seed r.Workloads.opened (r.Workloads.setup_s *. 1e3)
    r.Workloads.run_s (Workloads.flows_per_s r)
    (Obs.Json.to_string (Verify.json_of_digest digest));
  (r, tally, digest)

(* Times [setup_samples] set-ups on the fresh heap a user's process
   starts from (after a run, a set-up would also pay for sweeping that
   run's heap).  Then runs the workload until the next run would end
   past [seconds] of wall time, at least once, and reports the medians. *)
let untraced w ~seed ~seconds =
  let t0 = Obs.Prof.now_s () in
  let setups = Netsim.Stats.Samples.create () in
  for _ = 1 to setup_samples do
    Netsim.Stats.Samples.add setups (Workloads.prepare w ~seed).Workloads.setup_s
  done;
  let flows_per_s = Netsim.Stats.Samples.create () in
  let measure () =
    let started = Obs.Prof.now_s () in
    let r, tally, _ = checked_run w ~seed in
    Netsim.Stats.Samples.add flows_per_s (Workloads.flows_per_s r);
    (tally, Obs.Prof.now_s () -. started)
  in
  let tally, took = measure () in
  (* Peak RSS is that of the first run: later runs reuse the same heap,
     and their high-water mark would measure the repetition
     (fragmentation, GC phase) rather than the workload. *)
  let rss_kb = Report.peak_rss_kb () in
  let rec loop took =
    if Obs.Prof.now_s () -. t0 +. took <= seconds then loop (snd (measure ()))
  in
  loop took;
  (tally, Report.end_to_end ~flows_per_s ~setups ~rss_kb)

(* The untraced run comes first: it gives the counters and the baseline
   of the tracing overhead. *)
let traced w ~seed ~trace_file =
  let r, tally, digest = checked_run w ~seed in
  let untraced_fps = Workloads.flows_per_s r in
  let counters = Report.counters r tally in
  Obs.Prof.set_record_intervals true;
  let traced, _, traced_digest = checked_run ~traced:true w ~seed in
  if not (Verify.digest_equal digest traced_digest) then
    fail ~attempted:tally.Verify.opened [ "traced run diverged from untraced run" ];
  let report = Obs.Prof.report () in
  (match Filename.dirname trace_file with
  | "." -> ()
  | dir -> if not (Sys.file_exists dir) then Sys.mkdir dir 0o755);
  Obs.Prof.write_chrome_trace ~file:trace_file
    [ (w.Workloads.name, Obs.Prof.intervals ()) ];
  (* The profiler keeps at most its default cap of intervals.  Every
     workload records more, so its trace covers only the run's start;
     the phase totals behind the (t) metrics still count every interval. *)
  Printf.eprintf "chrome trace: %s (%d intervals dropped past the cap)\n%!"
    trace_file report.Obs.Prof.r_intervals_dropped;
  ( tally,
    counters @ Report.phases report traced ~untraced_fps @ Probes.measure w ~seed )

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 30.0 in
  let trace = ref 0 and trace_file = ref "" in
  let usage =
    "lispbench.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1] \
     [--trace-file FILE]\nworkloads: "
    ^ String.concat ", " (List.map (fun w -> w.Workloads.name) Workloads.all)
  in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S untraced measuring time (default 30)");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run (default 0)");
      ( "--trace-file", Arg.Set_string trace_file,
        "FILE Chrome trace output (default .lispbench/WORKLOAD-SEED.json)" ) ]
    (fun anon -> workload := anon)
    usage;
  let w =
    match Workloads.find !workload with
    | Some w when !trace = 0 || !trace = 1 -> w
    | Some _ | None ->
        prerr_endline usage;
        exit 2
  in
  let tally, metrics =
    if !trace = 0 then untraced w ~seed:!seed ~seconds:!seconds
    else
      let trace_file =
        if !trace_file <> "" then !trace_file
        else Printf.sprintf ".lispbench/%s-%d.json" w.Workloads.name !seed
      in
      traced w ~seed:!seed ~trace_file
  in
  print_endline
    (Report.result_line ~correct:true ~attempted:tally.Verify.opened
       ~failed:(tally.Verify.opened - tally.Verify.established)
       metrics)
