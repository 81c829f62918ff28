(* The experiment harness: regenerates every table and figure of
   EXPERIMENTS.md.  Run all with `dune exec bench/main.exe`, a subset
   with experiment ids as arguments, and in parallel with `--jobs N`
   (one worker process per experiment; output is reassembled in
   deterministic order, byte-identical to a serial run).

   Per-experiment wall-clock, events/sec and peak RSS always land in
   BENCH.json (see doc/performance.md); timing chatter goes to stderr so
   stdout stays deterministic. *)

let experiments : (string * string * (unit -> unit)) list =
  List.map
    (fun e ->
      (e.Experiments.Exp_index.exp_id, e.Experiments.Exp_index.exp_title,
       e.Experiments.Exp_index.print))
    Experiments.Exp_index.all

let usage () =
  print_endline
    "usage: main.exe [--jobs N] [--bench-json FILE] [experiment-id ...]";
  print_endline "       main.exe --check [...]   (see --check --help)";
  print_endline "  --jobs N          run N experiment workers in parallel (default 1)";
  print_endline "  --bench-json FILE write the machine-readable perf record there";
  print_endline "                    (default BENCH.json)";
  print_endline "  --no-latency      skip the per-flow latency decomposition";
  print_endline "                    (drops the \"latency\" block from BENCH.json)";
  print_endline "  --no-prof         skip the self-profiler (drops the \"prof\" block)";
  print_endline "  --prof-trace FILE write a Chrome-trace self-profile there";
  print_endline "  --check           compare BENCH.json against the committed";
  print_endline "                    baseline and exit non-zero on regression";
  print_endline "available experiments:";
  List.iter
    (fun (id, title, _) ->
      Printf.printf "  %-6s %s%s\n" id title
        (if List.mem id Experiments.Exp_index.scale_ids then
           "  [scale: only runs when named]"
         else ""))
    experiments

let bad_usage fmt =
  Printf.ksprintf
    (fun message ->
      prerr_endline message;
      usage ();
      exit 1)
    fmt

let parse_args args =
  let jobs = ref 1 in
  let bench_json = ref "BENCH.json" in
  let latency = ref true in
  let profile = ref true in
  let prof_trace = ref None in
  let ids = ref [] in
  let rec loop = function
    | [] -> ()
    | ("--help" | "-h") :: _ ->
        usage ();
        exit 0
    | "--jobs" :: n :: rest ->
        (match int_of_string_opt n with
        | Some n when n >= 1 -> jobs := n
        | Some _ | None -> bad_usage "--jobs expects a positive integer");
        loop rest
    | [ "--jobs" ] -> bad_usage "--jobs expects a value"
    | "--no-latency" :: rest ->
        latency := false;
        loop rest
    | "--no-prof" :: rest ->
        profile := false;
        loop rest
    | "--prof-trace" :: path :: rest ->
        prof_trace := Some path;
        loop rest
    | [ "--prof-trace" ] -> bad_usage "--prof-trace expects a value"
    | "--bench-json" :: path :: rest ->
        bench_json := path;
        loop rest
    | [ "--bench-json" ] -> bad_usage "--bench-json expects a value"
    | arg :: rest when String.length arg >= 7 && String.sub arg 0 7 = "--jobs=" ->
        loop ("--jobs" :: String.sub arg 7 (String.length arg - 7) :: rest)
    | arg :: rest
      when String.length arg >= 13 && String.sub arg 0 13 = "--bench-json=" ->
        loop
          ("--bench-json" :: String.sub arg 13 (String.length arg - 13) :: rest)
    | arg :: _ when String.length arg > 0 && arg.[0] = '-' ->
        bad_usage "unknown option: %s" arg
    | id :: rest ->
        ids := id :: !ids;
        loop rest
  in
  loop args;
  (!jobs, !bench_json, !latency, !profile, !prof_trace, List.rev !ids)

let () =
  let argv = List.tl (Array.to_list Sys.argv) in
  (* Regression-gate mode: compare an existing BENCH.json against the
     committed baseline and exit with its verdict. *)
  (match argv with
  | "--check" :: rest -> exit (Experiments.Check.main rest)
  | _ -> ());
  let jobs, bench_json, latency, profile, prof_trace, requested =
    parse_args argv
  in
  let selected =
    if requested = [] then
      (* The scale experiments (S1/S2, 100k-flow cells) only run when
         named, to keep the default sweep to a few minutes. *)
      List.filter
        (fun (id, _, _) -> not (List.mem id Experiments.Exp_index.scale_ids))
        experiments
    else
      List.map
        (fun id ->
          match List.find_opt (fun (i, _, _) -> i = id) experiments with
          | Some e -> e
          | None -> bad_usage "unknown experiment id: %s" id)
        requested
  in
  Printf.printf
    "LISP PCE control-plane reproduction - experiment harness (%d experiments)\n\n%!"
    (List.length selected);
  let tasks =
    List.map
      (fun (id, title, print) ->
        { Experiments.Runner.task_id = id; task_title = title;
          task_run = print })
      selected
  in
  let t0 = Unix.gettimeofday () in
  let outcomes =
    Experiments.Runner.run ~jobs ~latency ~profile ?prof_trace tasks
  in
  let total_wall = Unix.gettimeofday () -. t0 in
  (* Raw engine dispatch throughput, measured in-process after the
     experiments so the number lands in BENCH.json's "engine" block for
     the --check throughput floor. *)
  let engine = Experiments.Bench_micro.engine_block () in
  Experiments.Runner.write_bench_json ~engine ~path:bench_json ~jobs outcomes;
  Printf.eprintf "    total %.1fs wall (%d jobs); perf record: %s\n%!"
    total_wall jobs bench_json;
  if List.exists (fun o -> not o.Experiments.Runner.out_summary.s_ok) outcomes
  then exit 1
