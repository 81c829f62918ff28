(* Scale-out experiment runner.

   Forks one worker process per task, captures each worker's stdout in a
   temporary file, and replays the outputs on the parent's [emit] stream
   in task order — so the bytes emitted are identical whatever the
   worker count or completion order.  Per-task wall-clock, engine
   events/sec, peak RSS, latency and self-profile come back over a
   pipe as a marshalled summary; the parent drains all summary pipes
   concurrently while workers run, so no writer can block however
   large the summary grows. *)

type task = {
  task_id : string;
  task_title : string;
  task_run : unit -> unit;  (* prints its report to stdout *)
}

(* Summary record marshalled from worker to parent: plain scalars,
   strings and data records only, so marshalling is closure-free and
   version-safe within one binary.  The parent drains every summary
   pipe concurrently (select) while workers run, so the payload may
   exceed the pipe buffer — a long sweep's latency block does — but
   truly bulk data (the self-profile intervals) still goes through
   temp files. *)
type summary = {
  s_wall : float;  (* seconds of real time in the worker *)
  s_events : int;  (* engine events fired by the worker *)
  s_rss_kb : int;  (* worker VmHWM; 0 when unavailable *)
  s_ok : bool;
  s_latency : (string * (string * float) list) list;
      (* per-run latency decomposition, attach order; derived from
         simulated time only, so identical whatever the job count *)
  s_prof : (Obs.Prof.report * (string * float) list) option;
      (* self-profile of the worker (per-phase breakdown + GC deltas);
         None when profiling was off or the worker died *)
  s_rows : (string * Bench_row.t list) list;
      (* gated cell rows by block, see {!Bench_row}; simulated
         quantities only, so identical whatever the job count *)
}

type outcome = {
  out_id : string;
  out_title : string;
  out_text : string;  (* captured stdout of the worker *)
  out_summary : summary;
}

let peak_rss_kb () =
  (* VmHWM from /proc/self/status, in kB; Linux-only by construction. *)
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0
  | ic ->
      let rec scan () =
        match input_line ic with
        | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              let rest = String.sub line 6 (String.length line - 6) in
              try Scanf.sscanf rest " %d" (fun v -> v) with _ -> 0
            else scan ()
        | exception End_of_file -> 0
      in
      let v = scan () in
      close_in ic;
      v

let flush_std () =
  Format.pp_print_flush Format.std_formatter ();
  flush stdout;
  flush stderr

let header task = Printf.sprintf ">>> [%s] %s\n" task.task_id task.task_title

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

type worker = {
  w_task : task;
  w_index : int;
  w_pid : int;
  w_pipe : Unix.file_descr;  (* read end of the summary pipe *)
  w_out_file : string;
  w_buf : Buffer.t;  (* summary bytes drained so far *)
}

(* Top-level profiler phase wrapped around the whole task: with it,
   every profiled nanosecond of the worker's run is inside some phase,
   so the breakdown's coverage is structurally ~100% and "experiment"
   self-time is exactly the task work no subsystem phase claims. *)
let ph_task = Obs.Prof.phase "experiment"

let spawn ~latency ~profile ~prof_file index task =
  let out_file = Filename.temp_file "bench-worker" ".out" in
  let pipe_r, pipe_w = Unix.pipe () in
  (* Anything buffered now would otherwise be flushed twice, once per
     process, corrupting the deterministic stream. *)
  flush_std ();
  match Unix.fork () with
  | 0 ->
      (* Worker: stdout goes to the capture file; stderr stays shared
         (progress/diagnostics are allowed to interleave). *)
      Unix.close pipe_r;
      let out_fd =
        Unix.openfile out_file [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600
      in
      Unix.dup2 out_fd Unix.stdout;
      Unix.close out_fd;
      (* Latency decomposition rides on the Obs hub: install a runtime
         with no exporters so every scenario the task builds feeds a
         Latency analyzer.  Simulated time only — the numbers cannot
         depend on worker scheduling.  Skipped when a runtime is
         already active (the task owns the wiring then). *)
      let observe = latency && not (Obs.Runtime.active ()) in
      if observe then ignore (Obs.Runtime.install ~latency:true ());
      (* Rows must be this task's alone, whatever the parent had. *)
      Bench_row.reset ();
      (* Baselines first, then the profiler: its window holds the task
         alone, not the runner's bookkeeping (the first GC snapshot in
         a fresh worker costs tens of microseconds, a visible share of
         a short task's coverage). *)
      let gc0 = if profile then Obs.Prof.gc_snapshot () else [] in
      let t0 = Unix.gettimeofday () in
      let events0 = Netsim.Engine.total_events_processed () in
      if profile then begin
        if prof_file <> None then Obs.Prof.set_record_intervals true;
        Obs.Prof.start ()
      end;
      let ok =
        try
          if profile then Obs.Prof.with_phase ph_task task.task_run
          else task.task_run ();
          true
        with exn ->
          Printf.eprintf "[%s] worker failed: %s\n%!" task.task_id
            (Printexc.to_string exn);
          false
      in
      (* Stop the profiler the moment the task returns: the epilogue
         below (latency reports, runtime finalize) is runner overhead,
         not experiment time, and must not dilute coverage. *)
      let prof =
        if profile then begin
          Obs.Prof.stop ();
          Some (Obs.Prof.report (), Obs.Prof.gc_since gc0)
        end
        else None
      in
      let lat = if observe then Obs.Runtime.latency_reports () else [] in
      if observe then Obs.Runtime.finalize ();
      (* Chrome-trace fragments are written to a temp file, one event
         object per line — too big for the summary pipe. *)
      (match prof_file with
      | Some pf when profile ->
          let oc = open_out pf in
          List.iter
            (fun ev ->
              output_string oc (Obs.Json.to_string ev);
              output_char oc '\n')
            (Obs.Prof.chrome_events ~pid:(index + 1)
               ~process_name:(task.task_id ^ " " ^ task.task_title)
               (Obs.Prof.intervals ()));
          close_out oc
      | Some _ | None -> ());
      let summary =
        { s_wall = Unix.gettimeofday () -. t0;
          s_events = Netsim.Engine.total_events_processed () - events0;
          s_rss_kb = peak_rss_kb (); s_ok = ok; s_latency = lat;
          s_prof = prof; s_rows = Bench_row.blocks () }
      in
      flush_std ();
      let blob = Marshal.to_bytes summary [] in
      let rec write_all off =
        if off < Bytes.length blob then
          let n = Unix.write pipe_w blob off (Bytes.length blob - off) in
          write_all (off + n)
      in
      (try write_all 0 with Unix.Unix_error _ -> ());
      (try Unix.close pipe_w with Unix.Unix_error _ -> ());
      (* _exit, not exit: at_exit handlers belong to the parent. *)
      Unix._exit (if ok then 0 else 1)
  | pid ->
      Unix.close pipe_w;
      { w_task = task; w_index = index; w_pid = pid; w_pipe = pipe_r;
        w_out_file = out_file; w_buf = Buffer.create 256 }

let collect w =
  let blob = Buffer.to_bytes w.w_buf in
  let summary =
    if Bytes.length blob = 0 then
      (* Worker died before reporting (segfault, kill): synthesise. *)
      { s_wall = 0.0; s_events = 0; s_rss_kb = 0; s_ok = false;
        s_latency = []; s_prof = None; s_rows = [] }
    else (Marshal.from_bytes blob 0 : summary)
  in
  let text = try read_file w.w_out_file with Sys_error _ -> "" in
  (try Sys.remove w.w_out_file with Sys_error _ -> ());
  { out_id = w.w_task.task_id; out_title = w.w_task.task_title;
    out_text = text; out_summary = summary }

let events_per_sec s =
  if s.s_wall > 0.0 then float_of_int s.s_events /. s.s_wall else 0.0

let log_line o =
  let s = o.out_summary in
  Printf.sprintf "    [%s] %.1fs wall, %d events (%.0f kev/s), peak RSS %d MB%s\n"
    o.out_id s.s_wall s.s_events (events_per_sec s /. 1e3)
    (s.s_rss_kb / 1024)
    (if s.s_ok then "" else " — FAILED")

(* Run every task, [jobs] workers at a time, emitting the deterministic
   stream (headers + captured outputs, task order) on [emit] and the
   timing lines on [log].  Returns the outcomes in task order.

   [profile] (default on) runs each worker under the self-profiler;
   the per-phase breakdown comes back in [s_prof].  [prof_trace]
   additionally records phase intervals in every worker and assembles
   them into one Chrome-trace file, one process per experiment. *)
let run ?(jobs = 1) ?(latency = true) ?(profile = true) ?prof_trace
    ?(emit = print_string) ?(log = prerr_string) tasks =
  if jobs < 1 then invalid_arg "Runner.run: jobs must be >= 1";
  let tasks = Array.of_list tasks in
  let n = Array.length tasks in
  let outcomes : outcome option array = Array.make n None in
  let prof_files : string option array = Array.make n None in
  let running = ref [] in
  let next = ref 0 in
  let emitted = ref 0 in
  let emit_ready () =
    while !emitted < n && outcomes.(!emitted) <> None do
      (match outcomes.(!emitted) with
      | Some o ->
          emit (header tasks.(!emitted));
          emit o.out_text;
          emit "\n";
          log (log_line o)
      | None -> assert false);
      incr emitted
    done
  in
  while !next < n || !running <> [] do
    (* Keep the worker pool full... *)
    while !next < n && List.length !running < jobs do
      let prof_file =
        if profile && prof_trace <> None then
          Some (Filename.temp_file "bench-prof" ".jsonl")
        else None
      in
      prof_files.(!next) <- prof_file;
      running :=
        spawn ~latency ~profile ~prof_file !next tasks.(!next) :: !running;
      incr next
    done;
    (* ...then drain whichever summary pipes have bytes.  Draining
       while workers run is what makes arbitrarily large summaries
       safe: a worker blocked writing past the pipe buffer unblocks as
       soon as we read, and EOF (the worker closed its end) is the
       completion signal — only then is the reap guaranteed not to
       wait on a still-writing worker. *)
    let fds = List.map (fun w -> w.w_pipe) !running in
    match Unix.select fds [] [] (-1.0) with
    | readable, _, _ ->
        let chunk = Bytes.create 65536 in
        List.iter
          (fun fd ->
            let w = List.find (fun w -> w.w_pipe = fd) !running in
            match Unix.read fd chunk 0 (Bytes.length chunk) with
            | 0 ->
                (* EOF: the worker is done (or died); reap it. *)
                Unix.close fd;
                (try ignore (Unix.waitpid [] w.w_pid)
                 with Unix.Unix_error _ -> ());
                running := List.filter (fun x -> x.w_pid <> w.w_pid) !running;
                outcomes.(w.w_index) <- Some (collect w);
                emit_ready ()
            | len -> Buffer.add_subbytes w.w_buf chunk 0 len
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> ())
          readable
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  emit_ready ();
  (* Splice the per-worker Chrome-trace fragments (one JSON event per
     line) into a single trace, streaming so a large profile never
     lives in memory whole. *)
  (match prof_trace with
  | None -> ()
  | Some path ->
      let oc = open_out path in
      output_string oc "{\"traceEvents\":[";
      let first = ref true in
      Array.iter
        (function
          | None -> ()
          | Some pf ->
              (match open_in pf with
              | exception Sys_error _ -> ()
              | ic ->
                  (try
                     while true do
                       let line = input_line ic in
                       if String.length line > 0 then begin
                         if not !first then output_char oc ',';
                         first := false;
                         output_string oc line
                       end
                     done
                   with End_of_file -> ());
                  close_in ic);
              (try Sys.remove pf with Sys_error _ -> ()))
        prof_files;
      output_string oc "],\"displayTimeUnit\":\"ms\"}\n";
      close_out oc);
  Array.to_list (Array.map Option.get outcomes)

(* BENCH.json: the machine-readable perf record, one object per
   experiment plus run-level totals.  Schema documented in
   doc/performance.md. *)
let bench_json ?engine ~jobs ~total_wall outcomes =
  let latency_run (label, metrics) =
    (* A list of objects, not one object: run labels can repeat when an
       experiment replays the same scenario config. *)
    Obs.Json.Obj
      (("run", Obs.Json.String label)
      :: List.map (fun (k, v) -> (k, Obs.Json.Float v)) metrics)
  in
  let experiment o =
    let s = o.out_summary in
    Obs.Json.Obj
      ([ ("id", Obs.Json.String o.out_id);
        ("title", Obs.Json.String o.out_title);
        ("ok", Obs.Json.Bool s.s_ok);
        ("wall_s", Obs.Json.Float s.s_wall);
        ("events", Obs.Json.Int s.s_events);
        ("events_per_sec", Obs.Json.Float (events_per_sec s));
        ("peak_rss_kb", Obs.Json.Int s.s_rss_kb);
        ("latency", Obs.Json.List (List.map latency_run s.s_latency));
        ( "prof",
          match s.s_prof with
          | Some (report, gc) -> Obs.Prof.json_of_report ~gc report
          | None -> Obs.Json.Null ) ]
      (* Only experiments that recorded rows carry row blocks, so the
         schema of every other experiment object is unchanged. *)
      @ List.map
          (fun (block, rows) ->
            (block, Obs.Json.List (List.map Bench_row.to_json rows)))
          s.s_rows)
  in
  Obs.Json.Obj
    ([ ("schema", Obs.Json.String "lisp-pce-bench/6");
       ("jobs", Obs.Json.Int jobs);
       ("total_wall_s", Obs.Json.Float total_wall);
       ( "total_events",
         Obs.Json.Int
           (List.fold_left (fun a o -> a + o.out_summary.s_events) 0 outcomes)
       ) ]
    @ (match engine with
      | Some block -> [ ("engine", block) ]
      | None -> [])
    @ [ ("experiments", Obs.Json.List (List.map experiment outcomes)) ])

let write_bench_json ?engine ~path ~jobs ~total_wall outcomes =
  let oc = open_out path in
  output_string oc
    (Obs.Json.to_string (bench_json ?engine ~jobs ~total_wall outcomes));
  output_char oc '\n';
  close_out oc
