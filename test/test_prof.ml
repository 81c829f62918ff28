(* Tests for the self-profiler: phase accounting under an injected
   clock (nesting, recursion, pause/resume), interval recording and its
   drop cap, the BENCH.json v3 round-trip, real-clock sanity, the
   allocation-free disabled path, and a qcheck property that enabling
   the profiler never changes simulation output. *)

let eps = 1e-9

let approx msg expected got =
  let ok =
    Float.abs (expected -. got)
    <= eps *. Float.max 1.0 (Float.max (Float.abs expected) (Float.abs got))
  in
  Alcotest.(check bool)
    (Printf.sprintf "%s (expected %.12g, got %.12g)" msg expected got)
    true ok

(* Run [f] under a fake clock driven by a ref, restoring the real clock
   and switching the profiler off however [f] exits. *)
let with_fake_clock f =
  let t = ref 0.0 in
  Obs.Prof.set_clock_for_testing (Some (fun () -> !t));
  Fun.protect
    ~finally:(fun () ->
      Obs.Prof.stop ();
      Obs.Prof.set_record_intervals false;
      Obs.Prof.set_clock_for_testing None)
    (fun () -> f t)

let find_phase r name =
  match
    List.find_opt (fun p -> p.Obs.Prof.ps_name = name) r.Obs.Prof.r_phases
  with
  | Some p -> p
  | None -> Alcotest.fail (Printf.sprintf "phase %s missing from report" name)

let test_nesting_accounting () =
  with_fake_clock @@ fun t ->
  Obs.Prof.start ();
  let a = Obs.Prof.phase "alpha" and b = Obs.Prof.phase "beta" in
  Obs.Prof.enter a;
  t := 1.0;
  Obs.Prof.enter b;
  t := 3.0;
  Obs.Prof.leave b;
  t := 3.5;
  Obs.Prof.leave a;
  let c = Obs.Prof.counter "widgets" in
  Obs.Prof.add c 7;
  t := 4.0;
  Obs.Prof.stop ();
  let r = Obs.Prof.report () in
  approx "wall" 4.0 r.Obs.Prof.r_wall_s;
  let pa = find_phase r "alpha" and pb = find_phase r "beta" in
  (* alpha holds the clock 0..1 and 3..3.5; beta holds 1..3. *)
  approx "alpha self" 1.5 pa.Obs.Prof.ps_self_s;
  approx "alpha total (inclusive)" 3.5 pa.Obs.Prof.ps_total_s;
  Alcotest.(check int) "alpha calls" 1 pa.Obs.Prof.ps_calls;
  approx "beta self" 2.0 pb.Obs.Prof.ps_self_s;
  approx "beta total" 2.0 pb.Obs.Prof.ps_total_s;
  (* self times partition the wall: 3.5 attributed, 0.5 outside any
     phase. *)
  approx "unattributed" 0.5 r.Obs.Prof.r_unattributed_s;
  approx "coverage" 0.875 (Obs.Prof.coverage r);
  Alcotest.(check (list (pair string int)))
    "counters" [ ("widgets", 7) ] r.Obs.Prof.r_counters

let test_recursion_counted_once () =
  with_fake_clock @@ fun t ->
  Obs.Prof.start ();
  let a = Obs.Prof.phase "alpha" in
  Obs.Prof.enter a;
  t := 1.0;
  Obs.Prof.enter a;
  t := 2.0;
  Obs.Prof.leave a;
  t := 3.0;
  Obs.Prof.leave a;
  Obs.Prof.stop ();
  let r = Obs.Prof.report () in
  let pa = find_phase r "alpha" in
  Alcotest.(check int) "two calls" 2 pa.Obs.Prof.ps_calls;
  approx "self covers the whole span" 3.0 pa.Obs.Prof.ps_self_s;
  (* The nested activation must not double-count the overlap. *)
  approx "total counted once" 3.0 pa.Obs.Prof.ps_total_s

let test_pause_resume () =
  with_fake_clock @@ fun t ->
  Obs.Prof.start ();
  let a = Obs.Prof.phase "alpha" in
  Obs.Prof.enter a;
  t := 1.0;
  Obs.Prof.pause ();
  t := 5.0;
  (* 4 s elapse while paused: invisible to every accumulator. *)
  Obs.Prof.resume ();
  t := 6.0;
  Obs.Prof.leave a;
  Obs.Prof.stop ();
  let r = Obs.Prof.report () in
  let pa = find_phase r "alpha" in
  approx "wall excludes the pause" 2.0 r.Obs.Prof.r_wall_s;
  approx "self excludes the pause" 2.0 pa.Obs.Prof.ps_self_s;
  approx "total excludes the pause" 2.0 pa.Obs.Prof.ps_total_s;
  approx "nothing unattributed" 0.0 r.Obs.Prof.r_unattributed_s

let test_exception_unwound () =
  with_fake_clock @@ fun t ->
  Obs.Prof.start ();
  let a = Obs.Prof.phase "alpha" in
  (try
     Obs.Prof.with_phase a (fun () ->
         t := 2.0;
         failwith "boom")
   with Failure _ -> ());
  t := 3.0;
  Obs.Prof.stop ();
  let r = Obs.Prof.report () in
  let pa = find_phase r "alpha" in
  (* with_phase closed the frame on the way out. *)
  approx "self charged up to the raise" 2.0 pa.Obs.Prof.ps_self_s;
  approx "wall" 3.0 r.Obs.Prof.r_wall_s

let test_intervals_and_cap () =
  with_fake_clock @@ fun t ->
  Obs.Prof.set_record_intervals ~cap:2 true;
  Obs.Prof.start ();
  let a = Obs.Prof.phase "alpha" in
  for _ = 1 to 3 do
    Obs.Prof.enter a;
    t := !t +. 1.0;
    Obs.Prof.leave a
  done;
  Obs.Prof.stop ();
  let ivs = Obs.Prof.intervals () in
  Alcotest.(check int) "capacity respected" 2 (List.length ivs);
  Alcotest.(check int) "overflow counted" 1 (Obs.Prof.intervals_dropped ());
  (match ivs with
  | { Obs.Prof.iv_name; iv_start_s; iv_dur_s; iv_depth } :: _ ->
      Alcotest.(check string) "interval phase" "alpha" iv_name;
      approx "interval start (relative to origin)" 0.0 iv_start_s;
      approx "interval duration" 1.0 iv_dur_s;
      Alcotest.(check int) "interval depth" 0 iv_depth
  | [] -> Alcotest.fail "no intervals recorded");
  Alcotest.(check int) "report carries the drop count" 1
    (Obs.Prof.report ()).Obs.Prof.r_intervals_dropped

let test_json_round_trip () =
  with_fake_clock @@ fun t ->
  Obs.Prof.start ();
  let a = Obs.Prof.phase "alpha" and b = Obs.Prof.phase "beta" in
  Obs.Prof.enter a;
  t := 0.125;
  Obs.Prof.enter b;
  t := 0.375;
  Obs.Prof.leave b;
  Obs.Prof.leave a;
  let c = Obs.Prof.counter "widgets" in
  Obs.Prof.add c 42;
  t := 0.5;
  Obs.Prof.stop ();
  let r = Obs.Prof.report () in
  let gc = [ ("minor_words", 12345.0); ("heap_words", 99.0) ] in
  let json = Obs.Prof.json_of_report ~gc r in
  let text = Obs.Json.to_string json in
  match Obs.Json.of_string text with
  | Error e -> Alcotest.fail ("re-parse failed: " ^ e)
  | Ok parsed -> (
      match Obs.Prof.report_of_json parsed with
      | Error e -> Alcotest.fail ("report_of_json failed: " ^ e)
      | Ok (r2, gc2) ->
          approx "wall round-trips" r.Obs.Prof.r_wall_s r2.Obs.Prof.r_wall_s;
          approx "unattributed round-trips" r.Obs.Prof.r_unattributed_s
            r2.Obs.Prof.r_unattributed_s;
          Alcotest.(check int) "same phase count"
            (List.length r.Obs.Prof.r_phases)
            (List.length r2.Obs.Prof.r_phases);
          List.iter2
            (fun p p2 ->
              Alcotest.(check string) "phase name" p.Obs.Prof.ps_name
                p2.Obs.Prof.ps_name;
              approx "phase self" p.Obs.Prof.ps_self_s p2.Obs.Prof.ps_self_s;
              approx "phase total" p.Obs.Prof.ps_total_s
                p2.Obs.Prof.ps_total_s;
              Alcotest.(check int) "phase calls" p.Obs.Prof.ps_calls
                p2.Obs.Prof.ps_calls)
            r.Obs.Prof.r_phases r2.Obs.Prof.r_phases;
          Alcotest.(check (list (pair string int)))
            "counters round-trip" r.Obs.Prof.r_counters
            r2.Obs.Prof.r_counters;
          List.iter2
            (fun (k, v) (k2, v2) ->
              Alcotest.(check string) "gc key" k k2;
              approx "gc value" v v2)
            gc gc2)

let test_monotonic_clock_sanity () =
  (* Real clock: time advances, and a profiled busy loop produces an
     internally consistent report. *)
  Obs.Prof.start ();
  Fun.protect ~finally:Obs.Prof.stop @@ fun () ->
  let t0 = Obs.Prof.now_s () in
  let a = Obs.Prof.phase "busy" in
  let acc = ref 0 in
  Obs.Prof.with_phase a (fun () ->
      for i = 1 to 100_000 do
        acc := !acc + i
      done);
  let t1 = Obs.Prof.now_s () in
  Alcotest.(check bool) "clock is monotonic" true (t1 >= t0);
  Obs.Prof.stop ();
  let r = Obs.Prof.report () in
  let pa = find_phase r "busy" in
  Alcotest.(check bool) "self is positive" true (pa.Obs.Prof.ps_self_s > 0.0);
  Alcotest.(check bool) "self bounded by wall" true
    (pa.Obs.Prof.ps_self_s <= r.Obs.Prof.r_wall_s +. eps);
  let cov = Obs.Prof.coverage r in
  Alcotest.(check bool) "coverage in [0,1]" true (cov >= 0.0 && cov <= 1.0)

let test_disabled_path_allocation_free () =
  Obs.Prof.set_enabled false;
  let a = Obs.Prof.phase "noop" and c = Obs.Prof.counter "noop" in
  (* Warm up so any lazy setup is behind us. *)
  for _ = 1 to 1_000 do
    Obs.Prof.enter a;
    Obs.Prof.incr c;
    Obs.Prof.leave a
  done;
  let w0 = Gc.minor_words () in
  for _ = 1 to 100_000 do
    Obs.Prof.enter a;
    Obs.Prof.incr c;
    Obs.Prof.leave a
  done;
  let dw = Gc.minor_words () -. w0 in
  Alcotest.(check bool)
    (Printf.sprintf "no allocation on the disabled path (%.0f words)" dw)
    true (dw = 0.0)

let test_wrap_disabled_is_identity () =
  Obs.Prof.set_enabled false;
  let a = Obs.Prof.phase "noop" in
  let k () = () in
  Alcotest.(check bool) "wrap returns the thunk unchanged when off" true
    (Obs.Prof.wrap a k == k)

(* Enabling the profiler must never change what the simulator does:
   it reads the wall clock but draws no randomness and schedules no
   events.  Fingerprint a full scenario run (walkthrough, timings,
   dataplane counters) with the profiler off and on, and require
   equality. *)
let fingerprint ~seed ~profile =
  if profile then Obs.Prof.start () else Obs.Prof.set_enabled false;
  Fun.protect ~finally:(fun () -> if profile then Obs.Prof.stop ())
  @@ fun () ->
  let s =
    Core.Scenario.build
      { Core.Scenario.default_config with
        Core.Scenario.seed;
        Core.Scenario.cp = Core.Scenario.Cp_pce Core.Pce_control.default_options
      }
  in
  let internet = Core.Scenario.internet s in
  let flow =
    Nettypes.Flow.create
      ~src:(Topology.Domain.host_eid internet.Topology.Builder.domains.(0) 0)
      ~dst:(Topology.Domain.host_eid internet.Topology.Builder.domains.(1) 0)
      ~src_port:1 ()
  in
  let walkthrough = Core.Scenario.walkthrough s in
  let c = Core.Scenario.open_connection s ~flow ~data_packets:2 () in
  Core.Scenario.run s;
  let counters = Lispdp.Dataplane.counters (Core.Scenario.dataplane s) in
  Printf.sprintf "%.12g %.12g %d %s"
    (Option.value ~default:(-1.0) c.Core.Scenario.dns_time)
    (Option.value ~default:(-1.0) (Core.Scenario.total_setup_time c))
    counters.Lispdp.Dataplane.dropped
    (Format.asprintf "%a" Obs.Event.pp_log (walkthrough ()))

let prop_profiling_preserves_output =
  QCheck.Test.make ~name:"profiler on/off: identical simulation output"
    ~count:8
    QCheck.(int_range 1 1_000)
    (fun seed ->
      String.equal
        (fingerprint ~seed ~profile:false)
        (fingerprint ~seed ~profile:true))

let () =
  Alcotest.run "prof"
    [
      ( "accounting",
        [
          Alcotest.test_case "nesting" `Quick test_nesting_accounting;
          Alcotest.test_case "recursion" `Quick test_recursion_counted_once;
          Alcotest.test_case "pause/resume" `Quick test_pause_resume;
          Alcotest.test_case "exception" `Quick test_exception_unwound;
          Alcotest.test_case "intervals + cap" `Quick test_intervals_and_cap;
        ] );
      ( "serialisation",
        [ Alcotest.test_case "BENCH.json v3 round-trip" `Quick
            test_json_round_trip ] );
      ( "runtime",
        [
          Alcotest.test_case "monotonic clock" `Quick
            test_monotonic_clock_sanity;
          Alcotest.test_case "disabled path allocation-free" `Quick
            test_disabled_path_allocation_free;
          Alcotest.test_case "wrap disabled = identity" `Quick
            test_wrap_disabled_is_identity;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_profiling_preserves_output ] );
    ]
