(* The benchmark's own checks, on every workload at a reduced flow
   count: runs are deterministic, the conservation laws hold, the
   profiler does not change the simulation, a wrong expected digest is
   caught, and the metrics lispbench prints are the ones
   BENCHMARK.json declares. *)

open Lispbench_lib

let flows = 300
let seed = 1

type runs = {
  first : Workloads.run;
  again : Workloads.run;
  traced : Workloads.run;
  report : Obs.Prof.report;
}

let runs w =
  lazy
    (let first = Workloads.run ~flows w ~seed in
     let again = Workloads.run ~flows w ~seed in
     Obs.Prof.start ();
     let traced = Workloads.run ~flows w ~seed in
     Obs.Prof.stop ();
     { first; again; traced; report = Obs.Prof.report () })

let digest r =
  let _, d, _ = Verify.check r in
  d

let check_digest msg a b =
  if not (Verify.digest_equal a b) then
    Alcotest.failf "%s: %s <> %s" msg
      (Obs.Json.to_string (Verify.json_of_digest a))
      (Obs.Json.to_string (Verify.json_of_digest b))

let workload_cases (w : Workloads.t) =
  let runs = runs w in
  let case name f = Alcotest.test_case name `Quick (fun () -> f (Lazy.force runs)) in
  ( w.Workloads.name,
    [ case "same seed, same digest" (fun r ->
          check_digest "rerun" (digest r.first) (digest r.again));
      case "conservation laws hold" (fun r ->
          let _, _, problems = Verify.check r.first in
          Alcotest.(check (list string)) "violations" [] problems;
          Alcotest.(check int) "flows opened" flows r.first.Workloads.opened);
      case "traced run, same digest" (fun r ->
          check_digest "traced" (digest r.first) (digest r.traced));
      case "corrupted expectation fails" (fun r ->
          let d = digest r.first in
          List.iter
            (fun wrong ->
              let _, _, problems = Verify.check ~expected:wrong r.first in
              Alcotest.(check bool) "mismatch reported" true (problems <> []))
            [ { d with Verify.events = d.Verify.events + 1 };
              { d with Verify.setup_p99 = d.Verify.setup_p99 +. 1e-6 } ];
          let _, _, problems = Verify.check ~expected:d r.first in
          Alcotest.(check (list string)) "own digest accepted" [] problems);
      case "expected.json covers seeds 1-3" (fun _ ->
          List.iter
            (fun seed ->
              Alcotest.(check bool)
                (Printf.sprintf "seed %d" seed)
                true
                (Option.is_some (Verify.expected w.Workloads.name ~seed)))
            [ 1; 2; 3 ]) ] )

(* Name and unit of every metric in one BENCHMARK.json list. *)
let declared key =
  let text = In_channel.with_open_text "../../BENCHMARK.json" In_channel.input_all in
  match Obs.Json.of_string text with
  | Error e -> Alcotest.fail e
  | Ok j -> (
      match Obs.Json.member key j with
      | Some (Obs.Json.List metrics) ->
          List.map
            (fun m ->
              let field k =
                Option.get (Option.bind (Obs.Json.member k m) Obs.Json.to_string_opt)
              in
              (field "name", field "unit"))
            metrics
      | _ -> Alcotest.failf "BENCHMARK.json: no %s list" key)

let printed metrics = List.map (fun m -> (m.Report.name, m.Report.unit)) metrics

let declaration_cases =
  let w = Option.get (Workloads.find "nerd-bulk") in
  [ Alcotest.test_case "end-to-end metrics match BENCHMARK.json" `Quick (fun () ->
        let one = Netsim.Stats.Samples.create () in
        Netsim.Stats.Samples.add one 1.0;
        Alcotest.(check (list (pair string string)))
          "end_to_end" (declared "end_to_end")
          (printed (Report.end_to_end ~flows_per_s:one ~setups:one ~rss_kb:1)));
    Alcotest.test_case "per-layer metrics match BENCHMARK.json" `Quick (fun () ->
        let r = Lazy.force (runs w) in
        let tally, _, _ = Verify.check r.first in
        let metrics =
          Report.counters r.first tally
          @ Report.phases r.report r.traced ~untraced_fps:1.0
          @ Probes.measure { w with Workloads.flows } ~seed
        in
        Alcotest.(check (list (pair string string)))
          "per_layer" (declared "per_layer") (printed metrics)) ]

let () =
  Alcotest.run "lispbench"
    (List.map workload_cases Workloads.all @ [ ("benchmark.json", declaration_cases) ])
