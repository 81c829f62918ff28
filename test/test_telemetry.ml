(* The telemetry plane: window rotation, Space-Saving error bounds,
   drop-cause labels, TE-balance math, the disabled path's zero-cost
   contract, and enabled-vs-disabled simulation identity. *)

let config ?(window_s = 1.0) ?(slots = 4) ?(topk = 8) () =
  { Netsim.Telemetry.window_s; slots; topk }

let start ?window_s ?slots ?topk ?(now = 0.0) () =
  Netsim.Telemetry.start ~config:(config ?window_s ?slots ?topk ()) ~now ()

(* ------------------------------------------------------------------ *)
(* Sliding-window counters                                             *)
(* ------------------------------------------------------------------ *)

let test_window_rotation () =
  start ();
  let feed ~now ~bytes =
    Netsim.Telemetry.touch ~now;
    Netsim.Telemetry.on_link ~link:0 ~dir:0 ~bytes
  in
  (* One packet per second for 10 s; ring holds 4 slots. *)
  for second = 0 to 9 do
    feed ~now:(float_of_int second +. 0.5) ~bytes:100
  done;
  let s = Netsim.Telemetry.link_stat ~link:0 ~dir:0 in
  Alcotest.(check int) "cumulative packets" 10 s.Netsim.Telemetry.st_pkts;
  Alcotest.(check int) "cumulative bytes" 1000 s.Netsim.Telemetry.st_bytes;
  Alcotest.(check int) "window packets = ring size" 4
    s.Netsim.Telemetry.st_win_pkts;
  Alcotest.(check int) "window bytes" 400 s.Netsim.Telemetry.st_win_bytes;
  (* Advancing the clock without traffic empties the window but not the
     cumulative counters. *)
  Netsim.Telemetry.touch ~now:100.0;
  let s = Netsim.Telemetry.link_stat ~link:0 ~dir:0 in
  Alcotest.(check int) "idle window drains" 0 s.Netsim.Telemetry.st_win_pkts;
  Alcotest.(check int) "cumulative survives" 10 s.Netsim.Telemetry.st_pkts;
  Netsim.Telemetry.stop ()

let test_series_ascending () =
  start ();
  List.iter
    (fun now ->
      Netsim.Telemetry.touch ~now;
      Netsim.Telemetry.on_link ~link:1 ~dir:1 ~bytes:10)
    [ 0.1; 1.1; 1.2; 3.7 ];
  let series = Netsim.Telemetry.link_series ~link:1 ~dir:1 in
  let slots = List.map (fun s -> s.Netsim.Telemetry.sl_slot) series in
  Alcotest.(check (list int)) "retained slots ascending" [ 0; 1; 3 ] slots;
  let pkts = List.map (fun s -> s.Netsim.Telemetry.sl_pkts) series in
  Alcotest.(check (list int)) "per-slot packets" [ 1; 2; 1 ] pkts;
  List.iter
    (fun s ->
      Alcotest.(check (float 1e-9))
        "slot start = slot * window"
        (float_of_int s.Netsim.Telemetry.sl_slot)
        s.Netsim.Telemetry.sl_start)
    series;
  Netsim.Telemetry.stop ()

(* ------------------------------------------------------------------ *)
(* Space-Saving sketch                                                 *)
(* ------------------------------------------------------------------ *)

(* A skewed stream over more keys than the sketch holds: every key with
   true frequency > total/cap must be monitored, estimates must bound
   the truth from above, and (estimate - error) from below. *)
let test_sketch_error_bounds () =
  let cap = 8 in
  let sketch = Netsim.Telemetry.Sketch.create ~cap in
  let true_counts = Hashtbl.create 64 in
  let observe key =
    Netsim.Telemetry.Sketch.observe sketch key;
    Hashtbl.replace true_counts key
      (1 + Option.value ~default:0 (Hashtbl.find_opt true_counts key))
  in
  (* 4 heavy keys, 40 light ones, deterministically interleaved. *)
  for round = 1 to 100 do
    for heavy = 0 to 3 do
      observe heavy
    done;
    observe (4 + (round mod 40))
  done;
  let total = Netsim.Telemetry.Sketch.total sketch in
  Alcotest.(check int) "total preserved" 500 total;
  let entries = Netsim.Telemetry.Sketch.entries sketch in
  Alcotest.(check bool) "at most cap entries" true
    (List.length entries <= cap);
  let threshold = total / cap in
  Hashtbl.iter
    (fun key count ->
      if count > threshold then
        Alcotest.(check bool)
          (Printf.sprintf "heavy key %d monitored" key)
          true
          (List.exists (fun (k, _, _) -> k = key) entries))
    true_counts;
  List.iter
    (fun (key, est, err) ->
      let truth = Option.value ~default:0 (Hashtbl.find_opt true_counts key) in
      Alcotest.(check bool)
        (Printf.sprintf "key %d: estimate >= truth" key)
        true (est >= truth);
      Alcotest.(check bool)
        (Printf.sprintf "key %d: estimate - error <= truth" key)
        true (est - err <= truth);
      Alcotest.(check bool)
        (Printf.sprintf "key %d: error <= total/cap" key)
        true (err <= threshold))
    entries;
  (* Descending estimated count. *)
  let counts = List.map (fun (_, c, _) -> c) entries in
  Alcotest.(check (list int)) "entries sorted" (List.sort (fun a b -> compare b a) counts) counts

let test_sketch_exact_under_capacity () =
  let sketch = Netsim.Telemetry.Sketch.create ~cap:16 in
  List.iter
    (fun (key, n) ->
      for _ = 1 to n do
        Netsim.Telemetry.Sketch.observe sketch key
      done)
    [ (1, 5); (2, 3); (3, 1) ];
  Alcotest.(check (list (triple int int int)))
    "exact counts, zero error when under capacity"
    [ (1, 5, 0); (2, 3, 0); (3, 1, 0) ]
    (Netsim.Telemetry.Sketch.entries sketch)

(* ------------------------------------------------------------------ *)
(* Drop causes                                                         *)
(* ------------------------------------------------------------------ *)

let test_drop_label_round_trip () =
  List.iter
    (fun cause ->
      let label = Netsim.Telemetry.drop_label cause in
      match Netsim.Telemetry.drop_cause_of_label label with
      | Some back ->
          Alcotest.(check bool)
            (Printf.sprintf "%s round-trips" label)
            true (back = cause)
      | None -> Alcotest.failf "label %s does not parse back" label)
    Netsim.Telemetry.all_drop_causes;
  let labels =
    List.map Netsim.Telemetry.drop_label Netsim.Telemetry.all_drop_causes
  in
  Alcotest.(check int) "labels unique"
    (List.length labels)
    (List.length (List.sort_uniq compare labels));
  Alcotest.(check (option reject)) "unknown label rejected" None
    (Netsim.Telemetry.drop_cause_of_label "no-such-cause")

(* The labels are a wire format: traces, JSONL events, BENCH.json and
   the baseline differ use them, so they are pinned byte-for-byte.
   Growing the enum appends — it never renames or reorders. *)
let test_drop_labels_pinned () =
  Alcotest.(check (list string)) "stable label list"
    [ "no-route"; "no-such-eid"; "no-receiver"; "no-such-rloc";
      "rloc-unreachable"; "post-resolution-miss"; "mapping-resolution-drop";
      "resolution-abandoned"; "resolution-timeout";
      "resolution-queue-overflow"; "nerd-database-miss"; "no-such-eid-domain";
      "pce-no-mapping-forward"; "pce-no-mapping-reverse"; "cp-message-loss";
      "outage-failure"; "spoofed-reply-rejected"; "replayed-reply-rejected";
      "glean-admission-rejected" ]
    (List.map Netsim.Telemetry.drop_label Netsim.Telemetry.all_drop_causes)

let test_drop_attribution () =
  start ();
  Netsim.Telemetry.on_drop ~node:3 Netsim.Telemetry.No_route;
  Netsim.Telemetry.on_drop ~node:3 Netsim.Telemetry.No_route;
  Netsim.Telemetry.on_drop ~node:5 Netsim.Telemetry.Resolution_timeout;
  Netsim.Telemetry.on_drop ~node:(-1) Netsim.Telemetry.Cp_message_loss;
  Alcotest.(check int) "total drops" 4 (Netsim.Telemetry.dropped ());
  (match Netsim.Telemetry.drop_totals () with
  | (first_cause, 2) :: _ ->
      Alcotest.(check string) "heaviest cause first" "no-route"
        (Netsim.Telemetry.drop_label first_cause)
  | _ -> Alcotest.fail "expected no-route x2 first");
  let by_node = Netsim.Telemetry.drops_by_node () in
  Alcotest.(check (list int)) "nodes ascending, unattributed first"
    [ -1; 3; 5 ]
    (List.map fst by_node);
  Netsim.Telemetry.stop ()

(* ------------------------------------------------------------------ *)
(* TE balance                                                          *)
(* ------------------------------------------------------------------ *)

let test_balance_metrics () =
  start ();
  (* Two providers; links 10 and 11, egress a->b (dir 0). *)
  Netsim.Telemetry.register_uplink ~link:10 ~provider:0 ~egress_dir:0;
  Netsim.Telemetry.register_uplink ~link:11 ~provider:1 ~egress_dir:0;
  Netsim.Telemetry.touch ~now:0.5;
  (* Inbound (dir 1): 300 bytes via provider 0, 100 via provider 1. *)
  Netsim.Telemetry.on_link ~link:10 ~dir:1 ~bytes:300;
  Netsim.Telemetry.on_link ~link:11 ~dir:1 ~bytes:100;
  (* Outbound: perfectly balanced. *)
  Netsim.Telemetry.on_link ~link:10 ~dir:0 ~bytes:200;
  Netsim.Telemetry.on_link ~link:11 ~dir:0 ~bytes:200;
  let b = Netsim.Telemetry.balance ~window:false () in
  Alcotest.(check (float 1e-9)) "in share p0" 0.75 b.Netsim.Telemetry.bal_in_share.(0);
  Alcotest.(check (float 1e-9)) "in share p1" 0.25 b.Netsim.Telemetry.bal_in_share.(1);
  Alcotest.(check (float 1e-9)) "jain out = 1 (balanced)" 1.0
    b.Netsim.Telemetry.bal_jain_out;
  Alcotest.(check (float 1e-9)) "ratio in = 3" 3.0
    b.Netsim.Telemetry.bal_ratio_in;
  Alcotest.(check (float 1e-9)) "jain in"
    (Netsim.Stats.jain_index [| 300.0; 100.0 |])
    b.Netsim.Telemetry.bal_jain_in;
  let p0_in = Netsim.Telemetry.provider_stat ~provider:0 `In in
  Alcotest.(check int) "provider store fed" 300
    p0_in.Netsim.Telemetry.st_bytes;
  Netsim.Telemetry.stop ()

(* ------------------------------------------------------------------ *)
(* Disabled path                                                       *)
(* ------------------------------------------------------------------ *)

let test_disabled_path_allocation_free () =
  Netsim.Telemetry.stop ();
  (* Constant [now]: boxing a fresh float in the test loop would be
     charged to the hooks. *)
  let cycle i =
    Netsim.Telemetry.touch ~now:42.0;
    Netsim.Telemetry.on_link ~link:3 ~dir:0 ~bytes:1400;
    Netsim.Telemetry.on_node_tx ~node:7 ~bytes:1400;
    Netsim.Telemetry.on_node_rx ~node:8 ~bytes:1400;
    Netsim.Telemetry.on_node_fwd ~node:9 ~bytes:1400;
    Netsim.Telemetry.on_flow_packet ~eid:i ~flow:i;
    Netsim.Telemetry.on_drop ~node:7 Netsim.Telemetry.No_route;
    Netsim.Telemetry.on_select ~provider:2 ~inbound:true
  in
  for i = 1 to 1_000 do cycle i done;
  let w0 = Gc.minor_words () in
  for i = 1 to 100_000 do cycle i done;
  let dw = Gc.minor_words () -. w0 in
  Alcotest.(check bool)
    (Printf.sprintf "no allocation on the disabled path (%.0f words)" dw)
    true (dw = 0.0)

(* ------------------------------------------------------------------ *)
(* Enabled telemetry never changes the simulation                      *)
(* ------------------------------------------------------------------ *)

(* The plane observes simulated quantities against simulated time and
   never schedules events or draws randomness: a full scenario run must
   produce byte-identical output with it off and on. *)
let fingerprint ~seed ~telemetry =
  let s =
    Core.Scenario.build
      { Core.Scenario.default_config with
        Core.Scenario.seed;
        Core.Scenario.cp = Core.Scenario.Cp_pce Core.Pce_control.default_options;
        Core.Scenario.telemetry =
          (if telemetry then Some (config ~slots:8 ()) else None) }
  in
  Fun.protect ~finally:Netsim.Telemetry.stop @@ fun () ->
  let internet = Core.Scenario.internet s in
  let flow =
    Nettypes.Flow.create
      ~src:(Topology.Domain.host_eid internet.Topology.Builder.domains.(0) 0)
      ~dst:(Topology.Domain.host_eid internet.Topology.Builder.domains.(1) 0)
      ~src_port:1 ()
  in
  let c = Core.Scenario.open_connection s ~flow ~data_packets:2 () in
  Core.Scenario.run s;
  let counters = Lispdp.Dataplane.counters (Core.Scenario.dataplane s) in
  Printf.sprintf "%.12g %.12g %d %d %s"
    (Option.value ~default:(-1.0) c.Core.Scenario.dns_time)
    (Option.value ~default:(-1.0) (Core.Scenario.total_setup_time c))
    counters.Lispdp.Dataplane.dropped counters.Lispdp.Dataplane.delivered
    (Format.asprintf "%a" Netsim.Trace.pp (Core.Scenario.trace s))

let prop_telemetry_preserves_output =
  QCheck.Test.make ~name:"telemetry on/off: identical simulation output"
    ~count:8
    QCheck.(int_range 1 1_000)
    (fun seed ->
      String.equal
        (fingerprint ~seed ~telemetry:false)
        (fingerprint ~seed ~telemetry:true))

(* The adversary layer follows the same opt-in contract: compiling it
   in with every rate at zero (and the all-off auth profile) must not
   shift a single event or RNG draw relative to no profile at all. *)
let fingerprint_pull ~seed ~armed =
  let s =
    Core.Scenario.build
      { Core.Scenario.default_config with
        Core.Scenario.seed;
        Core.Scenario.cp = Core.Scenario.Cp_pull_queue 8;
        Core.Scenario.attack =
          (if armed then Some Core.Scenario.default_attack else None);
        Core.Scenario.auth =
          (if armed then Some Core.Scenario.default_auth else None) }
  in
  let internet = Core.Scenario.internet s in
  let flow =
    Nettypes.Flow.create
      ~src:(Topology.Domain.host_eid internet.Topology.Builder.domains.(0) 0)
      ~dst:(Topology.Domain.host_eid internet.Topology.Builder.domains.(1) 0)
      ~src_port:1 ()
  in
  let c = Core.Scenario.open_connection s ~flow ~data_packets:2 () in
  Core.Scenario.run s;
  let counters = Lispdp.Dataplane.counters (Core.Scenario.dataplane s) in
  Printf.sprintf "%.12g %.12g %d %d %s"
    (Option.value ~default:(-1.0) c.Core.Scenario.dns_time)
    (Option.value ~default:(-1.0) (Core.Scenario.total_setup_time c))
    counters.Lispdp.Dataplane.dropped counters.Lispdp.Dataplane.delivered
    (Format.asprintf "%a" Netsim.Trace.pp (Core.Scenario.trace s))

let prop_disarmed_adversary_preserves_output =
  QCheck.Test.make
    ~name:"zero-rate adversary profile: identical simulation output" ~count:8
    QCheck.(int_range 1 1_000)
    (fun seed ->
      String.equal
        (fingerprint_pull ~seed ~armed:false)
        (fingerprint_pull ~seed ~armed:true))

(* With telemetry on, the dataplane's drop bookkeeping and the typed
   per-(node,cause) counters must agree cause-for-cause. *)
let test_scenario_drop_agreement () =
  let s =
    Core.Scenario.build
      { Core.Scenario.default_config with
        Core.Scenario.cp = Core.Scenario.Cp_pull_drop;
        Core.Scenario.telemetry = Some (config ()) }
  in
  Fun.protect ~finally:Netsim.Telemetry.stop @@ fun () ->
  let internet = Core.Scenario.internet s in
  let flow =
    Nettypes.Flow.create
      ~src:(Topology.Domain.host_eid internet.Topology.Builder.domains.(0) 0)
      ~dst:(Topology.Domain.host_eid internet.Topology.Builder.domains.(1) 0)
      ~src_port:1 ()
  in
  ignore (Core.Scenario.open_connection s ~flow ~data_packets:4 ());
  Core.Scenario.run s;
  let legacy = Lispdp.Dataplane.drop_causes (Core.Scenario.dataplane s) in
  let typed =
    List.map
      (fun (cause, n) -> (Netsim.Telemetry.drop_label cause, n))
      (Netsim.Telemetry.drop_totals ())
  in
  Alcotest.(check (list (pair string int)))
    "legacy string table and typed counters agree" legacy typed

(* ------------------------------------------------------------------ *)
(* Telemetry and security rows: BENCH.json round-trip                  *)
(* ------------------------------------------------------------------ *)

(* Record [rows] under [block] as the TE1 / SEC experiments do, emit the
   block as the runner does, and parse the JSON text back. *)
let check_block_round_trip block rows =
  Experiments.Bench_row.reset ();
  List.iter (Experiments.Bench_row.record block) rows;
  let recorded = Experiments.Bench_row.blocks () in
  Experiments.Bench_row.reset ();
  Alcotest.(check (list string)) "one block" [ block ] (List.map fst recorded);
  let rows_back = List.assoc block recorded in
  let json = Obs.Json.List (List.map Experiments.Bench_row.to_json rows_back) in
  match Obs.Json.of_string (Obs.Json.to_string json) with
  | Error msg -> Alcotest.failf "round-trip parse failed: %s" msg
  | Ok (Obs.Json.List items) ->
      Alcotest.(check bool) "rows survive the JSON round-trip" true
        (List.map Experiments.Bench_row.of_json items
        = List.map Option.some rows)
  | Ok _ -> Alcotest.fail "block is not a JSON list"

let test_record_round_trip () =
  let f x = Obs.Json.Float x in
  let shares l = Obs.Json.List (List.map f l) in
  check_block_round_trip "telemetry"
    [ { Experiments.Bench_row.run = "pce/s21"; ok = true;
        fields =
          [ ("cp", Obs.Json.String "pce"); ("providers", Obs.Json.Int 4);
            ("in_share", shares [ 0.30; 0.23; 0.23; 0.24 ]);
            ("jain_in", f 0.986); ("jain_out", f 0.805);
            ("ratio_in", f 1.322); ("drops", Obs.Json.Int 0);
            ("threshold", f 0.8) ] };
      (* ratio_in omitted: the least-loaded provider carried nothing. *)
      { Experiments.Bench_row.run = "symmetric/s21"; ok = true;
        fields =
          [ ("cp", Obs.Json.String "symmetric"); ("providers", Obs.Json.Int 4);
            ("in_share", shares [ 0.53; 0.15; 0.15; 0.17 ]);
            ("jain_in", f 0.698); ("jain_out", f 0.821);
            ("drops", Obs.Json.Int 3); ("threshold", f 0.0) ] } ]

let test_security_record_round_trip () =
  let security ~run ~cp ~attempted ~accepted ~success ~gleaned
      ~glean_rejected ~pollution ~setup_mean ~gate =
    { Experiments.Bench_row.run; ok = true;
      fields =
        [ ("cp", Obs.Json.String cp); ("attempted", Obs.Json.Int attempted);
          ("accepted", Obs.Json.Int accepted);
          ("success", Obs.Json.Float success);
          ("gleaned", Obs.Json.Int gleaned);
          ("glean_rejected", Obs.Json.Int glean_rejected);
          ("pollution", Obs.Json.Float pollution);
          ("setup_mean", Obs.Json.Float setup_mean);
          ("gate", Obs.Json.String gate) ] }
  in
  check_block_round_trip "security"
    [ security ~run:"pull/s41" ~cp:"pull-queue" ~attempted:210 ~accepted:210
        ~success:1.0 ~gleaned:12 ~glean_rejected:0 ~pollution:0.25
        ~setup_mean:0.35129 ~gate:"success >= 0.90";
      security ~run:"flood-cap/s43" ~cp:"pull-drop" ~attempted:13075
        ~accepted:12 ~success:0.0 ~gleaned:16 ~glean_rejected:15298
        ~pollution:0.353 ~setup_mean:0.21993 ~gate:"-" ]

(* json_snapshot must always be printable and re-parseable, including
   the degenerate zero-traffic balance (infinite ratios become null). *)
let test_json_snapshot_well_formed () =
  start ();
  Netsim.Telemetry.register_uplink ~link:0 ~provider:0 ~egress_dir:0;
  Netsim.Telemetry.touch ~now:0.2;
  Netsim.Telemetry.on_link ~link:0 ~dir:1 ~bytes:100;
  Netsim.Telemetry.on_drop ~node:2 Netsim.Telemetry.No_receiver;
  let text = Obs.Json.to_string (Obs.Telemetry.json_snapshot ~series:true ()) in
  (match Obs.Json.of_string text with
  | Error msg -> Alcotest.failf "snapshot does not re-parse: %s" msg
  | Ok json ->
      Alcotest.(check (option int)) "drop count present" (Some 1)
        (Option.bind (Obs.Json.member "dropped" json) Obs.Json.to_int_opt));
  Netsim.Telemetry.stop ()

let () =
  Alcotest.run "telemetry"
    [
      ( "windows",
        [
          Alcotest.test_case "rotation" `Quick test_window_rotation;
          Alcotest.test_case "series ascending" `Quick test_series_ascending;
        ] );
      ( "sketch",
        [
          Alcotest.test_case "error bounds" `Quick test_sketch_error_bounds;
          Alcotest.test_case "exact under capacity" `Quick
            test_sketch_exact_under_capacity;
        ] );
      ( "drops",
        [
          Alcotest.test_case "label round-trip" `Quick
            test_drop_label_round_trip;
          Alcotest.test_case "labels pinned" `Quick test_drop_labels_pinned;
          Alcotest.test_case "per-node attribution" `Quick
            test_drop_attribution;
          Alcotest.test_case "scenario agreement" `Quick
            test_scenario_drop_agreement;
        ] );
      ( "balance",
        [ Alcotest.test_case "TE metrics" `Quick test_balance_metrics ] );
      ( "runtime",
        [
          Alcotest.test_case "disabled path allocation-free" `Quick
            test_disabled_path_allocation_free;
        ] );
      ( "serialisation",
        [
          Alcotest.test_case "record round-trip" `Quick test_record_round_trip;
          Alcotest.test_case "security record round-trip" `Quick
            test_security_record_round_trip;
          Alcotest.test_case "snapshot well-formed" `Quick
            test_json_snapshot_well_formed;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_telemetry_preserves_output;
            prop_disarmed_adversary_preserves_output ] );
    ]
