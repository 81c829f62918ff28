(* The observability layer: typed events and their ordering, flow-id
   correlation across DNS / map resolution / the data plane, the
   disabled-path no-op guarantee, the metrics registry, the sampler and
   the JSONL round-trip. *)

open Core
open Nettypes

let addr = Ipv4.addr_of_string

(* ------------------------------------------------------------------ *)
(* Hub basics                                                          *)
(* ------------------------------------------------------------------ *)

(* Hubs on a hand-driven clock: [emit_at] sets the time, then emits. *)
let now = ref 0.0
let manual_hub ?(enabled = false) () =
  let hub = Obs.Hub.create ~clock:(fun () -> !now) in
  Obs.Hub.set_enabled hub enabled;
  hub

let emit_at hub time ~actor ?flow kind =
  now := time;
  Obs.Hub.emit hub ~actor ?flow kind

let test_hub_disabled_is_noop () =
  let hub = manual_hub () in
  let sink, events = Obs.Hub.memory_sink () in
  Obs.Hub.add_sink hub sink;
  emit_at hub 1.0 ~actor:"a" (Obs.Event.Note "dropped");
  Alcotest.(check int) "disabled hub records nothing" 0
    (List.length (events ()));
  Obs.Hub.set_enabled hub true;
  emit_at hub 2.0 ~actor:"a" (Obs.Event.Note "kept");
  Obs.Hub.set_enabled hub false;
  emit_at hub 3.0 ~actor:"a" (Obs.Event.Note "dropped again");
  Alcotest.(check int) "only the enabled emit lands" 1
    (List.length (events ()))

(* The disabled path allocates nothing: the same 100k-emit cycle the
   micro-benchmark reports, guarded and unguarded sites alike. *)
let test_hub_disabled_allocation_free () =
  let dw = Experiments.Bench_micro.hub_disabled_alloc_words () in
  Alcotest.(check bool)
    (Printf.sprintf "no allocation on the disabled path (%.0f words)" dw)
    true (dw = 0.0)

let test_hub_sink_order_and_event_order () =
  let hub = manual_hub ~enabled:true () in
  let seen = ref [] in
  Obs.Hub.add_sink hub (fun e -> seen := ("first", e.Obs.Event.time) :: !seen);
  Obs.Hub.add_sink hub (fun e -> seen := ("second", e.Obs.Event.time) :: !seen);
  emit_at hub 1.0 ~actor:"a" (Obs.Event.Note "x");
  emit_at hub 2.0 ~actor:"a" (Obs.Event.Note "y");
  Alcotest.(check (list (pair string (float 0.0))))
    "sinks run in registration order, events in emission order"
    [ ("first", 1.0); ("second", 1.0); ("first", 2.0); ("second", 2.0) ]
    (List.rev !seen)

(* The walkthrough is a memory sink printed by [Event.pp_log]: one line
   per event, the time in a fixed-width field, actors padded to the
   longest, then [Event.describe]'s text. *)
let test_walkthrough_printer_aligns_actors () =
  let hub = manual_hub ~enabled:true () in
  let sink, events = Obs.Hub.memory_sink () in
  Obs.Hub.add_sink hub sink;
  emit_at hub 0.5 ~actor:"dp"
    (Obs.Event.Cache_miss { eid = addr "100.0.1.1" });
  emit_at hub 12.25 ~actor:"as0-itr"
    (Obs.Event.Packet_drop { cause = "no-route" });
  Alcotest.(check string) "aligned lines"
    "t=  0.500000s  dp       map-cache miss 100.0.1.1\n\
     t= 12.250000s  as0-itr  packet drop (no-route)\n"
    (Format.asprintf "%a" Obs.Event.pp_log (events ()));
  Alcotest.(check string) "nothing to print" ""
    (Format.asprintf "%a" Obs.Event.pp_log [])

(* ------------------------------------------------------------------ *)
(* Flow ids                                                            *)
(* ------------------------------------------------------------------ *)

let test_flow_id_direction_insensitive () =
  let flow =
    Flow.create ~src:(addr "100.0.0.1") ~dst:(addr "100.0.1.1")
      ~src_port:5000 ()
  in
  Alcotest.(check int) "forward and reverse share one id"
    (Obs.Event.flow_id flow)
    (Obs.Event.flow_id (Flow.reverse flow));
  let other =
    Flow.create ~src:(addr "100.0.0.1") ~dst:(addr "100.0.1.1")
      ~src_port:5001 ()
  in
  Alcotest.(check bool) "different connections get different ids" true
    (Obs.Event.flow_id flow <> Obs.Event.flow_id other)

(* The tentpole correlation property: one connection's DNS resolution,
   map-request/map-reply exchange and first tunneled packet all carry
   the same flow id. *)
let test_flow_correlation_across_layers () =
  let s =
    Scenario.build
      { Scenario.default_config with Scenario.cp = Scenario.Cp_pull_drop }
  in
  let hub = Scenario.obs s in
  Obs.Hub.set_enabled hub true;
  let sink, events = Obs.Hub.memory_sink () in
  Obs.Hub.add_sink hub sink;
  let internet = Scenario.internet s in
  let flow =
    Flow.create
      ~src:(Topology.Domain.host_eid internet.Topology.Builder.domains.(0) 0)
      ~dst:(Topology.Domain.host_eid internet.Topology.Builder.domains.(1) 0)
      ~src_port:7100 ()
  in
  ignore (Scenario.open_connection s ~flow ~data_packets:2 ());
  Scenario.run s;
  let id = Obs.Event.flow_id flow in
  let with_kind p =
    List.filter
      (fun e -> p e.Obs.Event.kind && e.Obs.Event.flow = Some id)
      (events ())
  in
  let count name p =
    Alcotest.(check bool)
      (name ^ " events carry the connection's flow id")
      true
      (with_kind p <> [])
  in
  count "dns_query" (function Obs.Event.Dns_query _ -> true | _ -> false);
  count "dns_reply" (function Obs.Event.Dns_reply _ -> true | _ -> false);
  count "map_request" (function Obs.Event.Map_request _ -> true | _ -> false);
  count "map_reply" (function Obs.Event.Map_reply _ -> true | _ -> false);
  count "cache_miss" (function Obs.Event.Cache_miss _ -> true | _ -> false);
  count "encap" (function Obs.Event.Encap _ -> true | _ -> false);
  count "decap" (function Obs.Event.Decap _ -> true | _ -> false);
  (* And they appear in causal order: query before request before the
     first encap. *)
  let first p =
    match with_kind p with
    | e :: _ -> e.Obs.Event.time
    | [] -> Alcotest.fail "missing event"
  in
  let t_query =
    first (function Obs.Event.Dns_query _ -> true | _ -> false)
  in
  let t_request =
    first (function Obs.Event.Map_request _ -> true | _ -> false)
  in
  let t_encap = first (function Obs.Event.Encap _ -> true | _ -> false) in
  Alcotest.(check bool) "DNS query precedes map-request" true
    (t_query <= t_request);
  Alcotest.(check bool) "map-request precedes first encap" true
    (t_request <= t_encap)

let test_disabled_hub_emits_nothing_in_scenario () =
  let s = Scenario.build Scenario.default_config in
  let sink, events = Obs.Hub.memory_sink () in
  Obs.Hub.add_sink (Scenario.obs s) sink;
  let internet = Scenario.internet s in
  let flow =
    Flow.create
      ~src:(Topology.Domain.host_eid internet.Topology.Builder.domains.(0) 0)
      ~dst:(Topology.Domain.host_eid internet.Topology.Builder.domains.(1) 0)
      ~src_port:7101 ()
  in
  ignore (Scenario.open_connection s ~flow ~data_packets:2 ());
  Scenario.run s;
  Alcotest.(check int) "hub disabled by default: no events" 0
    (List.length (events ()))

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)
(* ------------------------------------------------------------------ *)

let test_registry_snapshot () =
  let r = Obs.Registry.create () in
  Obs.Registry.register_gauge r "depth" (fun () -> 2.5);
  Obs.Registry.register_many r "drop" (fun () ->
      [ ("no-route", 3.0); ("ttl", 1.0) ]);
  let h = Obs.Registry.histogram r "latency" in
  Obs.Registry.observe h 0.1;
  Obs.Registry.observe h 0.3;
  let snapshot = Obs.Registry.snapshot r in
  Alcotest.(check (list string)) "sorted names"
    [ "depth"; "drop.no-route"; "drop.ttl"; "latency" ]
    (List.map fst snapshot);
  (match List.assoc "latency" snapshot with
  | Obs.Registry.Histogram summary ->
      Alcotest.(check int) "histogram count" 2 summary.Obs.Registry.hist_count;
      Alcotest.(check (float 1e-9)) "histogram mean" 0.2
        summary.Obs.Registry.hist_mean
  | _ -> Alcotest.fail "latency should be a histogram");
  Alcotest.(check (float 1e-9)) "gauge sampled lazily" 2.5
    (List.assoc "depth" (Obs.Registry.sample r));
  Obs.Registry.observe (Obs.Registry.histogram r "latency") 0.2;
  Alcotest.(check (float 0.0)) "same histogram handle on re-request" 3.0
    (List.assoc "latency" (Obs.Registry.sample r));
  Alcotest.check_raises "duplicate gauge name rejected"
    (Invalid_argument "Obs.Registry: duplicate metric \"depth\"")
    (fun () -> Obs.Registry.register_gauge r "depth" (fun () -> 0.0))

let test_scenario_registry_tracks_run () =
  let s, _ =
    let s = Scenario.build Scenario.default_config in
    let internet = Scenario.internet s in
    let flow =
      Flow.create
        ~src:(Topology.Domain.host_eid internet.Topology.Builder.domains.(0) 0)
        ~dst:(Topology.Domain.host_eid internet.Topology.Builder.domains.(1) 0)
        ~src_port:7102 ()
    in
    let c = Scenario.open_connection s ~flow ~data_packets:3 () in
    Scenario.run s;
    (s, c)
  in
  let sample = Obs.Registry.sample (Scenario.obs_registry s) in
  let value name =
    match List.assoc_opt name sample with
    | Some v -> v
    | None -> Alcotest.failf "metric %s missing from scenario registry" name
  in
  let counters = Lispdp.Dataplane.counters (Scenario.dataplane s) in
  Alcotest.(check (float 0.0)) "dp.delivered mirrors the live counter"
    (float_of_int counters.Lispdp.Dataplane.delivered)
    (value "dp.delivered");
  Alcotest.(check bool) "engine processed events" true
    (value "engine.events_processed" > 0.0);
  Alcotest.(check (float 0.0)) "engine drained" 0.0 (value "engine.pending");
  Alcotest.(check (float 0.0)) "one DNS resolution measured" 1.0
    (value "conn.dns_time");
  Alcotest.(check (float 0.0)) "one setup time measured" 1.0
    (value "conn.setup_time");
  Alcotest.(check (float 0.0)) "dns.client_queries" 1.0
    (value "dns.client_queries")

(* ------------------------------------------------------------------ *)
(* Sampler                                                             *)
(* ------------------------------------------------------------------ *)

let test_sampler_buckets_and_finalise () =
  let r = Obs.Registry.create () in
  let n = ref 0 in
  Obs.Registry.register_gauge r "n" (fun () -> float_of_int !n);
  let sampler = Obs.Sampler.create ~interval:1.0 ~registry:r () in
  n := 1;
  Obs.Sampler.tick sampler ~now:0.0;
  n := 11;
  Obs.Sampler.tick sampler ~now:2.5;
  Obs.Sampler.finalise sampler ~now:2.7;
  let series = Obs.Sampler.series sampler "n" in
  Alcotest.(check int) "rows at 0, 1, 2 and the closing sample" 4
    (List.length series);
  Alcotest.(check (list (float 0.0))) "sample times"
    [ 0.0; 1.0; 2.0; 2.7 ]
    (List.map fst series);
  (* Ticks at 1.0 and 2.0 both observe the state at tick time (the
     sampler fires catching-up buckets at once). *)
  Alcotest.(check (list (float 0.0))) "sampled values"
    [ 1.0; 11.0; 11.0; 11.0 ]
    (List.map snd series);
  Obs.Sampler.finalise sampler ~now:2.7;
  Alcotest.(check int) "finalise is idempotent at the same instant" 4
    (Obs.Sampler.row_count sampler)

(* Regression: boundaries are n * interval, not repeated addition.
   0.1 added 1000 times is 99.9999999999986, which used to shift every
   late sample one ulp-cluster early and desynchronise workers. *)
let test_sampler_no_interval_drift () =
  let r = Obs.Registry.create () in
  Obs.Registry.register_gauge r "n" (fun () -> 0.0);
  let sampler = Obs.Sampler.create ~interval:0.1 ~registry:r () in
  Obs.Sampler.tick sampler ~now:100.0;
  let times = List.map (fun row -> row.Obs.Sampler.at) (Obs.Sampler.rows sampler) in
  Alcotest.(check int) "1001 aligned rows" 1001 (List.length times);
  Alcotest.(check (float 0.0)) "row 1000 sits exactly on t=100" 100.0
    (List.nth times 1000);
  List.iteri
    (fun n at ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "row %d on the grid" n)
        (float_of_int n *. 0.1) at)
    times

(* ------------------------------------------------------------------ *)
(* JSON round-trip                                                     *)
(* ------------------------------------------------------------------ *)

let sample_tuple =
  { Mapping.src_eid = addr "100.0.0.1"; dst_eid = addr "100.0.1.1";
    src_rloc = addr "10.0.0.1"; dst_rloc = addr "12.0.0.1" }

let sample_events =
  [ { Obs.Event.time = 0.1; actor = "as0-h0"; flow = Some 42;
      kind = Obs.Event.Dns_query { qname = "h0.as1.net." } };
    { Obs.Event.time = 0.2; actor = "as0-h0"; flow = Some 42;
      kind = Obs.Event.Dns_reply { qname = "h0.as1.net."; answered = true } };
    { Obs.Event.time = 0.3; actor = "as0-itr"; flow = None;
      kind = Obs.Event.Map_request { eid = addr "100.0.1.0" } };
    { Obs.Event.time = 0.4; actor = "as0-itr"; flow = None;
      kind = Obs.Event.Map_reply { eid = addr "100.0.1.0" } };
    { Obs.Event.time = 0.5; actor = "as0-itr"; flow = Some 42;
      kind = Obs.Event.Cache_hit { eid = addr "100.0.1.1" } };
    { Obs.Event.time = 0.6; actor = "as0-itr"; flow = Some 42;
      kind = Obs.Event.Cache_miss { eid = addr "100.0.1.1" } };
    { Obs.Event.time = 0.7; actor = "as0-itr"; flow = None;
      kind =
        Obs.Event.Cache_evict { prefix = Ipv4.prefix_of_string "100.0.1.0/24" } };
    { Obs.Event.time = 0.8; actor = "as1-pce"; flow = None;
      kind = Obs.Event.Mapping_push { targets = 2 } };
    { Obs.Event.time = 0.9; actor = "as0-itr"; flow = Some 42;
      kind = Obs.Event.Packet_drop { cause = "mapping-resolution-drop" } };
    { Obs.Event.time = 1.0; actor = "as0-itr"; flow = Some 42;
      kind =
        Obs.Event.Encap
          { outer_src = addr "10.0.0.1"; outer_dst = addr "12.0.0.1" } };
    { Obs.Event.time = 1.1; actor = "as1-etr"; flow = Some 42;
      kind = Obs.Event.Decap { outer_src = addr "10.0.0.1" } };
    { Obs.Event.time = 1.2; actor = "as0-pce"; flow = Some 42;
      kind = Obs.Event.Irc_decision { rloc = addr "10.0.0.1" } };
    { Obs.Event.time = 1.3; actor = "as0-border"; flow = None;
      kind = Obs.Event.Link_down { rloc = addr "10.0.0.1" } };
    { Obs.Event.time = 1.4; actor = "as0-border"; flow = None;
      kind = Obs.Event.Link_up { rloc = addr "10.0.0.1" } };
    { Obs.Event.time = 1.5; actor = "as0-itr"; flow = Some 42;
      kind = Obs.Event.Cp_loss { message = "map-request" } };
    { Obs.Event.time = 1.6; actor = "as0-itr"; flow = Some 42;
      kind =
        Obs.Event.Cp_retry
          { eid = addr "100.0.1.0"; attempt = 2; message = "map-request" } };
    { Obs.Event.time = 1.7; actor = "as0-itr"; flow = Some 42;
      kind =
        Obs.Event.Cp_timeout { eid = addr "100.0.1.0"; message = "map-request" } };
    { Obs.Event.time = 1.75; actor = "as1-pce"; flow = None;
      kind =
        Obs.Event.Cp_retry
          { eid = addr "100.0.1.0"; attempt = 1; message = "pce-push" } };
    { Obs.Event.time = 1.8; actor = "as0-h0"; flow = Some 42;
      kind = Obs.Event.Conn_open { dst = addr "100.0.1.1" } };
    { Obs.Event.time = 1.81; actor = "as0-h0"; flow = Some 42;
      kind = Obs.Event.Syn_sent { attempt = 1 } };
    { Obs.Event.time = 1.82; actor = "as1-h0"; flow = Some 42;
      kind = Obs.Event.Syn_received };
    { Obs.Event.time = 1.83; actor = "as0-h0"; flow = Some 42;
      kind = Obs.Event.Conn_established };
    { Obs.Event.time = 1.84; actor = "as0-h0"; flow = Some 43;
      kind = Obs.Event.Conn_failed { reason = "resolution-failed" } };
    { Obs.Event.time = 1.85; actor = "runtime"; flow = None;
      kind = Obs.Event.Run_start { label = "pull-drop" } };
    { Obs.Event.time = 1.9; actor = "narrator"; flow = None;
      kind = Obs.Event.Note "free-form text with \"quotes\" and \\ escapes" };
    { Obs.Event.time = 2.0; actor = "as1-pce"; flow = None;
      kind = Obs.Event.Node_crash { role = "pce(1)" } };
    { Obs.Event.time = 2.1; actor = "as1-pce"; flow = None;
      kind = Obs.Event.Node_restart { role = "pce(1)" } };
    { Obs.Event.time = 2.2; actor = "as1-dns"; flow = None;
      kind = Obs.Event.Pce_bypass { qname = "h0.as1.net." } };
    { Obs.Event.time = 2.3; actor = "as0-itr"; flow = Some 42;
      kind = Obs.Event.Degraded_to_pull { eid = addr "100.0.1.1" } };
    { Obs.Event.time = 2.31; actor = "as0-itr"; flow = Some 42;
      kind = Obs.Event.Spoofed_reply { eid = addr "100.0.1.1"; accepted = true }
    };
    { Obs.Event.time = 2.32; actor = "as0-itr"; flow = Some 42;
      kind =
        Obs.Event.Replayed_reply { eid = addr "100.0.1.1"; accepted = false } };
    { Obs.Event.time = 2.33; actor = "as0-dns"; flow = Some 42;
      kind =
        Obs.Event.Poisoned_answer { qname = "h0.as1.net."; accepted = true } };
    { Obs.Event.time = 2.34; actor = "as1-etr"; flow = None;
      kind = Obs.Event.Glean_rejected { eid = addr "200.0.0.7" } };
    { Obs.Event.time = 2.4; actor = "as0-pce"; flow = None;
      kind =
        Obs.Event.Ipc_query { qname = "h0.as1.net."; client = addr "100.0.0.1" }
    };
    { Obs.Event.time = 2.5; actor = "as0-dns"; flow = Some 42;
      kind = Obs.Event.Dns_iterate { qname = "h0.as1.net."; server = "root-dns" }
    };
    { Obs.Event.time = 2.6; actor = "as1-pce"; flow = None;
      kind =
        Obs.Event.Answer_intercept
          { qname = "h0.as1.net."; eid = addr "100.0.1.1";
            rloc = addr "12.0.0.1" } };
    { Obs.Event.time = 2.7; actor = "as0-pce"; flow = None;
      kind = Obs.Event.Answer_decap { qname = "h0.as1.net."; pending = 2 } };
    { Obs.Event.time = 2.8; actor = "as0-pce"; flow = None;
      kind = Obs.Event.Tuple_push { entry = sample_tuple; targets = 2 } };
    { Obs.Event.time = 2.9; actor = "as1-etr"; flow = Some 42;
      kind = Obs.Event.Reverse_learn { entry = sample_tuple } } ]

let test_jsonl_round_trip () =
  List.iter
    (fun e ->
      let line = Obs.Export.event_line e in
      match Obs.Export.parse_event line with
      | Ok e' ->
          Alcotest.(check bool)
            (Printf.sprintf "round-trip %s" (Obs.Event.kind_name e.Obs.Event.kind))
            true (e = e')
      | Error message ->
          Alcotest.failf "failed to parse %s: %s" line message)
    sample_events

(* Pre-span JSONL lines carry no "message" field on cp_retry/cp_timeout;
   they must keep parsing (defaulting to "map-request"). *)
let test_jsonl_old_cp_lines_still_parse () =
  let check_line line expected =
    match Obs.Export.parse_event line with
    | Ok e -> Alcotest.(check bool) ("compat: " ^ line) true (e.Obs.Event.kind = expected)
    | Error m -> Alcotest.failf "old line rejected (%s): %s" m line
  in
  check_line
    "{\"time\":1.0,\"actor\":\"a\",\"kind\":\"cp_retry\",\"eid\":\"100.0.1.0\",\"attempt\":2}"
    (Obs.Event.Cp_retry
       { eid = addr "100.0.1.0"; attempt = 2; message = "map-request" });
  check_line
    "{\"time\":1.0,\"actor\":\"a\",\"kind\":\"cp_timeout\",\"eid\":\"100.0.1.0\"}"
    (Obs.Event.Cp_timeout { eid = addr "100.0.1.0"; message = "map-request" })

let test_jsonl_rejects_garbage () =
  List.iter
    (fun line ->
      match Obs.Export.parse_event line with
      | Ok _ -> Alcotest.failf "accepted garbage: %s" line
      | Error _ -> ())
    [ "not json"; "{\"time\":1.0}"; "{}"; "[1,2,3]";
      "{\"time\":1.0,\"actor\":\"a\",\"kind\":\"no_such_kind\"}";
      "{\"time\":1.0,\"actor\":\"a\",\"kind\":\"encap\"}";
      (* A \u escape needs exactly four hex digits. *)
      "{\"time\":0.0,\"actor\":\"r\\untime\",\"kind\":\"note\",\"text\":\"x\"}" ]

(* Malformed \u escapes are located parse errors, never exceptions: the
   four characters must all be hex digits (no sign, no underscore). *)
let test_json_unicode_escapes () =
  let parses text = Obs.Json.of_string text in
  List.iter
    (fun text ->
      match parses text with
      | Ok _ -> Alcotest.failf "accepted %s" text
      | Error message ->
          Alcotest.(check bool) ("located error for " ^ text) true
            (String.starts_with ~prefix:"bad \\u escape at offset" message))
    [ {|"f\u00zz1"|}; {|"\u1_2_"|}; {|"\u+123"|}; {|"\u12"|}; {|"r\untime"|} ];
  Alcotest.(check bool) "\\u0041 is A" true
    (parses {|"\u0041"|} = Ok (Obs.Json.String "A"));
  Alcotest.(check bool) "upper-case hex" true
    (parses {|"\u004A"|} = Ok (Obs.Json.String "J"))

let test_jsonl_file_round_trip () =
  let file = Filename.temp_file "obs_test" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      let oc = open_out file in
      let hub = manual_hub ~enabled:true () in
      Obs.Hub.add_sink hub (Obs.Export.jsonl_sink oc);
      List.iter
        (fun e ->
          emit_at hub e.Obs.Event.time ~actor:e.Obs.Event.actor
            ?flow:e.Obs.Event.flow e.Obs.Event.kind)
        sample_events;
      close_out oc;
      let events, errors = Obs.Export.read_jsonl file in
      Alcotest.(check int) "no parse errors" 0 (List.length errors);
      Alcotest.(check bool) "all events survive the file round-trip" true
        (events = sample_events))

(* ------------------------------------------------------------------ *)
(* Parser robustness: mutated traces and BENCH files                   *)
(* ------------------------------------------------------------------ *)

(* A real export: the F1 run with a JSONL trace installed, as
   [repro_cli run f1 --trace-out] writes it. *)
let f1_trace_lines =
  lazy
    (let file = Filename.temp_file "f1" ".jsonl" in
     Fun.protect
       ~finally:(fun () -> Sys.remove file)
       (fun () ->
         ignore (Obs.Runtime.install ~trace_out:file ());
         ignore (Experiments.Exp_f1.run ());
         Obs.Runtime.finalize ();
         In_channel.with_open_text file In_channel.input_all
         |> String.split_on_char '\n'
         |> List.filter (fun line -> line <> "")
         |> Array.of_list))

(* A real BENCH.json document: the F1 experiment through the runner. *)
let bench_text =
  lazy
    (let outcomes =
       Experiments.Runner.run ~emit:ignore ~log:ignore
         [ { Experiments.Runner.task_id = Experiments.Exp_f1.id;
             task_title = Experiments.Exp_f1.title;
             task_run = Experiments.Exp_f1.print } ]
     in
     Obs.Json.to_string
       (Experiments.Runner.bench_json ~jobs:1 outcomes))

(* Byte edits (replace, insert, delete, insert an escape at a position),
   biased toward the characters JSON gives meaning to. *)
let edits =
  let byte =
    QCheck.Gen.(
      oneof
        [ oneofl [ '\\'; '"'; 'u'; '{'; '}'; '['; ']'; ','; ':'; '0'; 'f';
                   'e'; '-'; '.'; '_'; ' ' ];
          char ])
  in
  QCheck.Gen.(list_size (1 -- 4) (triple nat (int_bound 3) byte))

let mutate text edits =
  List.fold_left
    (fun s (pos, op, c) ->
      let n = String.length s in
      if n = 0 then String.make 1 c
      else
        let i = pos mod n in
        match op with
        | 0 -> String.mapi (fun j x -> if j = i then c else x) s
        | 1 -> String.sub s 0 i ^ String.make 1 c ^ String.sub s i (n - i)
        | 2 -> String.sub s 0 i ^ String.sub s (i + 1) (n - i - 1)
        | _ -> String.sub s 0 i ^ "\\" ^ String.make 1 c ^ String.sub s i (n - i))
    text edits

let never_raises ~what parse text =
  match parse text with
  | Ok _ | Error _ -> true
  | exception exn ->
      QCheck.Test.fail_reportf "%s raised %s on %S" what
        (Printexc.to_string exn) text

let prop_mutated_trace_lines =
  QCheck.Test.make ~count:5000 ~name:"mutated F1 JSONL lines never raise"
    (QCheck.make QCheck.Gen.(pair nat edits))
    (fun (line, edits) ->
      let lines = Lazy.force f1_trace_lines in
      never_raises ~what:"Export.parse_event" Obs.Export.parse_event
        (mutate lines.(line mod Array.length lines) edits))

let prop_mutated_bench_json =
  QCheck.Test.make ~count:300 ~name:"mutated BENCH.json never raises"
    (QCheck.make edits)
    (fun edits ->
      never_raises ~what:"Json.of_string" Obs.Json.of_string
        (mutate (Lazy.force bench_text) edits))

let () =
  Alcotest.run "obs"
    [ ( "hub",
        [ Alcotest.test_case "disabled is a no-op" `Quick
            test_hub_disabled_is_noop;
          Alcotest.test_case "disabled path allocation-free" `Quick
            test_hub_disabled_allocation_free;
          Alcotest.test_case "sink and event ordering" `Quick
            test_hub_sink_order_and_event_order;
          Alcotest.test_case "walkthrough printer aligns actors" `Quick
            test_walkthrough_printer_aligns_actors ] );
      ( "flow correlation",
        [ Alcotest.test_case "direction-insensitive flow id" `Quick
            test_flow_id_direction_insensitive;
          Alcotest.test_case "DNS -> map resolution -> first packet" `Quick
            test_flow_correlation_across_layers;
          Alcotest.test_case "scenario hub disabled by default" `Quick
            test_disabled_hub_emits_nothing_in_scenario ] );
      ( "registry",
        [ Alcotest.test_case "snapshot correctness" `Quick
            test_registry_snapshot;
          Alcotest.test_case "scenario registry tracks a run" `Quick
            test_scenario_registry_tracks_run ] );
      ( "sampler",
        [ Alcotest.test_case "buckets and finalise" `Quick
            test_sampler_buckets_and_finalise;
          Alcotest.test_case "no interval drift" `Quick
            test_sampler_no_interval_drift ] );
      ( "jsonl",
        [ Alcotest.test_case "event round-trip" `Quick test_jsonl_round_trip;
          Alcotest.test_case "old cp lines still parse" `Quick
            test_jsonl_old_cp_lines_still_parse;
          Alcotest.test_case "garbage rejected" `Quick
            test_jsonl_rejects_garbage;
          Alcotest.test_case "json \\u escapes" `Quick
            test_json_unicode_escapes;
          Alcotest.test_case "file round-trip" `Quick
            test_jsonl_file_round_trip ] );
      ( "robustness",
        List.map QCheck_alcotest.to_alcotest
          [ prop_mutated_trace_lines; prop_mutated_bench_json ] ) ]
