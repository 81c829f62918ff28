(* Micro-benchmarks of the simulator's hot paths (Bechamel): event-queue
   throughput, map-cache longest-prefix lookups, shortest paths, and a
   complete PCE connection end-to-end. *)

open Bechamel
open Toolkit

let test_engine =
  Test.make ~name:"engine: 10k events"
    (Staged.stage (fun () ->
         let e = Netsim.Engine.create () in
         for i = 1 to 10_000 do
           ignore (Netsim.Engine.schedule e ~delay:(float_of_int i *. 1e-4) ignore)
         done;
         Netsim.Engine.run e))

let cache_for_bench =
  let cache = Lispdp.Map_cache.create () in
  for i = 0 to 199 do
    let prefix =
      Nettypes.Ipv4.prefix_of_string
        (Printf.sprintf "100.%d.%d.0/24" (i / 200) (i mod 200))
    in
    Lispdp.Map_cache.insert cache ~now:0.0
      (Nettypes.Mapping.create ~eid_prefix:prefix
         ~rlocs:[ Nettypes.Mapping.rloc (Nettypes.Ipv4.addr_of_string "10.0.0.1") ]
         ~ttl:1e9)
  done;
  cache

let test_map_cache =
  Test.make ~name:"map-cache: 1k lookups"
    (Staged.stage (fun () ->
         for i = 0 to 999 do
           ignore
             (Lispdp.Map_cache.lookup cache_for_bench ~now:1.0
                (Nettypes.Ipv4.addr_of_int
                   ((100 lsl 24) lor ((i mod 200) lsl 8) lor 7)))
         done))

let bench_internet () =
  Topology.Builder.generate (Netsim.Rng.create 2)
    { Topology.Builder.default_params with
      Topology.Builder.domain_count = 20; provider_count = 8 }

let internet_for_bench = bench_internet ()

let test_dijkstra =
  Test.make ~name:"dijkstra: cold all-dist from one source"
    (Staged.stage (fun () ->
         let graph = internet_for_bench.Topology.Builder.graph in
         Topology.Graph.invalidate_cache graph;
         ignore
           (Topology.Graph.latency_between graph
              internet_for_bench.Topology.Builder.domains.(0).Topology.Domain.hub
              internet_for_bench.Topology.Builder.domains.(19).Topology.Domain.hub)))

(* A border's uplink fails and comes back over a graph whose every tree
   is warm: each run repairs every tree twice and rebuilds none.  The
   graph is a second copy of [internet_for_bench], built and warmed
   before timing starts, since the row above drops every tree. *)
let test_flap_repair =
  Test.make_with_resource
    ~name:"routing: repair every tree after an uplink flap (down+up)"
    Test.uniq
    ~allocate:(fun () ->
      let net = bench_internet () in
      let graph = net.Topology.Builder.graph in
      for src = 0 to Topology.Graph.node_count graph - 1 do
        ignore (Topology.Graph.latency_between graph src 0)
      done;
      (graph, net.Topology.Builder.domains.(0).Topology.Domain.borders.(0)
                .Topology.Domain.uplink))
    ~free:ignore
    (Staged.stage (fun (graph, uplink) ->
         Topology.Graph.set_link_up graph uplink false;
         Topology.Graph.set_link_up graph uplink true))

let test_pce_connection =
  Test.make ~name:"end-to-end: 1 PCE connection (build+run)"
    (Staged.stage (fun () ->
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
         Core.Scenario.run s))

let wire_message =
  Wire.Codec.Map_reply
    { nonce = 42;
      mapping =
        Nettypes.Mapping.create
          ~eid_prefix:(Nettypes.Ipv4.prefix_of_string "100.0.3.0/24")
          ~rlocs:
            [ Nettypes.Mapping.rloc (Nettypes.Ipv4.addr_of_string "10.0.0.1");
              Nettypes.Mapping.rloc (Nettypes.Ipv4.addr_of_string "11.0.0.1") ]
          ~ttl:60.0 }

let wire_encoded = Wire.Codec.encode wire_message

let test_wire_encode =
  Test.make ~name:"wire: encode 1k map-replies"
    (Staged.stage (fun () ->
         for _ = 1 to 1000 do
           ignore (Wire.Codec.encode wire_message)
         done))

let test_wire_decode =
  Test.make ~name:"wire: decode 1k map-replies"
    (Staged.stage (fun () ->
         for _ = 1 to 1000 do
           ignore (Wire.Codec.decode wire_encoded)
         done))

(* The workload generator's hot paths: one Zipf draw per flow (Walker
   alias, O(1)) and one collector add per measured quantity. *)

let zipf_for_bench = Netsim.Rng.Zipf.create ~n:100_000 ~alpha:0.9

let test_zipf =
  Test.make ~name:"rng: 10k zipf draws (n=100k)"
    (Staged.stage (fun () ->
         let rng = Netsim.Rng.create 7 in
         for _ = 1 to 10_000 do
           ignore (Netsim.Rng.Zipf.sample zipf_for_bench rng)
         done))

let test_samples_exact =
  Test.make ~name:"stats: 10k adds + p99 (exact)"
    (Staged.stage (fun () ->
         let s = Netsim.Stats.Samples.create () in
         let rng = Netsim.Rng.create 8 in
         for _ = 1 to 10_000 do
           Netsim.Stats.Samples.add s (Netsim.Rng.float rng)
         done;
         ignore (Netsim.Stats.Samples.percentile s 99.0)))

let test_samples_reservoir =
  Test.make ~name:"stats: 10k adds + p99 (reservoir 1k)"
    (Staged.stage (fun () ->
         let s =
           Netsim.Stats.Samples.create
             ~mode:(Netsim.Stats.Samples.Reservoir 1024) ()
         in
         let rng = Netsim.Rng.create 8 in
         for _ = 1 to 10_000 do
           Netsim.Stats.Samples.add s (Netsim.Rng.float rng)
         done;
         ignore (Netsim.Stats.Samples.percentile s 99.0)))

let test_p2 =
  Test.make ~name:"stats: 10k adds + p99 (P2)"
    (Staged.stage (fun () ->
         let s = Netsim.Stats.P2.create ~p:99.0 in
         let rng = Netsim.Rng.create 8 in
         for _ = 1 to 10_000 do
           Netsim.Stats.P2.add s (Netsim.Rng.float rng)
         done;
         ignore (Netsim.Stats.P2.quantile s)))

(* The event hub's disabled path: every instrumented site tests
   [Obs.Hub.enabled] before building its payload, so a disabled hub
   must cost one boolean test and allocate nothing. *)

let disabled_hub = Obs.Hub.create ~clock:(fun () -> 0.0) ()

let test_hub_disabled =
  Test.make ~name:"obs: 10k emit (disabled)"
    (Staged.stage (fun () ->
         for i = 1 to 10_000 do
           if Obs.Hub.enabled disabled_hub then
             Obs.Hub.emit disabled_hub ~actor:"bench"
               (Obs.Event.Mapping_push { targets = i })
         done))

(* The span-source events (connection/handshake lifecycle) sit on the
   TCP fast path, so their guarded emit sites must also collapse to one
   boolean test when the hub is off. *)
let test_spans_disabled =
  Test.make ~name:"obs: 10k span-event emit (disabled)"
    (Staged.stage (fun () ->
         for i = 1 to 10_000 do
           if Obs.Hub.enabled disabled_hub then begin
             Obs.Hub.emit disabled_hub ~actor:"bench" ~flow:i
               (Obs.Event.Syn_sent { attempt = 1 });
             Obs.Hub.emit disabled_hub ~actor:"bench" ~flow:i
               Obs.Event.Conn_established
           end
         done))

(* The self-profiler's disabled path: every instrumentation site in the
   engine, DNS, map-resolution, PCE and dataplane hot paths pays this
   when profiling is off, so it must collapse to a flag test — same
   contract as the disabled hub above.  print () pauses the
   profiler around the whole suite, so these run with it genuinely
   off even under `bench` (which profiles the experiments). *)

let ph_bench = Netsim.Prof.phase "micro-disabled"
let ctr_bench = Netsim.Prof.counter "micro-disabled"

let test_prof_disabled =
  Test.make ~name:"prof: 10k enter/leave + incr (disabled)"
    (Staged.stage (fun () ->
         for _ = 1 to 10_000 do
           Netsim.Prof.enter ph_bench;
           Netsim.Prof.incr ctr_bench;
           Netsim.Prof.leave ph_bench
         done))

let test_prof_wrap_disabled =
  Test.make ~name:"prof: 10k wrap (disabled)"
    (Staged.stage (fun () ->
         for _ = 1 to 10_000 do
           (Netsim.Prof.wrap ph_bench ignore) ()
         done))

(* The telemetry plane's disabled path: a scenario without a plane
   leaves its graph's plane [None], and every dataplane/topology/IRC
   hook site tests that option before calling its hooks, so — same
   contract as the profiler above — a site must collapse to one [None]
   test.  The option sits in a mutable record field, as on a graph, so
   the compiler cannot fold the branch away. *)

type telemetry_site = { mutable plane : Netsim.Telemetry.t option }

let no_plane = { plane = None }

let telemetry_site i =
  match no_plane.plane with
  | Some tm ->
      Netsim.Telemetry.touch tm ~now:(float_of_int i);
      Netsim.Telemetry.on_link tm ~link:3 ~dir:0 ~bytes:1400;
      Netsim.Telemetry.on_node_tx tm ~node:7 ~bytes:1400;
      Netsim.Telemetry.on_flow_packet tm ~eid:i ~flow:i;
      Netsim.Telemetry.on_select tm ~provider:2 ~inbound:true
  | None -> ()

let test_telemetry_disabled =
  Test.make ~name:"telemetry: 10k link+node+flow hooks (disabled)"
    (Staged.stage (fun () ->
         for i = 1 to 10_000 do
           telemetry_site i
         done))

(* Direct allocation proof, reported alongside the timing rows: a
   Gc.minor_words delta across 100k disabled enter/leave+incr cycles.
   Zero words means the disabled path never touches the heap. *)
let prof_disabled_alloc_words () =
  for _ = 1 to 1_000 do
    Netsim.Prof.enter ph_bench;
    Netsim.Prof.incr ctr_bench;
    Netsim.Prof.leave ph_bench
  done;
  let w0 = Gc.minor_words () in
  for _ = 1 to 100_000 do
    Netsim.Prof.enter ph_bench;
    Netsim.Prof.incr ctr_bench;
    Netsim.Prof.leave ph_bench
  done;
  Gc.minor_words () -. w0

(* Same proof for the telemetry hook sites: zero minor words across 100k
   full-hook sites without a plane. *)
let telemetry_disabled_alloc_words () =
  for i = 1 to 1_000 do telemetry_site i done;
  let w0 = Gc.minor_words () in
  for i = 1 to 100_000 do telemetry_site i done;
  Gc.minor_words () -. w0

(* Same proof for the event hub: zero minor words across 100k disabled
   emits — a guarded site with a payload, as every layer writes it, and
   an unguarded emit, which must return before building the event. *)
let hub_disabled_alloc_words () =
  let cycle i =
    if Obs.Hub.enabled disabled_hub then
      Obs.Hub.emit disabled_hub ~actor:"bench" ~flow:i
        (Obs.Event.Syn_sent { attempt = i });
    Obs.Hub.emit disabled_hub ~actor:"bench" Obs.Event.Conn_established
  in
  for i = 1 to 1_000 do cycle i done;
  let w0 = Gc.minor_words () in
  for i = 1 to 100_000 do cycle i done;
  Gc.minor_words () -. w0

let tests =
  [ test_engine; test_map_cache; test_dijkstra; test_flap_repair;
    test_pce_connection;
    test_wire_encode; test_wire_decode; test_zipf; test_samples_exact;
    test_samples_reservoir; test_p2; test_hub_disabled;
    test_spans_disabled; test_prof_disabled; test_prof_wrap_disabled;
    test_telemetry_disabled ]

(* Run [f] with the profiler paused: measured loops must not pay
   profiler overhead, and the "(disabled)" benches must be honest even
   under `bench`, which enables the profiler around every
   experiment. *)
let unprofiled f =
  Obs.Prof.pause ();
  Fun.protect ~finally:Obs.Prof.resume f

(* ------------------------------------------------------------------ *)
(* Engine dispatch throughput                                          *)
(* ------------------------------------------------------------------ *)

(* Events/s of the raw dispatch loop under the steady-state shape of
   simulator timer traffic: 64 concurrent self-rescheduling timers,
   each firing and re-arming until 2M events have fired.  This feeds
   the BENCH.json "engine" block and the `bench --check` throughput
   floor. *)

let engine_dispatch_single () =
  unprofiled (fun () ->
      let e = Netsim.Engine.create () in
      let remaining = ref 2_000_000 in
      let rec tick () =
        if !remaining > 0 then begin
          decr remaining;
          ignore (Netsim.Engine.schedule e ~delay:1.0 tick)
        end
      in
      for _ = 1 to 64 do
        ignore (Netsim.Engine.schedule e ~delay:0.5 tick)
      done;
      let t0 = Netsim.Prof.now_s () in
      Netsim.Engine.run e;
      let dt = Netsim.Prof.now_s () -. t0 in
      if dt <= 0.0 then 0.0
      else float_of_int (Netsim.Engine.events_processed e) /. dt)

(* The BENCH.json "engine" block: measured dispatch throughput. *)
let engine_block () =
  Obs.Json.Obj
    [ ("single_events_per_sec", Obs.Json.Float (engine_dispatch_single ())) ]

let print () =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instance = Instance.monotonic_clock in
  (* A pinned run count, not a time quota: sample k runs each test k
     times, k = 1..15, so every test runs 120 times on any machine and
     the experiment's event count and latency rows (one per PCE
     connection built) repeat exactly.  The quota is set far out of
     reach so it never cuts a test short. *)
  let cfg =
    Benchmark.cfg ~sampling:(`Linear 1) ~limit:15
      ~quota:(Time.second 3600.0) ~stabilize:false ()
  in
  let raw =
    unprofiled (fun () ->
        Benchmark.all cfg [ instance ]
          (Test.make_grouped ~name:"micro" ~fmt:"%s %s" tests))
  in
  let results = Analyze.all ols instance raw in
  let table =
    Metrics.Table.create ~title:"Micro-benchmarks (simulator hot paths)"
      ~columns:[ "benchmark"; "time per run" ]
  in
  let rows = ref [] in
  Hashtbl.iter
    (fun name result ->
      match Analyze.OLS.estimates result with
      | Some [ ns ] ->
          let cell =
            if ns > 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
            else if ns > 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
            else Printf.sprintf "%.0f ns" ns
          in
          rows := (name, cell) :: !rows
      | Some _ | None -> rows := (name, "n/a") :: !rows)
    results;
  List.iter
    (fun (name, cell) -> Metrics.Table.add_row table [ name; cell ])
    (List.sort compare !rows);
  Metrics.Table.add_row table
    [ "prof: minor words / 100k disabled cycles";
      Printf.sprintf "%.0f words" (unprofiled prof_disabled_alloc_words) ];
  Metrics.Table.add_row table
    [ "telemetry: minor words / 100k disabled cycles";
      Printf.sprintf "%.0f words" (unprofiled telemetry_disabled_alloc_words)
    ];
  Metrics.Table.add_row table
    [ "obs: minor words / 100k disabled emits";
      Printf.sprintf "%.0f words" (unprofiled hub_disabled_alloc_words) ];
  Metrics.Table.add_row table
    [ "engine: dispatch throughput (single domain)";
      Printf.sprintf "%.2fM events/s" (engine_dispatch_single () /. 1e6) ];
  Metrics.Table.print table
