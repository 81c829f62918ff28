(* The metrics the benchmark prints, by name and unit, and the one-line
   JSON result.  The names and units here are the ones BENCHMARK.json
   declares; the tests hold the two lists equal. *)

open Core

type metric = { name : string; unit : string; value : float }

let m name unit value = { name; unit; value }
let ratio a b = if b = 0.0 then 0.0 else a /. b
let fi = float_of_int

(* VmHWM of this process in kB (Linux); 0 when unreadable. *)
let peak_rss_kb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | exception Sys_error _ -> 0
  | status ->
      List.fold_left
        (fun acc line ->
          match Scanf.sscanf_opt line "VmHWM: %d kB" Fun.id with
          | Some kb -> kb
          | None -> acc)
        0
        (String.split_on_char '\n' status)

(* [flows_per_s] and [setups] hold one sample per run and per set-up. *)
let end_to_end ~flows_per_s ~setups ~rss_kb =
  let median = Netsim.Stats.Samples.median in
  [ m "flows_per_s" "flows/s" (median flows_per_s);
    m "setup_s" "s" (median setups);
    m "peak_rss_mb" "MB" (fi rss_kb /. 1024.0) ]

(* (c) counters, read through public stats APIs from an untraced run. *)
let counters (r : Workloads.run) (t : Verify.tally) =
  let s = r.Workloads.scenario in
  let events = fi (Netsim.Engine.events_processed (Scenario.engine s)) in
  let dp = Lispdp.Dataplane.counters (Scenario.dataplane s) in
  let cache = Lispdp.Dataplane.cache_stats_totals (Scenario.dataplane s) in
  let lookups = fi (cache.Lispdp.Map_cache.hits + cache.Lispdp.Map_cache.misses) in
  let cp = Scenario.cp_stats s in
  let dns = Dnssim.System.counters (Scenario.dns s) in
  let pce f = match Scenario.pce s with Some p -> fi (f p) | None -> 0.0 in
  let flows = fi t.Verify.opened in
  [ m "engine.events" "count" events;
    m "engine.events_per_s" "1/s" (ratio events r.Workloads.run_s);
    m "dataplane.packets" "count" (fi dp.Lispdp.Dataplane.sent);
    m "dataplane.delivered_frac" "fraction"
      (ratio (fi dp.Lispdp.Dataplane.delivered) (fi dp.Lispdp.Dataplane.sent));
    m "dataplane.held" "count" (fi dp.Lispdp.Dataplane.held);
    m "map_cache.lookups" "count" lookups;
    m "map_cache.hit_ratio" "fraction" (ratio (fi cache.Lispdp.Map_cache.hits) lookups);
    m "map_cache.insertions" "count" (fi cache.Lispdp.Map_cache.insertions);
    m "map_cache.evictions" "count" (fi cache.Lispdp.Map_cache.evictions);
    m "mapsys.map_requests" "count" (fi cp.Mapsys.Cp_stats.map_requests);
    m "mapsys.requests_per_resolution" "ratio"
      (ratio (fi cp.Mapsys.Cp_stats.map_requests) (fi cp.Mapsys.Cp_stats.resolutions));
    m "mapsys.retransmissions" "count" (fi cp.Mapsys.Cp_stats.retransmissions);
    m "dns.client_queries" "count" (fi dns.Dnssim.System.client_queries);
    m "dns.cache_hit_ratio" "fraction"
      (ratio (fi dns.Dnssim.System.cache_hits)
         (fi (dns.Dnssim.System.cache_hits + dns.Dnssim.System.cache_misses)));
    m "pce.push_messages" "count"
      (pce (fun p -> (Pce_control.stats p).Mapsys.Cp_stats.push_messages));
    m "pce.failovers" "count" (pce Pce_control.failovers);
    m "pce.reroutes" "count" (pce Pce_control.reroutes);
    m "tcp.syn_retransmissions" "count" (fi t.Verify.syn_retransmissions);
    m "gc.minor_words_per_flow" "words" (ratio r.Workloads.minor_words flows);
    m "gc.promoted_words_per_flow" "words" (ratio r.Workloads.promoted_words flows);
    m "gc.major_collections" "count" (fi r.Workloads.major_collections) ]

(* (t) phase self times from the traced run, plus the cost of tracing
   itself ([untraced_fps] is the untraced run of the same seed). *)
let phases (report : Obs.Prof.report) (traced : Workloads.run) ~untraced_fps =
  let self name =
    match
      List.find_opt (fun p -> p.Obs.Prof.ps_name = name) report.Obs.Prof.r_phases
    with
    | Some p -> p.Obs.Prof.ps_self_s
    | None -> 0.0
  in
  let share name = ratio (self name) report.Obs.Prof.r_wall_s in
  let s = traced.Workloads.scenario in
  let events = fi (Netsim.Engine.events_processed (Scenario.engine s)) in
  let packets = fi (Lispdp.Dataplane.counters (Scenario.dataplane s)).Lispdp.Dataplane.sent in
  let queries = fi (Dnssim.System.counters (Scenario.dns s)).Dnssim.System.client_queries in
  [ m "engine.self_s" "s" (self "engine");
    m "engine.share" "fraction" (share "engine");
    m "engine.ns_per_event" "ns" (ratio (self "engine" *. 1e9) events);
    m "dataplane.self_s" "s" (self "dataplane");
    m "dataplane.share" "fraction" (share "dataplane");
    m "dataplane.ns_per_packet" "ns" (ratio (self "dataplane" *. 1e9) packets);
    m "map_resolution.self_s" "s" (self "map_resolution");
    m "map_resolution.share" "fraction" (share "map_resolution");
    m "dns.self_s" "s" (self "dns");
    m "dns.share" "fraction" (share "dns");
    m "dns.us_per_query" "us" (ratio (self "dns" *. 1e6) queries);
    m "pce_push.self_s" "s" (self "pce_push");
    m "pce_push.share" "fraction" (share "pce_push");
    m "workload.self_s" "s" (self "workload");
    m "obs.overhead_ratio" "ratio" (ratio untraced_fps (Workloads.flows_per_s traced));
    m "obs.trace_self_s" "s" (self "trace");
    m "obs.coverage" "fraction" (Obs.Prof.coverage report) ]

let result_line ~correct ~attempted ~failed metrics =
  Obs.Json.to_string
    (Obs.Json.Obj
       [ ("correct", Obs.Json.Bool correct);
         ("attempted", Obs.Json.Int attempted);
         ("failed", Obs.Json.Int failed);
         ( "metrics",
           Obs.Json.Obj
             (List.map
                (fun x ->
                  ( x.name,
                    Obs.Json.Obj
                      [ ("value", Obs.Json.Float x.value);
                        ("unit", Obs.Json.String x.unit) ] ))
                metrics) ) ])
