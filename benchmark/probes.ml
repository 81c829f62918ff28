(* Outside probes: timed direct calls into one layer's public functions
   on a fresh build of the workload's scenario, fed the workload's own
   destination stream.  They isolate costs the profiler cannot: the
   traced run charges cold shortest-path work to whichever phase touches
   a source first (usually [dns] or [dataplane]).  Probes run only in
   the traced invocation, after peak RSS has been read. *)

open Core

let now = Obs.Prof.now_s

let time f =
  let t0 = now () in
  f ();
  now () -. t0

let ns_per total count = if count = 0 then 0.0 else total *. 1e9 /. float_of_int count

(* Unreachable pairs cannot occur in a fresh build (every link is up),
   but a probe must not abort the run if one does. *)
let latency g src dst =
  try ignore (Topology.Graph.latency_between g src dst) with Not_found -> ()

let routing (internet : Topology.Builder.t) pairs =
  let g = internet.Topology.Builder.graph in
  let nodes = Topology.Graph.node_count g in
  let target = internet.Topology.Builder.tld_dns in
  (* One cold single-source computation per sampled node: evenly spaced
     ids, so hosts, borders, DNS and core nodes are all represented. *)
  let sampled = List.init (min 32 nodes) (fun i -> i * nodes / min 32 nodes) in
  let cold = Netsim.Stats.Samples.create () in
  List.iter
    (fun src ->
      Topology.Graph.invalidate_cache g;
      Netsim.Stats.Samples.add cold (time (fun () -> latency g src target) *. 1e3))
    sampled;
  Topology.Graph.invalidate_cache g;
  let all_sources =
    time (fun () ->
        for src = 0 to nodes - 1 do
          latency g src target
        done)
  in
  (* Warm: every source tree is cached by now. *)
  Array.iter (fun (s, d) -> latency g s d) pairs;
  let warm = time (fun () -> Array.iter (fun (s, d) -> latency g s d) pairs) in
  let account =
    time (fun () ->
        Array.iter
          (fun (src, dst) ->
            try Topology.Graph.account_path g ~src ~dst ~bytes:1200
            with Not_found -> ())
          pairs)
  in
  let n = Array.length pairs in
  [ Report.m "routing.nodes" "count" (float_of_int nodes);
    Report.m "routing.sssp_cold_ms_p50" "ms" (Netsim.Stats.Samples.median cold);
    Report.m "routing.sssp_cold_ms_max" "ms" (Netsim.Stats.Samples.percentile cold 100.0);
    Report.m "routing.all_sources_s" "s" all_sources;
    Report.m "routing.latency_warm_ns" "ns" (ns_per warm n);
    Report.m "routing.account_path_ns" "ns" (ns_per account n) ]

(* Replay the destination stream through one map-cache at the
   workload's capacity and policy, inserting the destination domain's
   mapping on each miss.  Lookups happen at the flows' nominal arrival
   times, so TTL expiry plays out as in the run. *)
let map_cache (w : Workloads.t) (internet : Topology.Builder.t) flows =
  let config = w.Workloads.config in
  let cache =
    Lispdp.Map_cache.create ~policy:config.Scenario.cache_policy
      ~capacity:config.Scenario.cache_capacity ()
  in
  let mappings =
    Array.map
      (Topology.Domain.advertised_mapping ~ttl:config.Scenario.mapping_ttl)
      internet.Topology.Builder.domains
  in
  let dst_domain flow =
    match Topology.Builder.domain_of_eid internet flow.Nettypes.Flow.dst with
    | Some d -> d.Topology.Domain.id
    | None -> invalid_arg "Probes.map_cache: destination outside every domain"
  in
  let domains = Array.map dst_domain flows in
  let inserts = ref 0 and insert_s = ref 0.0 in
  let total =
    time (fun () ->
        Array.iteri
          (fun i flow ->
            let now = float_of_int i /. w.Workloads.rate in
            match Lispdp.Map_cache.lookup cache ~now flow.Nettypes.Flow.dst with
            | Some _ -> ()
            | None ->
                let t0 = Obs.Prof.now_s () in
                Lispdp.Map_cache.insert cache ~now mappings.(domains.(i));
                insert_s := !insert_s +. (Obs.Prof.now_s () -. t0);
                incr inserts)
          flows)
  in
  [ Report.m "map_cache.lookup_ns" "ns"
      (ns_per (total -. !insert_s) (Array.length flows));
    Report.m "map_cache.insert_ns" "ns" (ns_per !insert_s !inserts) ]

let measure (w : Workloads.t) ~seed =
  let scenario = Scenario.build (Workloads.scenario_config w ~seed) in
  let internet = Scenario.internet scenario in
  let traffic = Workloads.traffic w scenario in
  let n = w.Workloads.flows in
  let flows = Array.make n (Workload.Traffic.random_flow traffic ()) in
  let draw =
    time (fun () ->
        for i = 1 to n - 1 do
          flows.(i) <- Workload.Traffic.random_flow traffic ()
        done)
  in
  let border (d : Topology.Domain.t) flow =
    let b = d.Topology.Domain.borders in
    b.(Nettypes.Flow.hash flow mod Array.length b).Topology.Domain.router
  in
  let pairs =
    Array.map
      (fun flow ->
        let domain eid =
          Option.get (Topology.Builder.domain_of_eid internet eid)
        in
        ( border (domain flow.Nettypes.Flow.src) flow,
          border (domain flow.Nettypes.Flow.dst) flow ))
      flows
  in
  routing internet pairs @ map_cache w internet flows
  @ [ Report.m "workload.random_flow_ns" "ns" (ns_per draw (n - 1)) ]
