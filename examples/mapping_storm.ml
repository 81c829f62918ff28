(* A mapping storm: flash crowd toward fresh destinations plus an RLOC
   failure in the middle of it.

   At t = 0 a burst of clients connects to destinations nobody has
   cached (a flash crowd, e.g. a news event); at t = 6 s one of the
   content domain's uplinks fails.  The example compares how the base
   LISP control plane and the PCE control plane ride out both events,
   printing a per-second timeline of delivered and dropped packets.

   Run with:  dune exec examples/mapping_storm.exe *)

open Core

let content_domain = 0
let fail_at = 6.13
let horizon = 18.0

let params =
  { Topology.Builder.default_params with
    Topology.Builder.domain_count = 10; provider_count = 5;
    borders_per_domain = 3; hosts_per_domain = 8 }

let run cp =
  let scenario =
    Scenario.build
      { Scenario.default_config with Scenario.cp; topology = `Random params;
        seed = 77; mapping_ttl = 30.0; nerd_propagation = 5.0 }
  in
  let drops = Metrics.Timeseries.create ~bucket:1.0 ~horizon in
  let delivered = Metrics.Timeseries.create ~bucket:1.0 ~horizon in
  let hub = Scenario.obs scenario in
  Obs.Hub.add_sink hub (fun e ->
      match e.Obs.Event.kind with
      | Obs.Event.Packet_drop _ ->
          Metrics.Timeseries.add drops ~at:e.Obs.Event.time ()
      | _ -> ());
  Obs.Hub.set_enabled hub true;
  (* Sample delivery counters once per second. *)
  let last_delivered = ref 0 in
  let rec sample i =
    if i < Metrics.Timeseries.bucket_count delivered then
      ignore
        (Netsim.Engine.schedule (Scenario.engine scenario)
           ~delay:1.0 (fun () ->
             let d =
               (Lispdp.Dataplane.counters (Scenario.dataplane scenario))
                 .Lispdp.Dataplane.delivered
             in
             Metrics.Timeseries.add delivered
               ~at:(Metrics.Timeseries.bucket_start delivered i)
               ~value:(float_of_int (d - !last_delivered))
               ();
             last_delivered := d;
             sample (i + 1)))
  in
  sample 0;
  (match Scenario.pce scenario with
  | Some pce ->
      Pce_control.run_monitoring pce ~interval:0.5 ~until:horizon
        ~rebalance:false
  | None -> ());
  ignore
    (Netsim.Engine.schedule (Scenario.engine scenario) ~delay:fail_at
       (fun () -> Scenario.fail_uplink scenario ~domain:content_domain ~border:0));
  let traffic =
    Workload.Traffic.create
      ~rng:(Netsim.Rng.split (Scenario.rng scenario))
      ~internet:(Scenario.internet scenario)
      ~hotspots:[ (content_domain, 1.0) ] ()
  in
  (* The storm: 300 long transfers arriving over ten seconds, so plenty
     are still active when the uplink dies. *)
  ignore
    (Workload.Arrivals.poisson ~engine:(Scenario.engine scenario)
       ~rng:(Netsim.Rng.split (Scenario.rng scenario))
       ~rate:30.0 ~duration:10.0
       ~f:(fun _ ->
         let src_domain =
           1 + Netsim.Rng.int (Scenario.rng scenario) (params.Topology.Builder.domain_count - 1)
         in
         let flow = Workload.Traffic.random_flow traffic ~src_domain () in
         ignore
           (Scenario.open_connection scenario ~flow ~data_packets:2500
              ~data_bytes:1400 ())));
  Scenario.run ~until:horizon scenario;
  (scenario, delivered, drops)

let timeline label delivered drops =
  Format.printf "%s@." label;
  Format.printf "  t(s)   delivered  dropped@.";
  Array.iteri
    (fun i d ->
      let dr = int_of_float (Metrics.Timeseries.value drops i) in
      Format.printf "  %2d%s %9d %8d %s@." i
        (if float_of_int i <= fail_at && fail_at < float_of_int (i + 1) then "*"
         else " ")
        (int_of_float d) dr
        (String.make (Stdlib.min 40 (dr / 25)) '!'))
    (Metrics.Timeseries.values delivered);
  (match Metrics.Timeseries.last_active_after drops (Float.floor fail_at) with
  | Some t -> Format.printf "  last drop bucket after the failure: t=%.0fs@." t
  | None -> Format.printf "  no drops after the failure@.");
  Format.printf "  (* = RLOC failure)@.@."

let () =
  Format.printf
    "Flash crowd toward a cold content domain, with an uplink failure at t=%.1fs@.@."
    fail_at;
  let _, pull_delivered, pull_drops = run Scenario.Cp_pull_drop in
  timeline "pull-drop (base LISP control plane):" pull_delivered pull_drops;
  let scenario, pce_delivered, pce_drops =
    run (Scenario.Cp_pce Pce_control.default_options)
  in
  timeline "pce (this paper):" pce_delivered pce_drops;
  (match Scenario.pce scenario with
  | Some p ->
      Format.printf "PCE handled %d uplink failover(s).@." (Pce_control.failovers p)
  | None -> ());
  Format.printf
    "@.The pull control plane drops the storm's first packets (cold caches)@.";
  Format.printf
    "and black-holes flows pinned to the dead locator until their cached@.";
  Format.printf
    "mappings expire; the PCE loses nothing at startup and repairs the@.";
  Format.printf "failure within its monitoring interval.@."
