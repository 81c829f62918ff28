(* Shared workload driver for the experiment harness.

   Every experiment runs the same loop: build a scenario around one
   control plane, generate flows (Poisson arrivals, Zipf or hotspot
   destinations, heavy-tailed sizes), open each as a DNS-then-TCP
   connection, drain the engine, and collect one [result] with every
   quantity the tables report. *)

open Core

let standard_cps : (string * Scenario.cp_kind) list =
  [ ("pull-drop", Scenario.Cp_pull_drop);
    ("pull-queue", Scenario.Cp_pull_queue 32);
    ("pull-smr", Scenario.Cp_pull_smr 32);
    ("pull-detour", Scenario.Cp_pull_detour);
    ("cons", Scenario.Cp_cons);
    ("msmr", Scenario.Cp_msmr);
    ("nerd-push", Scenario.Cp_nerd);
    ("pce", Scenario.Cp_pce Pce_control.default_options) ]

type spec = {
  config : Scenario.config;
  flows : int;
  rate : float;  (* Poisson arrival rate, flows per second *)
  zipf_alpha : float;
  hotspots : (int * float) list option;
  sources : int list option;  (* restrict source domains *)
  data_packets : [ `Fixed of int | `Pareto of float ];
  data_bytes : int;
  monitor : bool;  (* run the PCE background IRC loop *)
  rebalance : bool;
  monitor_interval : float;
  arrival_delay : float;
      (* shift the whole arrival window: lets the PCE's background IRC
         monitoring warm up on pre-existing traffic first *)
  pre_run : (Scenario.t -> unit) option;
      (* invoked after the scenario is built, before arrivals are
         scheduled: background-traffic injectors, fault scripts, ... *)
  sample_reservoir : int option;
      (* [Some k]: collect timing samples into a k-slot reservoir so
         collector memory stays O(k) — the scale experiments' mode.
         [None] (default) stores every sample exactly. *)
}

(* The spec a parsed scenario file describes. *)
let spec_of_scenario { Scenario_file.config; workload = w } =
  { config; flows = w.Scenario_file.flows; rate = w.rate;
    zipf_alpha = w.zipf_alpha;
    hotspots = Option.map (fun d -> [ (d, 1.0) ]) w.hotspot; sources = None;
    data_packets = `Fixed w.data_packets; data_bytes = w.data_bytes;
    monitor = true; rebalance = false; monitor_interval = 1.0;
    arrival_delay = 0.0; pre_run = None; sample_reservoir = None }

(* [config] under the scenario-file default workload. *)
let default_spec config =
  spec_of_scenario { Scenario_file.default with Scenario_file.config }

let spec_of_file path = Result.map spec_of_scenario (Scenario_file.load path)

type result = {
  label : string;
  spec : spec;
  scenario : Scenario.t;
  opened : int;
  established : int;
  failed : int;
  syn_retransmissions : int;
  dns_times : Netsim.Stats.Samples.t;
  handshakes : Netsim.Stats.Samples.t;
  setups : Netsim.Stats.Samples.t;
  first_packet_delays : Netsim.Stats.Samples.t;
  run_seconds : float;  (* simulated time at drain *)
  workload_seconds : float;  (* the arrival window; identical across CPs *)
}

let dataplane_counters r = Lispdp.Dataplane.counters (Scenario.dataplane r.scenario)
let drops r = (dataplane_counters r).Lispdp.Dataplane.dropped
let drop_causes r = Lispdp.Dataplane.drop_causes (Scenario.dataplane r.scenario)
let cp_stats r = Scenario.cp_stats r.scenario

let cache_hit_ratio r =
  let s = Lispdp.Dataplane.cache_stats_totals (Scenario.dataplane r.scenario) in
  let total = s.Lispdp.Map_cache.hits + s.Lispdp.Map_cache.misses in
  if total = 0 then 0.0
  else float_of_int s.Lispdp.Map_cache.hits /. float_of_int total

let drops_per_flow r =
  if r.opened = 0 then 0.0 else float_of_int (drops r) /. float_of_int r.opened

(* Total mapping state across all border routers at the end of the run:
   map-cache entries plus per-flow entries. *)
let router_state_entries r =
  let dp = Scenario.dataplane r.scenario in
  let internet = Scenario.internet r.scenario in
  let now = Netsim.Engine.now (Scenario.engine r.scenario) in
  let total = ref 0 in
  let routers = ref 0 in
  let peak = ref 0 in
  Array.iter
    (fun domain ->
      Array.iter
        (fun router ->
          let n =
            Lispdp.Map_cache.length router.Lispdp.Dataplane.cache
            + Lispdp.Flow_table.length router.Lispdp.Dataplane.flows ~now
          in
          incr routers;
          total := !total + n;
          if n > !peak then peak := n)
        (Lispdp.Dataplane.routers_of_domain dp domain))
    internet.Topology.Builder.domains;
  (!total, !peak, !routers)

let run ?(label = "") spec =
  let scenario = Scenario.build spec.config in
  let label = if label = "" then Scenario.cp_label spec.config.Scenario.cp else label in
  let traffic =
    Workload.Traffic.create
      ~rng:(Netsim.Rng.split (Scenario.rng scenario))
      ~internet:(Scenario.internet scenario) ~zipf_alpha:spec.zipf_alpha
      ?hotspots:spec.hotspots ()
  in
  let size_rng = Netsim.Rng.split (Scenario.rng scenario) in
  let source_rng = Netsim.Rng.split (Scenario.rng scenario) in
  let pick_source () =
    match spec.sources with
    | Some (_ :: _ as ids) ->
        Some (List.nth ids (Netsim.Rng.int source_rng (List.length ids)))
    | Some [] | None -> None
  in
  let duration = float_of_int spec.flows /. spec.rate in
  (match spec.pre_run with Some f -> f scenario | None -> ());
  (match (Scenario.pce scenario, spec.monitor) with
  | Some pce, true ->
      Pce_control.run_monitoring pce ~interval:spec.monitor_interval
        ~until:(spec.arrival_delay +. duration +. 10.0)
        ~rebalance:spec.rebalance
  | Some _, false | None, _ -> ());
  let opened = ref 0 in
  let arrivals_rng = Netsim.Rng.split (Scenario.rng scenario) in
  let start_arrivals () =
    (* The streaming generator keeps the engine heap O(1) in the window
       size, which is what lets the S1/S2 cells schedule 100k+ flows. *)
    Workload.Arrivals.poisson_stream ~engine:(Scenario.engine scenario)
      ~rng:arrivals_rng ~rate:spec.rate ~duration
      ~f:(fun _ ->
           let src_domain = pick_source () in
           let flow = Workload.Traffic.random_flow traffic ?src_domain () in
           let data_packets =
             match spec.data_packets with
             | `Fixed n -> n
             | `Pareto mean ->
                 Stdlib.max 1
                   (int_of_float
                      (Netsim.Rng.pareto size_rng ~shape:1.3
                         ~scale:(mean *. 0.3 /. 1.3)))
           in
           incr opened;
           ignore
             (Scenario.open_connection scenario ~flow ~data_packets
                ~data_bytes:spec.data_bytes ()))
  in
  ignore
    (Netsim.Engine.schedule (Scenario.engine scenario)
       ~delay:spec.arrival_delay start_arrivals);
  Scenario.run scenario;
  let samples () =
    match spec.sample_reservoir with
    | None -> Netsim.Stats.Samples.create ()
    | Some k ->
        Netsim.Stats.Samples.create ~mode:(Netsim.Stats.Samples.Reservoir k) ()
  in
  let dns_times = samples () in
  let handshakes = samples () in
  let setups = samples () in
  let first_packet_delays = samples () in
  let established = ref 0 in
  let failed = ref 0 in
  let syn_retx = ref 0 in
  List.iter
    (fun c ->
      (match c.Scenario.dns_time with
      | Some t -> Netsim.Stats.Samples.add dns_times t
      | None -> ());
      match c.Scenario.tcp with
      | None -> if c.Scenario.resolution_failed then incr failed
      | Some conn -> (
          syn_retx := !syn_retx + conn.Workload.Tcp.syn_transmissions - 1;
          if conn.Workload.Tcp.failed then incr failed;
          (match Workload.Tcp.handshake_time conn with
          | Some h ->
              incr established;
              Netsim.Stats.Samples.add handshakes h
          | None -> ());
          (match Scenario.total_setup_time c with
          | Some t -> Netsim.Stats.Samples.add setups t
          | None -> ());
          match conn.Workload.Tcp.first_syn_arrival with
          | Some at ->
              Netsim.Stats.Samples.add first_packet_delays
                (at -. conn.Workload.Tcp.started_at)
          | None -> ()))
    (Scenario.connections scenario);
  { label; spec; scenario; opened = !opened; established = !established;
    failed = !failed; syn_retransmissions = !syn_retx; dns_times; handshakes;
    setups; first_packet_delays;
    run_seconds = Netsim.Engine.now (Scenario.engine scenario);
    workload_seconds = duration }

(* Convenience: mean of a sample set, 0 when empty. *)
let mean samples =
  if Netsim.Stats.Samples.count samples = 0 then 0.0
  else Netsim.Stats.Samples.mean samples

let percentile_or_zero samples p =
  if Netsim.Stats.Samples.count samples = 0 then 0.0
  else Netsim.Stats.Samples.percentile samples p
