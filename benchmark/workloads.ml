(* The benchmark's workloads and the run that drives them.

   Each workload is one scenario built through the public Core and
   Workload APIs: a random internet, one control plane, and an open
   loop of Poisson-arriving DNS-then-TCP connections.  The seed is the
   only input; topology, arrivals, destinations and flow sizes all
   derive from it.  Nothing here uses bench/harness.ml, so edits to the
   experiment harness cannot change what the benchmark measures. *)

open Core

type packets = Fixed of int | Pareto of float  (* mean packets per flow *)

type t = {
  name : string;
  config : Scenario.config;  (* [seed] is replaced by the run's seed *)
  flows : int;
  rate : float;  (* flow arrivals per simulated second *)
  zipf_alpha : float;
  packets : packets;
  data_bytes : int;
  monitor : (float * bool) option;  (* PCE monitor interval, rebalance *)
  flaps : (float * float) option;
      (* every [fst] seconds of the arrival window, border 0 of domain
         [k mod domains] fails for [snd] seconds *)
}

let internet ~domains ~providers ~borders =
  `Random
    { Topology.Builder.default_params with
      Topology.Builder.domain_count = domains; provider_count = providers;
      borders_per_domain = borders; hosts_per_domain = 4 }

let pce = Scenario.Cp_pce Pce_control.default_options

(* Why each workload exists is recorded in benchmark/README.md: every
   one stresses a different layer, and each leaves some other layer
   idle so a change to that layer predicts no change there. *)
let all =
  [ { name = "pce-wide";
      config =
        { Scenario.default_config with
          Scenario.topology = internet ~domains:64 ~providers:8 ~borders:2;
          cp = pce };
      flows = 60_000; rate = 1000.0; zipf_alpha = 0.9; packets = Fixed 4;
      data_bytes = 1200; monitor = Some (1.0, false); flaps = None };
    { name = "pull-churn";
      config =
        { Scenario.default_config with
          Scenario.topology = internet ~domains:32 ~providers:8 ~borders:2;
          cp = Scenario.Cp_pull_queue 32; cache_capacity = 8;
          cache_policy = Lispdp.Map_cache.Lru; mapping_ttl = 600.0 };
      flows = 150_000; rate = 500.0; zipf_alpha = 0.6; packets = Fixed 4;
      data_bytes = 1200; monitor = None; flaps = None };
    { name = "nerd-bulk";
      config =
        { Scenario.default_config with
          Scenario.topology = internet ~domains:16 ~providers:4 ~borders:2;
          cp = Scenario.Cp_nerd };
      flows = 50_000; rate = 200.0; zipf_alpha = 1.0; packets = Pareto 64.0;
      data_bytes = 1200; monitor = None; flaps = None };
    { name = "pce-flap";
      config =
        { Scenario.default_config with
          Scenario.topology = internet ~domains:32 ~providers:8 ~borders:3;
          cp = pce; telemetry = Some Netsim.Telemetry.default_config };
      flows = 2000; rate = 100.0; zipf_alpha = 0.9; packets = Fixed 16;
      data_bytes = 1200; monitor = Some (0.5, true); flaps = Some (2.0, 1.0) } ]

let find name = List.find_opt (fun w -> w.name = name) all

(* Stratified Pareto flow sizes: the midpoints of [n] equal-probability
   strata of a shape-1.3 Pareto with the given mean, in seed-shuffled
   order.  An i.i.d. draw at shape 1.3 has infinite variance, so its
   total packet count (and with it the run time) would swing from seed
   to seed; with strata every seed carries the same packet volume and
   only the assignment of sizes to flows changes. *)
let pareto_sizes rng ~mean n =
  let shape = 1.3 in
  let scale = mean *. (shape -. 1.0) /. shape in
  let sizes =
    Array.init n (fun i ->
        let u = (float_of_int i +. 0.5) /. float_of_int n in
        max 1 (int_of_float (scale /. ((1.0 -. u) ** (1.0 /. shape)))))
  in
  Netsim.Rng.shuffle rng sizes;
  sizes

(* The benchmark's own profiler phases, around its calls into the
   library: [setup] covers everything before the first event, and
   [workload] each arrival's flow draw and connection open. *)
let ph_setup = Obs.Prof.phase "setup"
let ph_workload = Obs.Prof.phase "workload"

type prepared = {
  scenario : Scenario.t;
  opened : int ref;
  setup_s : float;  (* wall time from workload start to the first event *)
}

let scenario_config w ~seed = { w.config with Scenario.seed }

(* The destination stream: [Traffic] on the scenario RNG's first split,
   exactly as [prepare] draws it, so the probes replay the run's flows. *)
let traffic w scenario =
  Workload.Traffic.create
    ~rng:(Netsim.Rng.split (Scenario.rng scenario))
    ~internet:(Scenario.internet scenario) ~zipf_alpha:w.zipf_alpha ()

let schedule_flaps scenario ~duration (every, down_for) =
  let engine = Scenario.engine scenario in
  let domains = Array.length (Scenario.internet scenario).Topology.Builder.domains in
  let k = ref 1 in
  while float_of_int !k *. every < duration do
    let domain = !k mod domains and at = float_of_int !k *. every in
    ignore
      (Netsim.Engine.schedule_at engine ~time:at (fun () ->
           Scenario.fail_uplink scenario ~domain ~border:0));
    ignore
      (Netsim.Engine.schedule_at engine ~time:(at +. down_for) (fun () ->
           Scenario.restore_uplink scenario ~domain ~border:0));
    incr k
  done

(* Build the scenario and schedule the whole workload; no event fires.
   [flows] overrides the workload's flow count (the tests run small). *)
let prepare ?flows w ~seed =
  let flows = Option.value flows ~default:w.flows in
  let t0 = Obs.Prof.now_s () in
  Obs.Prof.enter ph_setup;
  let scenario = Scenario.build (scenario_config w ~seed) in
  let traffic = traffic w scenario in
  let size_rng = Netsim.Rng.split (Scenario.rng scenario) in
  let arrivals_rng = Netsim.Rng.split (Scenario.rng scenario) in
  let packets_of =
    match w.packets with
    | Fixed n -> fun _ -> n
    | Pareto mean ->
        let sizes = pareto_sizes size_rng ~mean flows in
        Array.get sizes
  in
  let duration = float_of_int flows /. w.rate in
  (match (Scenario.pce scenario, w.monitor) with
  | Some pce, Some (interval, rebalance) ->
      Pce_control.run_monitoring pce ~interval ~until:(duration +. 10.0) ~rebalance
  | _, _ -> ());
  Option.iter (schedule_flaps scenario ~duration) w.flaps;
  (* The first [flows] arrivals of a Poisson stream: the stream's window
     runs six standard deviations past the nominal one, so the count is
     reached, and later arrivals are ignored.  A fixed count keeps
     flows/s from following the Poisson count on workloads whose cost is
     mostly per run rather than per flow (pce-flap). *)
  let n = float_of_int flows in
  let window = (n +. (6.0 *. sqrt n) +. 10.0) /. w.rate in
  let opened = ref 0 in
  Workload.Arrivals.poisson_stream ~engine:(Scenario.engine scenario)
    ~rng:arrivals_rng ~rate:w.rate ~duration:window ~f:(fun i ->
      if i < flows then begin
        Obs.Prof.enter ph_workload;
        let flow = Workload.Traffic.random_flow traffic () in
        incr opened;
        ignore
          (Scenario.open_connection scenario ~flow ~data_packets:(packets_of i)
             ~data_bytes:w.data_bytes ());
        Obs.Prof.leave ph_workload
      end);
  Obs.Prof.leave ph_setup;
  { scenario; opened; setup_s = Obs.Prof.now_s () -. t0 }

type run = {
  scenario : Scenario.t;
  opened : int;
  setup_s : float;
  run_s : float;  (* wall time of [Scenario.run] *)
  minor_words : float;  (* GC deltas over [Scenario.run] *)
  promoted_words : float;
  major_collections : int;
}

let run ?flows w ~seed =
  let p = prepare ?flows w ~seed in
  let gc0 = Gc.quick_stat () in
  let t0 = Obs.Prof.now_s () in
  Scenario.run p.scenario;
  let run_s = Obs.Prof.now_s () -. t0 in
  let gc1 = Gc.quick_stat () in
  { scenario = p.scenario; opened = !(p.opened); setup_s = p.setup_s; run_s;
    minor_words = gc1.Gc.minor_words -. gc0.Gc.minor_words;
    promoted_words = gc1.Gc.promoted_words -. gc0.Gc.promoted_words;
    major_collections = gc1.Gc.major_collections - gc0.Gc.major_collections }

(* The end-to-end figure: flows opened per wall second of set-up plus
   simulation. *)
let flows_per_s r = float_of_int r.opened /. (r.setup_s +. r.run_s)
