(* TE1 — claim C3, measured by the telemetry plane: inbound fairness of
   a multihomed victim domain, PCE vs symmetric LISP ingress.

   Same adversarial setup as T4 (every other domain aims heavy-tailed
   flows at the victim while unrelated background traffic loads one
   uplink), but the quantities come from the {!Netsim.Telemetry} plane
   instead of ad-hoc link-byte snapshots: per-provider inbound byte
   shares, Jain's fairness index (cumulative over the workload window
   and sampled over time from the sliding window), and drop counts.
   Each (control plane, seed) cell records a "telemetry" {!Bench_row};
   the PCE rows are gated in `bench --check` on the inbound Jain index
   — the first direct, gated measurement of the paper's TE claim. *)

open Core

let id = "te1"
let title = "TE1: telemetry-measured inbound fairness, PCE vs symmetric ingress"

let victim = 0
let warmup = 3.0
let workload_window = 20.0
let sample_every = 2.0

let params =
  { Topology.Builder.default_params with
    Topology.Builder.domain_count = 12; provider_count = 6;
    borders_per_domain = 4; hosts_per_domain = 6;
    access_capacity_bps = 20e6 }

(* A short sliding window (last 4 simulated seconds) so the sampled
   fairness series reacts to the IRC engine's moves; cumulative totals
   are windowless and unaffected by the ring size. *)
let telemetry_config =
  { Netsim.Telemetry.window_s = 1.0; slots = 4; topk = 32 }

(* The telemetry direction index of a border's uplink that carries
   provider->customer traffic (the opposite of the egress direction
   Scenario registers). *)
let ingress_dir border =
  let link = border.Topology.Domain.uplink in
  if Topology.Link.a link = border.Topology.Domain.router then 1 else 0

let victim_borders scenario =
  let internet = Scenario.internet scenario in
  internet.Topology.Builder.domains.(victim).Topology.Domain.borders

(* Every TE1 scenario is built with [telemetry_config]. *)
let plane scenario = Option.get (Scenario.telemetry scenario)

let uplink_stat scenario b ~dir =
  Netsim.Telemetry.link_stat (plane scenario)
    ~link:(Topology.Link.id b.Topology.Domain.uplink) ~dir

let inbound_cum scenario =
  Array.map
    (fun b -> (uplink_stat scenario b ~dir:(ingress_dir b)).st_bytes)
    (victim_borders scenario)

let outbound_cum scenario =
  Array.map
    (fun b -> (uplink_stat scenario b ~dir:(1 - ingress_dir b)).st_bytes)
    (victim_borders scenario)

(* Per-run capture, reset by [pre_run]: harness runs are sequential
   within a worker, so plain refs are safe (same pattern as T4's
   snapshot table). *)
let warm_in : int array ref = ref [||]
let warm_out : int array ref = ref [||]
let jain_samples : (float * float) list ref = ref []

(* Unrelated 10 Mbit/s entering through the victim's first uplink —
   half the access capacity, invisible to static mapping weights,
   visible to the PCE's load monitors (and to the telemetry plane,
   since Graph.account_path feeds both). *)
let background_load scenario =
  let border = (victim_borders scenario).(0) in
  let router = border.Topology.Domain.router in
  let core = Topology.Link.other_end border.Topology.Domain.uplink router in
  let graph = (Scenario.internet scenario).Topology.Builder.graph in
  let engine = Scenario.engine scenario in
  let tick_interval = 0.05 in
  let bytes_per_tick = int_of_float (10e6 *. tick_interval /. 8.0) in
  let rec tick () =
    if Netsim.Engine.now engine < warmup +. workload_window +. 2.0 then begin
      (* The path from a provider core to a border router is the
         border's own uplink. *)
      Topology.Graph.account_path graph ~src:core ~dst:router
        ~bytes:bytes_per_tick;
      ignore (Netsim.Engine.schedule engine ~delay:tick_interval tick)
    end
  in
  ignore (Netsim.Engine.schedule engine ~delay:0.0 tick)

let pre_run scenario =
  warm_in := [||];
  warm_out := [||];
  jain_samples := [];
  background_load scenario;
  let engine = Scenario.engine scenario in
  ignore
    (Netsim.Engine.schedule engine ~delay:warmup (fun () ->
         warm_in := inbound_cum scenario;
         warm_out := outbound_cum scenario));
  (* Fairness-over-time: every [sample_every] seconds of the workload,
     the Jain index of the victim's per-uplink inbound bytes over the
     telemetry sliding window. *)
  let samples = int_of_float (workload_window /. sample_every) in
  for k = 1 to samples do
    let at = warmup +. (float_of_int k *. sample_every) in
    ignore
      (Netsim.Engine.schedule engine ~delay:at (fun () ->
           Netsim.Telemetry.touch (plane scenario)
             ~now:(Netsim.Engine.now engine);
           let win =
             Array.map
               (fun b ->
                 float_of_int
                   (uplink_stat scenario b ~dir:(ingress_dir b)).st_win_bytes)
               (victim_borders scenario)
           in
           jain_samples :=
             (at, Netsim.Stats.jain_index win) :: !jain_samples))
  done

let spec_for cp ~seed =
  let config =
    { Scenario.default_config with
      Scenario.cp; topology = `Random params; seed;
      telemetry = Some telemetry_config }
  in
  { (Harness.default_spec config) with
    Harness.flows = 800; rate = 40.0; hotspots = Some [ (victim, 1.0) ];
    sources = Some [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10; 11 ];
    data_packets = `Pareto 60.0; data_bytes = 1400; monitor = true;
    rebalance = true; arrival_delay = warmup; pre_run = Some pre_run }

type cell = {
  c_shares : float array;  (* inbound byte share per victim uplink *)
  c_jain_in : float;
  c_jain_out : float;
  c_ratio_in : float option;
  c_drops : int;
  c_samples : (float * float) list;  (* (t, sliding-window Jain) *)
}

let workload_delta cum warm =
  Array.mapi
    (fun i total ->
      let base = if Array.length warm > i then warm.(i) else 0 in
      float_of_int (total - base))
    cum

let measure cp ~seed =
  let r = Harness.run (spec_for cp ~seed) in
  let scenario = r.Harness.scenario in
  let in_bytes = workload_delta (inbound_cum scenario) !warm_in in
  let out_bytes = workload_delta (outbound_cum scenario) !warm_out in
  let total = Array.fold_left ( +. ) 0.0 in_bytes in
  let shares =
    Array.map (fun b -> if total > 0.0 then b /. total else 0.0) in_bytes
  in
  let ratio =
    let mx = Array.fold_left Float.max 0.0 in_bytes in
    let mn = Array.fold_left Float.min infinity in_bytes in
    if mn > 0.0 then Some (mx /. mn) else None
  in
  { c_shares = shares;
    c_jain_in = Netsim.Stats.jain_index in_bytes;
    c_jain_out = Netsim.Stats.jain_index out_bytes;
    c_ratio_in = ratio; c_drops = Harness.drops r;
    c_samples = List.rev !jain_samples }

let cps = [ ("symmetric", Scenario.Cp_nerd);
            ("pce", Scenario.Cp_pce Pce_control.default_options) ]

let seeds = [ 21; 22 ]

(* Acceptance gate on the PCE rows: with a 50%-capacity background load
   on one of four uplinks, static symmetric ingress lands well below
   this, the IRC-balanced PCE well above. *)
let pce_jain_gate = 0.8

let pct_list shares =
  String.concat "/"
    (Array.to_list
       (Array.map (fun s -> Printf.sprintf "%.0f" (s *. 100.0)) shares))

let tables () =
  let cells =
    List.map
      (fun (label, cp) ->
        (label, List.map (fun seed -> (seed, measure cp ~seed)) seeds))
      cps
  in
  let summary =
    Metrics.Table.create ~title
      ~columns:
        [ "cp"; "seed"; "in shares (%)"; "jain in"; "jain out";
          "max/min in"; "drops"; "gate" ]
  in
  List.iter
    (fun (label, runs) ->
      List.iter
        (fun (seed, c) ->
          let gated = label = "pce" in
          let ok = (not gated) || c.c_jain_in >= pce_jain_gate in
          let float x = Obs.Json.Float x in
          (* ratio_in is omitted when the least-loaded provider carried
             nothing; threshold 0.0 marks an ungated reference cell. *)
          Bench_row.record "telemetry"
            { Bench_row.run = Printf.sprintf "%s/s%d" label seed; ok;
              fields =
                [ ("cp", Obs.Json.String label);
                  ("providers", Obs.Json.Int (Array.length c.c_shares));
                  ( "in_share",
                    Obs.Json.List
                      (Array.to_list (Array.map float c.c_shares)) );
                  ("jain_in", float c.c_jain_in);
                  ("jain_out", float c.c_jain_out) ]
                @ (match c.c_ratio_in with
                  | Some ratio -> [ ("ratio_in", float ratio) ]
                  | None -> [])
                @ [ ("drops", Obs.Json.Int c.c_drops);
                    ( "threshold",
                      float (if gated then pce_jain_gate else 0.0) ) ] };
          Metrics.Table.add_row summary
            [ label; string_of_int seed; pct_list c.c_shares;
              Metrics.Table.cell_float c.c_jain_in;
              Metrics.Table.cell_float c.c_jain_out;
              (match c.c_ratio_in with
              | Some ratio -> Metrics.Table.cell_float ratio
              | None -> "inf");
              Metrics.Table.cell_int c.c_drops;
              (if gated then Printf.sprintf ">= %.2f" pce_jain_gate
               else "-") ])
        runs)
    cells;
  (* Inbound fairness over time, sliding-window Jain index averaged
     over seeds: the static ingress stays pinned by the background
     load; the PCE recovers as its monitors converge. *)
  let over_time =
    Metrics.Table.create ~title:"TE1: sliding-window inbound Jain over time"
      ~columns:("t (s)" :: List.map fst cells)
  in
  let times =
    match cells with
    | (_, (_, first) :: _) :: _ -> List.map fst first.c_samples
    | _ -> []
  in
  List.iter
    (fun t ->
      Metrics.Table.add_row over_time
        (Printf.sprintf "%.0f" t
        :: List.map
             (fun (_, runs) ->
               let vals =
                 List.filter_map
                   (fun (_, c) -> List.assoc_opt t c.c_samples)
                   runs
               in
               match vals with
               | [] -> "-"
               | _ ->
                   Metrics.Table.cell_float
                     (List.fold_left ( +. ) 0.0 vals
                     /. float_of_int (List.length vals)))
             cells))
    times;
  [ summary; over_time ]

let print () = List.iter Metrics.Table.print (tables ())
