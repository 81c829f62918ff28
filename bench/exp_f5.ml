(* F5 — extension experiment: RLOC failure recovery.  One of the victim
   domain's access links dies mid-run while long transfers are aimed at
   it.  Every control plane keeps serving traffic hashed to the live
   locators; the question is how long packets addressed to the dead
   locator keep black-holing:

   - pull control planes recover when the poisoned map-cache entries
     expire (bounded by the mapping TTL) and are re-fetched;
   - NERD recovers after the database update propagates;
   - the PCE detects the failure in its monitoring loop and repairs both
     directions with direct PCE-to-PCE updates — the "dynamic management
     of the mappings" the paper's abstract promises. *)

open Core

let id = "f5"
let title = "F5: blackout after an RLOC failure (mapping TTL 10s)"

let victim = 0
(* Deliberately between monitoring ticks so the PCE pays a realistic
   detection delay. *)
let fail_at = 8.13

let topology_params =
  { Topology.Builder.default_params with
    Topology.Builder.domain_count = 8; provider_count = 4;
    borders_per_domain = 3; hosts_per_domain = 4 }

type timeline = {
  mutable drops_before : int;
  mutable drops_after : int;
  mutable last_drop : float;
}

let spec_for cp timeline =
  let config =
    { Scenario.default_config with
      Scenario.cp; topology = `Random topology_params; seed = 27;
      mapping_ttl = 10.0; nerd_propagation = 5.0 }
  in
  let inject scenario =
    let hub = Scenario.obs scenario in
    Obs.Hub.add_sink hub (fun e ->
        match e.Obs.Event.kind with
        | Obs.Event.Packet_drop _ ->
            if e.Obs.Event.time < fail_at then
              timeline.drops_before <- timeline.drops_before + 1
            else begin
              timeline.drops_after <- timeline.drops_after + 1;
              timeline.last_drop <- e.Obs.Event.time
            end
        | _ -> ());
    Obs.Hub.set_enabled hub true;
    ignore
      (Netsim.Engine.schedule (Scenario.engine scenario) ~delay:fail_at
         (fun () -> Scenario.fail_uplink scenario ~domain:victim ~border:0))
  in
  { (Harness.default_spec config) with
    Harness.flows = 300; rate = 20.0; hotspots = Some [ (victim, 1.0) ];
    sources = Some [ 1; 2; 3; 4; 5; 6; 7 ]; data_packets = `Fixed 600;
    data_bytes = 1400; monitor = true; rebalance = false;
    monitor_interval = 0.5; pre_run = Some inject }

let cps =
  [ ("pull-drop", Scenario.Cp_pull_drop);
    ("pull-queue", Scenario.Cp_pull_queue 64);
    ("pull-smr", Scenario.Cp_pull_smr 64);
    ("nerd-push", Scenario.Cp_nerd);
    ("pce", Scenario.Cp_pce Pce_control.default_options) ]

let tables () =
  let table =
    Metrics.Table.create ~title
      ~columns:
        [ "cp"; "recovery mechanism"; "drops after failure";
          "blackout (s)"; "failed conns"; "failovers" ]
  in
  List.iter
    (fun (label, cp) ->
      let timeline = { drops_before = 0; drops_after = 0; last_drop = fail_at } in
      let r = Harness.run ~label (spec_for cp timeline) in
      let mechanism =
        match cp with
        | Scenario.Cp_pull_drop | Scenario.Cp_pull_queue _
        | Scenario.Cp_pull_detour | Scenario.Cp_cons | Scenario.Cp_msmr ->
            "map-cache TTL expiry"
        | Scenario.Cp_pull_smr _ -> "SMR-driven eviction"
        | Scenario.Cp_nerd -> "database re-push (5s)"
        | Scenario.Cp_pce _ -> "monitor + PCE-to-PCE update"
      in
      let failovers =
        match Scenario.pce r.Harness.scenario with
        | Some pce -> Pce_control.failovers pce
        | None -> 0
      in
      Metrics.Table.add_row table
        [ label; mechanism;
          Metrics.Table.cell_int timeline.drops_after;
          Metrics.Table.cell_float ~decimals:2 (timeline.last_drop -. fail_at);
          Metrics.Table.cell_int r.Harness.failed;
          Metrics.Table.cell_int failovers ])
    cps;
  [ table ]

let print () = List.iter Metrics.Table.print (tables ())
