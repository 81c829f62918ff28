(* F1 — Figure 1 walkthrough: one flow through the two-domain scenario
   under the PCE control plane, with the step 1-8 event trace and the
   headline quantities of all three claims. *)

open Core

let id = "f1"
let title = "F1: architecture walkthrough of Figure 1 (steps 1-8)"

let build () =
  Scenario.build
    { Scenario.default_config with
      Scenario.cp = Scenario.Cp_pce Pce_control.default_options }

let connect scenario =
  let internet = Scenario.internet scenario in
  let as_s = internet.Topology.Builder.domains.(0) in
  let as_d = internet.Topology.Builder.domains.(1) in
  let flow =
    Nettypes.Flow.create
      ~src:(Topology.Domain.host_eid as_s 0)
      ~dst:(Topology.Domain.host_eid as_d 0)
      ~src_port:40000 ()
  in
  let connection = Scenario.open_connection scenario ~flow ~data_packets:3 () in
  Scenario.run scenario;
  connection

let run () =
  let scenario = build () in
  (scenario, connect scenario)

let table scenario connection =
  let counters = Lispdp.Dataplane.counters (Scenario.dataplane scenario) in
  let table =
    Metrics.Table.create ~title ~columns:[ "quantity"; "value" ]
  in
  let dns = Option.value ~default:nan connection.Scenario.dns_time in
  let handshake =
    Option.value ~default:nan
      (Option.bind connection.Scenario.tcp Workload.Tcp.handshake_time)
  in
  let setup = Option.value ~default:nan (Scenario.total_setup_time connection) in
  Metrics.Table.add_rows table
    [ [ "T_DNS (ms, cold)"; Metrics.Table.cell_ms dns ];
      [ "TCP handshake (ms)"; Metrics.Table.cell_ms handshake ];
      [ "total setup (ms)"; Metrics.Table.cell_ms setup ];
      [ "T_map beyond T_DNS (ms)"; Metrics.Table.cell_ms (setup -. dns -. handshake) ];
      [ "packets dropped"; Metrics.Table.cell_int counters.Lispdp.Dataplane.dropped ];
      [ "SYN transmissions";
        (match connection.Scenario.tcp with
        | Some c -> Metrics.Table.cell_int c.Workload.Tcp.syn_transmissions
        | None -> "-") ];
      [ "control messages";
        Metrics.Table.cell_int
          (Mapsys.Cp_stats.message_total (Scenario.cp_stats scenario)) ] ];
  table

let tables () =
  let scenario, connection = run () in
  [ table scenario connection ]

let print () =
  let scenario = build () in
  let walkthrough = Scenario.walkthrough scenario in
  let connection = connect scenario in
  Format.printf "--- event trace (steps 1-8 of the paper's Figure 1) ---@.";
  Format.printf "%a@." Obs.Event.pp_log (walkthrough ());
  Metrics.Table.print (table scenario connection)
