(* Failure-injection tests: link state and valley-free routing, the
   failure-aware IRC selector, data-plane drop causes, registry
   re-registration, and the PCE's failover protocol. *)

open Core
open Nettypes

(* ------------------------------------------------------------------ *)
(* Topology under link failure                                         *)
(* ------------------------------------------------------------------ *)

let test_link_down_changes_routing () =
  let net = Topology.Builder.figure1 () in
  let as_s = net.Topology.Builder.domains.(0) in
  let as_d = net.Topology.Builder.domains.(1) in
  let h_s = as_s.Topology.Domain.hosts.(0) in
  let h_d = as_d.Topology.Domain.hosts.(0) in
  let before = Topology.Builder.latency net h_s h_d in
  (* Kill the uplink the shortest path uses; hosts stay reachable via
     the sibling border but the path gets longer or equal. *)
  let b0 = as_s.Topology.Domain.borders.(0) in
  Topology.Graph.set_link_up net.Topology.Builder.graph
    b0.Topology.Domain.uplink false;
  let after = Topology.Builder.latency net h_s h_d in
  Alcotest.(check bool) "still reachable" true (after < infinity);
  Alcotest.(check bool) "path did not get shorter" true (after >= before);
  (* Restore brings the old latency back. *)
  Topology.Graph.set_link_up net.Topology.Builder.graph
    b0.Topology.Domain.uplink true;
  Alcotest.(check (float 1e-9)) "restored" before
    (Topology.Builder.latency net h_s h_d)

let test_border_unreachable_when_uplink_down () =
  let net = Topology.Builder.figure1 () in
  let as_s = net.Topology.Builder.domains.(0) in
  let as_d = net.Topology.Builder.domains.(1) in
  let b_d0 = as_d.Topology.Domain.borders.(0) in
  Topology.Graph.set_link_up net.Topology.Builder.graph
    b_d0.Topology.Domain.uplink false;
  (* From outside, the border with the dead uplink has no route (it may
     not be entered through a sibling border). *)
  (match
     Topology.Graph.latency_between net.Topology.Builder.graph
       as_s.Topology.Domain.borders.(0).Topology.Domain.router
       b_d0.Topology.Domain.router
   with
  | exception Not_found -> ()
  | l -> Alcotest.failf "dead border reachable from outside (%.3f)" l);
  (* From inside its own domain it is still reachable (IGP). *)
  Alcotest.(check bool) "reachable internally" true
    (Topology.Graph.latency_between net.Topology.Builder.graph
       as_d.Topology.Domain.hosts.(0) b_d0.Topology.Domain.router
    < infinity)

let test_no_transit_through_domains () =
  (* The shortest path between two provider cores never dips through a
     domain's internal wiring. *)
  let net =
    Topology.Builder.generate (Netsim.Rng.create 4)
      { Topology.Builder.default_params with domain_count = 6; provider_count = 4 }
  in
  let graph = net.Topology.Builder.graph in
  Array.iter
    (fun (pi : Topology.Builder.provider) ->
      Array.iter
        (fun (pj : Topology.Builder.provider) ->
          if pi.Topology.Builder.core < pj.Topology.Builder.core then begin
            let path =
              Topology.Graph.path_between graph pi.Topology.Builder.core
                pj.Topology.Builder.core
            in
            List.iter
              (fun node ->
                match (Topology.Graph.node graph node).Topology.Node.kind with
                | Topology.Node.Hub | Topology.Node.Host ->
                    Alcotest.fail "core-to-core path transits a domain"
                | Topology.Node.Provider_core | Topology.Node.Border_router
                | Topology.Node.Dns_server | Topology.Node.Pce ->
                    ())
              path
          end)
        net.Topology.Builder.providers)
    net.Topology.Builder.providers

let test_advertised_mapping_drops_dead_rloc () =
  let net = Topology.Builder.figure1 () in
  let as_d = net.Topology.Builder.domains.(1) in
  let full = Topology.Domain.advertised_mapping as_d ~ttl:60.0 in
  Alcotest.(check int) "two rlocs" 2 (List.length full.Mapping.rlocs);
  Topology.Graph.set_link_up net.Topology.Builder.graph
    as_d.Topology.Domain.borders.(0).Topology.Domain.uplink false;
  let reduced = Topology.Domain.advertised_mapping as_d ~ttl:60.0 in
  Alcotest.(check int) "one live rloc" 1 (List.length reduced.Mapping.rlocs);
  Alcotest.(check string) "the live one"
    (Ipv4.addr_to_string as_d.Topology.Domain.borders.(1).Topology.Domain.rloc)
    (Ipv4.addr_to_string
       (List.hd reduced.Mapping.rlocs).Mapping.rloc_addr)

(* ------------------------------------------------------------------ *)
(* Selector avoids dead uplinks                                        *)
(* ------------------------------------------------------------------ *)

let test_selector_avoids_dead_uplink () =
  let net = Topology.Builder.figure1 () in
  let as_s = net.Topology.Builder.domains.(0) in
  let sel =
    Irc.Selector.create ~domain:as_s ~graph:net.Topology.Builder.graph
      ~policy:Irc.Policy.Min_load
  in
  let b0 = as_s.Topology.Domain.borders.(0) in
  Topology.Graph.set_link_up net.Topology.Builder.graph
    b0.Topology.Domain.uplink false;
  for i = 1 to 10 do
    let chosen =
      Irc.Selector.choose_egress sel ~src:(Topology.Domain.host_eid as_s 0)
        ~dst:(Ipv4.addr_of_string (Printf.sprintf "100.0.9.%d" i)) ()
    in
    Alcotest.(check int) "never the dead border"
      as_s.Topology.Domain.borders.(1).Topology.Domain.router
      chosen.Topology.Domain.router
  done

let test_selector_sticky_voided_by_failure () =
  let net = Topology.Builder.figure1 () in
  let as_s = net.Topology.Builder.domains.(0) in
  let sel =
    Irc.Selector.create ~domain:as_s ~graph:net.Topology.Builder.graph
      ~policy:Irc.Policy.Flow_hash
  in
  let src = Topology.Domain.host_eid as_s 0 in
  let dst = Ipv4.addr_of_string "100.0.9.1" in
  let first = Irc.Selector.choose_egress sel ~src ~dst () in
  (* Kill whatever it picked; the sticky assignment must be replaced. *)
  let border =
    match
      Array.find_opt
        (fun b -> b.Topology.Domain.router = first.Topology.Domain.router)
        as_s.Topology.Domain.borders
    with
    | Some b -> b
    | None -> Alcotest.fail "selector returned a foreign border"
  in
  Topology.Graph.set_link_up net.Topology.Builder.graph
    border.Topology.Domain.uplink false;
  let second = Irc.Selector.choose_egress sel ~src ~dst () in
  Alcotest.(check bool) "moved off the dead uplink" true
    (second.Topology.Domain.router <> first.Topology.Domain.router)

(* ------------------------------------------------------------------ *)
(* Data plane drop causes                                              *)
(* ------------------------------------------------------------------ *)

let test_tunnel_to_dead_rloc_drops () =
  let s =
    Scenario.build { Scenario.default_config with Scenario.cp = Scenario.Cp_nerd }
  in
  let internet = Scenario.internet s in
  let as_d = internet.Topology.Builder.domains.(1) in
  (* NERD has pushed the full database; kill one of AS_D's uplinks
     without telling anyone (no re-registration). *)
  Topology.Graph.set_link_up internet.Topology.Builder.graph
    as_d.Topology.Domain.borders.(0).Topology.Domain.uplink false;
  (* Open enough connections that some hash onto the dead locator. *)
  for port = 6300 to 6315 do
    let flow =
      Flow.create
        ~src:(Topology.Domain.host_eid internet.Topology.Builder.domains.(0) 0)
        ~dst:(Topology.Domain.host_eid as_d (port mod 2))
        ~src_port:port ()
    in
    ignore (Scenario.open_connection s ~flow ~data_packets:1 ())
  done;
  Scenario.run s;
  let causes = Lispdp.Dataplane.drop_causes (Scenario.dataplane s) in
  Alcotest.(check bool) "rloc-unreachable drops recorded" true
    (List.mem_assoc "rloc-unreachable" causes)

let test_drop_events_reach_sink () =
  let s =
    Scenario.build { Scenario.default_config with Scenario.cp = Scenario.Cp_pull_drop }
  in
  let observed = ref [] in
  let hub = Scenario.obs s in
  Obs.Hub.add_sink hub (fun e ->
      match e.Obs.Event.kind with
      | Obs.Event.Packet_drop { cause } ->
          observed := (cause, e.Obs.Event.time) :: !observed
      | _ -> ());
  Obs.Hub.set_enabled hub true;
  let internet = Scenario.internet s in
  let flow =
    Flow.create
      ~src:(Topology.Domain.host_eid internet.Topology.Builder.domains.(0) 0)
      ~dst:(Topology.Domain.host_eid internet.Topology.Builder.domains.(1) 0)
      ~src_port:6320 ()
  in
  ignore (Scenario.open_connection s ~flow ~data_packets:1 ());
  Scenario.run s;
  match !observed with
  | (cause, now) :: _ ->
      Alcotest.(check string) "cause" "mapping-resolution-drop" cause;
      Alcotest.(check bool) "timestamped" true (now > 0.0)
  | [] -> Alcotest.fail "the sink never saw a drop"

(* ------------------------------------------------------------------ *)
(* PCE failover                                                        *)
(* ------------------------------------------------------------------ *)

(* One established connection toward AS_D, then AS_D's serving uplink
   dies.  The monitoring loop must detect it and repair the mappings so
   a follow-up transfer (same hosts, cache-served DNS) flows again. *)
let test_pce_failover_repairs_mappings () =
  let s = Scenario.build Scenario.default_config in
  (match Scenario.pce s with
  | Some pce ->
      Pce_control.run_monitoring pce ~interval:0.5 ~until:30.0 ~rebalance:false
  | None -> Alcotest.fail "expected a PCE scenario");
  let internet = Scenario.internet s in
  let as_s = internet.Topology.Builder.domains.(0) in
  let as_d = internet.Topology.Builder.domains.(1) in
  let flow1 =
    Flow.create
      ~src:(Topology.Domain.host_eid as_s 0)
      ~dst:(Topology.Domain.host_eid as_d 0)
      ~src_port:6400 ()
  in
  let c1 = Scenario.open_connection s ~flow:flow1 ~data_packets:2 () in
  (* At t = 2 s: find which AS_D uplink carries the flow and fail it. *)
  ignore
    (Netsim.Engine.schedule (Scenario.engine s) ~delay:2.0 (fun () ->
         let serving =
           let rec scan i =
             if i >= Array.length as_d.Topology.Domain.borders then 0
             else
               let b = as_d.Topology.Domain.borders.(i) in
               let inbound =
                 Topology.Link.bytes_from b.Topology.Domain.uplink
                   (Topology.Link.other_end b.Topology.Domain.uplink
                      b.Topology.Domain.router)
               in
               if inbound > 0 then i else scan (i + 1)
           in
           scan 0
         in
         Scenario.fail_uplink s ~domain:1 ~border:serving));
  (* At t = 5 s (detection done): a second connection between the same
     hosts; its DNS answer is cache-served, so it relies entirely on the
     repaired PCE databases. *)
  let c2 = ref None in
  ignore
    (Netsim.Engine.schedule (Scenario.engine s) ~delay:5.0 (fun () ->
         c2 :=
           Some
             (Scenario.open_connection s
                ~flow:{ flow1 with Flow.src_port = 6401 }
                ~data_packets:2 ())));
  Scenario.run s;
  Alcotest.(check bool) "first connection established" true
    (Option.bind c1.Scenario.tcp Workload.Tcp.handshake_time <> None);
  (match Scenario.pce s with
  | Some pce -> Alcotest.(check int) "one failover handled" 1 (Pce_control.failovers pce)
  | None -> ());
  match !c2 with
  | Some c ->
      Alcotest.(check bool) "post-failure connection established" true
        (Option.bind c.Scenario.tcp Workload.Tcp.handshake_time <> None);
      (match c.Scenario.tcp with
      | Some conn ->
          Alcotest.(check int) "without retransmission" 1
            conn.Workload.Tcp.syn_transmissions;
          Alcotest.(check int) "all data flowed" 2 conn.Workload.Tcp.data_delivered
      | None -> ())
  | None -> Alcotest.fail "second connection never opened"

let test_pce_failover_without_monitoring_blackholes () =
  (* Same scenario but no monitoring loop: nothing detects the failure,
     so the cache-served second connection black-holes. *)
  let s = Scenario.build Scenario.default_config in
  let internet = Scenario.internet s in
  let as_s = internet.Topology.Builder.domains.(0) in
  let as_d = internet.Topology.Builder.domains.(1) in
  let flow1 =
    Flow.create
      ~src:(Topology.Domain.host_eid as_s 0)
      ~dst:(Topology.Domain.host_eid as_d 0)
      ~src_port:6402 ()
  in
  ignore (Scenario.open_connection s ~flow:flow1 ~data_packets:2 ());
  ignore
    (Netsim.Engine.schedule (Scenario.engine s) ~delay:2.0 (fun () ->
         (* Fail every uplink that saw traffic (the serving one). *)
         Array.iteri
           (fun i b ->
             let inbound =
               Topology.Link.bytes_from b.Topology.Domain.uplink
                 (Topology.Link.other_end b.Topology.Domain.uplink
                    b.Topology.Domain.router)
             in
             if inbound > 0 then Scenario.fail_uplink s ~domain:1 ~border:i)
           as_d.Topology.Domain.borders));
  let c2 = ref None in
  ignore
    (Netsim.Engine.schedule (Scenario.engine s) ~delay:5.0 (fun () ->
         c2 :=
           Some
             (Scenario.open_connection s
                ~flow:{ flow1 with Flow.src_port = 6403 }
                ~data_packets:2 ())));
  Scenario.run s;
  match !c2 with
  | Some c -> (
      match c.Scenario.tcp with
      | Some conn ->
          Alcotest.(check bool) "stale mapping black-holes the SYN" true
            (conn.Workload.Tcp.syn_transmissions > 1 || conn.Workload.Tcp.failed)
      | None -> Alcotest.fail "tcp never started")
  | None -> Alcotest.fail "second connection never opened"

(* SMR: after a mapping change, soliciting evicts the stale (and
   gleaned) entries at remote ITRs, so an in-flight transfer recovers in
   about one round trip instead of waiting for cache expiry. *)
let smr_recovery cp =
  let s =
    Scenario.build
      { Scenario.default_config with
        Scenario.cp;
        topology =
          `Random
            { Topology.Builder.default_params with
              Topology.Builder.domain_count = 4; borders_per_domain = 2 };
        mapping_ttl = 1000.0 (* expiry cannot rescue anyone *) }
  in
  let internet = Scenario.internet s in
  let victim = internet.Topology.Builder.domains.(0) in
  let flow =
    Flow.create
      ~src:(Topology.Domain.host_eid internet.Topology.Builder.domains.(1) 0)
      ~dst:(Topology.Domain.host_eid victim 0)
      ~src_port:6500 ()
  in
  let c = Scenario.open_connection s ~flow ~data_packets:3000 () in
  ignore
    (Netsim.Engine.schedule (Scenario.engine s) ~delay:2.0 (fun () ->
         (* Fail the single victim uplink carrying the most inbound. *)
         let best = ref 0 and best_bytes = ref (-1) in
         Array.iteri
           (fun i b ->
             let inbound =
               Topology.Link.bytes_from b.Topology.Domain.uplink
                 (Topology.Link.other_end b.Topology.Domain.uplink
                    b.Topology.Domain.router)
             in
             if inbound > !best_bytes then begin
               best := i;
               best_bytes := inbound
             end)
           victim.Topology.Domain.borders;
         Scenario.fail_uplink s ~domain:0 ~border:!best));
  Scenario.run s;
  match c.Scenario.tcp with
  | Some conn ->
      ( conn.Workload.Tcp.data_delivered,
        (Lispdp.Dataplane.counters (Scenario.dataplane s)).Lispdp.Dataplane.dropped )
  | None -> Alcotest.fail "connection never started"

let test_smr_restores_inflight_transfer () =
  let delivered_queue, drops_queue = smr_recovery (Scenario.Cp_pull_queue 64) in
  let delivered_smr, drops_smr = smr_recovery (Scenario.Cp_pull_smr 64) in
  Alcotest.(check bool) "plain queue black-holes most of the transfer" true
    (drops_queue > 1000);
  Alcotest.(check bool) "smr drops two orders less" true
    (drops_smr * 20 < drops_queue);
  Alcotest.(check bool) "smr delivers almost everything" true
    (delivered_smr > delivered_queue + 1000)

let test_scenario_restore_uplink () =
  let s = Scenario.build Scenario.default_config in
  Scenario.fail_uplink s ~domain:1 ~border:0;
  let rlocs () =
    List.length
      (Mapsys.Registry.mapping_of_domain (Scenario.registry s) 1).Mapping.rlocs
  in
  Alcotest.(check int) "registry shrunk" 1 (rlocs ());
  Scenario.restore_uplink s ~domain:1 ~border:0;
  Alcotest.(check int) "registry restored" 2 (rlocs ())

let () =
  Alcotest.run "failover"
    [
      ( "topology",
        [
          Alcotest.test_case "link down reroutes" `Quick test_link_down_changes_routing;
          Alcotest.test_case "dead border unreachable" `Quick test_border_unreachable_when_uplink_down;
          Alcotest.test_case "no transit through domains" `Quick test_no_transit_through_domains;
          Alcotest.test_case "advertised mapping shrinks" `Quick test_advertised_mapping_drops_dead_rloc;
        ] );
      ( "selector",
        [
          Alcotest.test_case "avoids dead uplink" `Quick test_selector_avoids_dead_uplink;
          Alcotest.test_case "sticky voided" `Quick test_selector_sticky_voided_by_failure;
        ] );
      ( "dataplane",
        [
          Alcotest.test_case "dead rloc drops" `Quick test_tunnel_to_dead_rloc_drops;
          Alcotest.test_case "drop observer" `Quick test_drop_events_reach_sink;
        ] );
      ( "pce",
        [
          Alcotest.test_case "failover repairs" `Quick test_pce_failover_repairs_mappings;
          Alcotest.test_case "no monitoring blackholes" `Quick test_pce_failover_without_monitoring_blackholes;
          Alcotest.test_case "smr recovery" `Quick test_smr_restores_inflight_transfer;
          Alcotest.test_case "restore uplink" `Quick test_scenario_restore_uplink;
        ] );
    ]
