(* Integration tests for the PCE control plane: the paper's three claims
   (no drops, T_map within T_DNS, independent ingress/egress TE), the
   step 1-8 walkthrough, and the two ablations (push scope, reverse
   multicast). *)

open Core
open Nettypes

let pce_config ?(options = Pce_control.default_options) () =
  { Scenario.default_config with Scenario.cp = Scenario.Cp_pce options }

let figure1_flow s ~port =
  let internet = Scenario.internet s in
  let as_s = internet.Topology.Builder.domains.(0) in
  let as_d = internet.Topology.Builder.domains.(1) in
  Flow.create
    ~src:(Topology.Domain.host_eid as_s 0)
    ~dst:(Topology.Domain.host_eid as_d 0)
    ~src_port:port ()

let run_one_connection config ~port =
  let s = Scenario.build config in
  let flow = figure1_flow s ~port in
  let c = Scenario.open_connection s ~flow ~data_packets:5 () in
  Scenario.run s;
  (s, c)

let dropped s = (Lispdp.Dataplane.counters (Scenario.dataplane s)).Lispdp.Dataplane.dropped

(* ------------------------------------------------------------------ *)
(* Claim C1: no packet loss during mapping resolution                  *)
(* ------------------------------------------------------------------ *)

let test_c1_pce_no_drops () =
  let s, c = run_one_connection (pce_config ()) ~port:6000 in
  Alcotest.(check int) "zero drops under PCE" 0 (dropped s);
  match c.Scenario.tcp with
  | Some conn ->
      Alcotest.(check int) "single SYN suffices" 1 conn.Workload.Tcp.syn_transmissions;
      Alcotest.(check int) "all data delivered" 5 conn.Workload.Tcp.data_delivered
  | None -> Alcotest.fail "connection never started"

let test_c1_pull_drop_loses_first_syn () =
  let s, c =
    run_one_connection
      { Scenario.default_config with Scenario.cp = Scenario.Cp_pull_drop }
      ~port:6001
  in
  Alcotest.(check bool) "at least one drop" true (dropped s >= 1);
  match c.Scenario.tcp with
  | Some conn ->
      Alcotest.(check bool) "SYN retransmitted" true
        (conn.Workload.Tcp.syn_transmissions >= 2);
      Alcotest.(check bool) "eventually established" true
        (conn.Workload.Tcp.established_at <> None)
  | None -> Alcotest.fail "connection never started"

let test_c1_queue_and_nerd_no_drops () =
  List.iter
    (fun cp ->
      let s, c =
        run_one_connection { Scenario.default_config with Scenario.cp } ~port:6002
      in
      Alcotest.(check int) (Scenario.cp_label cp ^ " drops") 0 (dropped s);
      match c.Scenario.tcp with
      | Some conn ->
          Alcotest.(check int)
            (Scenario.cp_label cp ^ " single SYN")
            1 conn.Workload.Tcp.syn_transmissions
      | None -> Alcotest.fail "connection never started")
    [ Scenario.Cp_pull_queue 32; Scenario.Cp_nerd; Scenario.Cp_pull_detour ]

(* ------------------------------------------------------------------ *)
(* Claim C2: T_DNS + T_map ~= T_DNS and setup time parity              *)
(* ------------------------------------------------------------------ *)

let test_c2_dns_time_barely_inflated () =
  (* The pull CPs leave DNS untouched: their dns_time is the baseline
     T_DNS.  The PCE detours the final answer through both PCEs, which
     must cost well under 1 ms extra. *)
  let _, c_pull =
    run_one_connection
      { Scenario.default_config with Scenario.cp = Scenario.Cp_pull_drop }
      ~port:6003
  in
  let _, c_pce = run_one_connection (pce_config ()) ~port:6003 in
  match (c_pull.Scenario.dns_time, c_pce.Scenario.dns_time) with
  | Some t_dns, Some t_dns_pce ->
      Alcotest.(check bool) "PCE adds < 1ms to DNS resolution" true
        (t_dns_pce -. t_dns < 0.001);
      Alcotest.(check bool) "ratio ~= 1" true (t_dns_pce /. t_dns < 1.01)
  | _ -> Alcotest.fail "missing dns measurements"

let test_c2_setup_time_matches_ideal () =
  (* NERD is the no-resolution ideal; the PCE must match it, while
     pull-drop pays at least one RTO. *)
  let setup cp port =
    let _, c = run_one_connection { Scenario.default_config with Scenario.cp } ~port in
    match Scenario.total_setup_time c with
    | Some t -> t
    | None -> Alcotest.fail (Scenario.cp_label cp ^ ": never established")
  in
  let t_nerd = setup Scenario.Cp_nerd 6004 in
  let t_pce = setup (Scenario.Cp_pce Pce_control.default_options) 6004 in
  let t_drop = setup Scenario.Cp_pull_drop 6004 in
  (* Border choices may differ between CPs, so allow a few ms of path
     asymmetry -- still two orders of magnitude below the RTO. *)
  Alcotest.(check bool) "pce within 30ms of ideal" true
    (Float.abs (t_pce -. t_nerd) < 0.030);
  Alcotest.(check bool) "pull-drop pays an RTO" true (t_drop > t_pce +. 0.9)

let test_c2_mapping_ready_before_first_packet () =
  let s, c = run_one_connection (pce_config ()) ~port:6005 in
  (match c.Scenario.tcp with
  | Some conn -> (
      match conn.Workload.Tcp.first_syn_arrival with
      | Some at ->
          (* First SYN arrived without any retransmission: the mapping
             was configured during DNS resolution. *)
          Alcotest.(check bool) "first SYN flew through" true
            (at -. conn.Workload.Tcp.started_at < 0.5)
      | None -> Alcotest.fail "first SYN never arrived")
  | None -> Alcotest.fail "connection never started");
  (* The flow entry is present in every ITR of AS_S (push to all). *)
  let internet = Scenario.internet s in
  let as_s = internet.Topology.Builder.domains.(0) in
  let dp = Scenario.dataplane s in
  Array.iter
    (fun router ->
      Alcotest.(check bool) "entry in ITR flow table" true
        (Lispdp.Flow_table.lookup router.Lispdp.Dataplane.flows
           ~now:(Netsim.Engine.now (Scenario.engine s))
           ~src_eid:c.Scenario.flow.Flow.src ~dst_eid:c.Scenario.flow.Flow.dst
        <> None))
    (Lispdp.Dataplane.routers_of_domain dp as_s)

(* ------------------------------------------------------------------ *)
(* Claim C3: independent ingress and egress selection                  *)
(* ------------------------------------------------------------------ *)

let heat_uplink border ~direction ~bytes =
  let link = border.Topology.Domain.uplink in
  let router = border.Topology.Domain.router in
  let src =
    match direction with
    | `Outbound -> router
    | `Inbound -> Topology.Link.other_end link router
  in
  Topology.Link.account link ~src ~bytes

let observe_pce s domain_id ~now =
  match Scenario.pce s with
  | Some pc ->
      let selector = Pce.selector (Pce_control.pce_of_domain pc domain_id) in
      Irc.Selector.observe selector ~now
  | None -> Alcotest.fail "not a PCE scenario"

let test_c3_asymmetric_tunnels () =
  let s = Scenario.build (pce_config ()) in
  let internet = Scenario.internet s in
  let as_s = internet.Topology.Builder.domains.(0) in
  let b0 = as_s.Topology.Domain.borders.(0) in
  let b1 = as_s.Topology.Domain.borders.(1) in
  (* Prime the IRC estimates: AS_S border 0 is hot inbound, so the PCE
     must choose border 1 as the flow's ingress (RLOC_S), while egress
     (all idle outbound) stays on border 0. *)
  observe_pce s 0 ~now:0.0;
  heat_uplink b0 ~direction:`Inbound ~bytes:100_000_000;
  observe_pce s 0 ~now:1.0;
  Topology.Link.reset_counters b0.Topology.Domain.uplink;
  Topology.Link.reset_counters b1.Topology.Domain.uplink;
  let flow = figure1_flow s ~port:6006 in
  let c = Scenario.open_connection s ~flow ~data_packets:5 () in
  Scenario.run s;
  Alcotest.(check bool) "established" true
    (Option.bind c.Scenario.tcp Workload.Tcp.handshake_time <> None);
  Alcotest.(check int) "no drops" 0 (dropped s);
  (* Structural check of the two independent one-way tunnels: the pushed
     entry carries border 1's locator as RLOC_S (inbound avoids the hot
     uplink) ... *)
  let dp = Scenario.dataplane s in
  let now = Netsim.Engine.now (Scenario.engine s) in
  let entry =
    match
      Lispdp.Flow_table.lookup
        (Lispdp.Dataplane.routers_of_domain dp as_s).(0).Lispdp.Dataplane.flows
        ~now ~src_eid:flow.Flow.src ~dst_eid:flow.Flow.dst
    with
    | Some e -> e
    | None -> Alcotest.fail "flow entry missing"
  in
  Alcotest.(check string) "RLOC_S is border 1 (idle inbound)"
    (Ipv4.addr_to_string b1.Topology.Domain.rloc)
    (Ipv4.addr_to_string entry.Mapping.src_rloc);
  (* ... while the data bytes left through border 0's uplink (egress was
     chosen independently).  DNS messages also cross the uplinks, so the
     comparison is on volume, not exact zero. *)
  let out_b0 = Topology.Link.bytes_from b0.Topology.Domain.uplink b0.Topology.Domain.router in
  let out_b1 = Topology.Link.bytes_from b1.Topology.Domain.uplink b1.Topology.Domain.router in
  Alcotest.(check bool) "bulk of outbound bytes left via border 0" true
    (out_b0 > out_b1 + 4000);
  (* And AS_D's reverse entry tunnels toward border 1 of AS_S. *)
  let as_d = internet.Topology.Builder.domains.(1) in
  let reverse_entry =
    match
      Lispdp.Flow_table.lookup
        (Lispdp.Dataplane.routers_of_domain dp as_d).(0).Lispdp.Dataplane.flows
        ~now ~src_eid:flow.Flow.dst ~dst_eid:flow.Flow.src
    with
    | Some e -> e
    | None -> Alcotest.fail "reverse entry missing"
  in
  Alcotest.(check string) "reverse tunnel targets RLOC_S"
    (Ipv4.addr_to_string b1.Topology.Domain.rloc)
    (Ipv4.addr_to_string reverse_entry.Mapping.dst_rloc)

let test_c3_baseline_is_symmetric () =
  (* Under pull-queue, gleaning forces the reverse flow through the
     forward ETR: whatever uplink carried the SYN out also carries the
     SYN/ACK in. *)
  let s =
    Scenario.build
      { Scenario.default_config with Scenario.cp = Scenario.Cp_pull_queue 32 }
  in
  let flow = figure1_flow s ~port:6007 in
  ignore (Scenario.open_connection s ~flow ~data_packets:2 ());
  Scenario.run s;
  let as_s = (Scenario.internet s).Topology.Builder.domains.(0) in
  Array.iter
    (fun b ->
      let out =
        Topology.Link.bytes_from b.Topology.Domain.uplink b.Topology.Domain.router
      in
      let inb =
        Topology.Link.bytes_from b.Topology.Domain.uplink
          (Topology.Link.other_end b.Topology.Domain.uplink b.Topology.Domain.router)
      in
      (* Symmetry: a border is used in both directions or not at all. *)
      Alcotest.(check bool) "symmetric usage" true ((out > 0) = (inb > 0)))
    as_s.Topology.Domain.borders

(* ------------------------------------------------------------------ *)
(* F1: the architecture walkthrough                                    *)
(* ------------------------------------------------------------------ *)

let test_f1_trace_contains_all_steps () =
  let s = Scenario.build (pce_config ()) in
  let walkthrough = Scenario.walkthrough s in
  let flow = figure1_flow s ~port:6008 in
  ignore (Scenario.open_connection s ~flow ~data_packets:1 ());
  Scenario.run s;
  let kinds = List.map (fun e -> e.Obs.Event.kind) (walkthrough ()) in
  List.iter
    (fun (step, is_step) ->
      Alcotest.(check bool) ("walkthrough has " ^ step) true
        (List.exists is_step kinds))
    [ ("the client query (step 1)",
       function Obs.Event.Dns_query _ -> true | _ -> false);
      ("step 1", function Obs.Event.Ipc_query _ -> true | _ -> false);
      ("step 6", function Obs.Event.Answer_intercept _ -> true | _ -> false);
      ("step 7", function Obs.Event.Answer_decap _ -> true | _ -> false);
      ("step 7b", function Obs.Event.Tuple_push _ -> true | _ -> false);
      ( "step 8",
        function Obs.Event.Dns_reply { answered; _ } -> answered | _ -> false );
      ( "reverse mapping",
        function Obs.Event.Reverse_learn _ -> true | _ -> false ) ]

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)
(* ------------------------------------------------------------------ *)

let rebalance_pce s domain_id =
  match Scenario.pce s with
  | Some pc ->
      Irc.Selector.rebalance (Pce.selector (Pce_control.pce_of_domain pc domain_id))
  | None -> Alcotest.fail "not a PCE scenario"

(* Shared scaffold: a long transfer is in flight when the IRC engine
   reroutes its egress to another border.  New connections are always
   healed by a fresh push from the PCE's name database, so only the
   mid-flight reroute distinguishes the push scopes. *)
let ablation_a1 ~push_scope =
  (* Reverse multicast would re-install the forward entry at every ITR
     when the SYN/ACK completes, masking the push-scope difference; pin
     it to receiving-only so the ablation isolates the 7b knob. *)
  let options =
    { Pce_control.default_options with
      Pce_control.push_scope;
      reverse_scope = Pce_control.Reverse_receiving_only }
  in
  let s = Scenario.build (pce_config ~options ()) in
  let flow = figure1_flow s ~port:6100 in
  (* ~1.2 s of data at the default 2 ms pacing. *)
  ignore (Scenario.open_connection s ~flow ~data_packets:600 ());
  let as_s = (Scenario.internet s).Topology.Builder.domains.(0) in
  (* Mid-transfer: make whatever uplink the flow uses look hot and let
     the PCE rebalance. *)
  ignore
    (Netsim.Engine.schedule (Scenario.engine s) ~delay:0.8 (fun () ->
         let egress =
           match
             Array.to_list as_s.Topology.Domain.borders
             |> List.find_opt (fun b ->
                    Topology.Link.bytes_from b.Topology.Domain.uplink
                      b.Topology.Domain.router
                    > 0)
           with
           | Some b -> b
           | None -> Alcotest.fail "no egress traffic found"
         in
         let t_now = Netsim.Engine.now (Scenario.engine s) in
         observe_pce s 0 ~now:t_now;
         heat_uplink egress ~direction:`Outbound ~bytes:200_000_000;
         observe_pce s 0 ~now:(t_now +. 1.0);
         rebalance_pce s 0));
  Scenario.run s;
  s

let test_a1_push_all_survives_reroute () =
  let s = ablation_a1 ~push_scope:Pce_control.Push_all_itrs in
  Alcotest.(check int) "no drops after TE reroute" 0 (dropped s)

let test_a1_push_egress_only_breaks_on_reroute () =
  let s = ablation_a1 ~push_scope:Pce_control.Push_egress_only in
  Alcotest.(check bool) "reroute without entries drops packets" true (dropped s > 0);
  Alcotest.(check bool) "drop cause is the missing forward mapping" true
    (List.mem_assoc "pce-no-mapping-forward"
       (Lispdp.Dataplane.drop_causes (Scenario.dataplane s)))

let ablation_a2 ~reverse_scope =
  let options = { Pce_control.default_options with Pce_control.reverse_scope } in
  let s = Scenario.build (pce_config ~options ()) in
  (* Make AS_D's outbound border 0 hot, so the reverse flow exits via
     border 1 while forward traffic arrives at border 0. *)
  let as_d = (Scenario.internet s).Topology.Builder.domains.(1) in
  observe_pce s 1 ~now:0.0;
  heat_uplink as_d.Topology.Domain.borders.(0) ~direction:`Outbound
    ~bytes:200_000_000;
  observe_pce s 1 ~now:1.0;
  let flow = figure1_flow s ~port:6102 in
  let c = Scenario.open_connection s ~flow () in
  Scenario.run s;
  (s, c)

let test_a2_multicast_enables_any_egress () =
  let s, c = ablation_a2 ~reverse_scope:Pce_control.Reverse_multicast in
  Alcotest.(check int) "no drops with multicast" 0 (dropped s);
  Alcotest.(check bool) "established" true
    (Option.bind c.Scenario.tcp Workload.Tcp.handshake_time <> None)

let test_a2_receiving_only_breaks_divergent_reverse () =
  let s, _ = ablation_a2 ~reverse_scope:Pce_control.Reverse_receiving_only in
  Alcotest.(check bool) "reverse path drops without multicast" true (dropped s > 0)

(* ------------------------------------------------------------------ *)
(* Scenario plumbing                                                   *)
(* ------------------------------------------------------------------ *)

let test_scenario_deterministic () =
  let totals config =
    let s, c = run_one_connection config ~port:6200 in
    ( dropped s,
      (Lispdp.Dataplane.counters (Scenario.dataplane s)).Lispdp.Dataplane.delivered,
      Scenario.total_setup_time c )
  in
  let a = totals (pce_config ()) in
  let b = totals (pce_config ()) in
  Alcotest.(check bool) "same seed, same world" true (a = b)

let test_scenario_random_topology () =
  let config =
    { (pce_config ()) with
      Scenario.topology =
        `Random { Topology.Builder.default_params with domain_count = 6 } }
  in
  let s = Scenario.build config in
  let internet = Scenario.internet s in
  let d0 = internet.Topology.Builder.domains.(0) in
  let d5 = internet.Topology.Builder.domains.(5) in
  let flow =
    Flow.create
      ~src:(Topology.Domain.host_eid d0 0)
      ~dst:(Topology.Domain.host_eid d5 0)
      ~src_port:6201 ()
  in
  let c = Scenario.open_connection s ~flow () in
  Scenario.run s;
  Alcotest.(check bool) "established across random internet" true
    (Option.bind c.Scenario.tcp Workload.Tcp.handshake_time <> None);
  Alcotest.(check int) "no drops" 0 (dropped s)

let test_scenario_many_connections_all_cps () =
  List.iter
    (fun cp ->
      let s = Scenario.build { Scenario.default_config with Scenario.cp } in
      for port = 7000 to 7009 do
        ignore (Scenario.open_connection s ~flow:(figure1_flow s ~port) ~data_packets:2 ())
      done;
      Scenario.run s;
      let established =
        List.length
          (List.filter
             (fun c -> Option.bind c.Scenario.tcp Workload.Tcp.handshake_time <> None)
             (Scenario.connections s))
      in
      Alcotest.(check int)
        (Scenario.cp_label cp ^ ": all connections succeed")
        10 established)
    [ Scenario.Cp_pull_drop; Scenario.Cp_pull_queue 32; Scenario.Cp_pull_detour;
      Scenario.Cp_nerd; Scenario.Cp_cons;
      Scenario.Cp_pce Pce_control.default_options ]

let test_scenario_uplink_utilisation_api () =
  let s, _ = run_one_connection (pce_config ()) ~port:6202 in
  let as_s = (Scenario.internet s).Topology.Builder.domains.(0) in
  let out = Scenario.uplink_utilisation s as_s ~direction:`Outbound ~duration:1.0 in
  Alcotest.(check int) "one value per border" 2 (Array.length out);
  Alcotest.(check bool) "some outbound load" true
    (Array.exists (fun u -> u > 0.0) out);
  Scenario.reset_uplink_counters s;
  let zeroed = Scenario.uplink_utilisation s as_s ~direction:`Outbound ~duration:1.0 in
  Alcotest.(check bool) "reset" true (Array.for_all (fun u -> u = 0.0) zeroed)

(* ------------------------------------------------------------------ *)
(* Pce module unit tests                                               *)
(* ------------------------------------------------------------------ *)

let make_pce () =
  let internet = Topology.Builder.figure1 () in
  ( internet,
    Pce.create
      ~domain:internet.Topology.Builder.domains.(0)
      ~graph:internet.Topology.Builder.graph ~policy:Irc.Policy.Min_load )

let qname = Dnssim.Name.of_string "h0.as1.net."

let test_pce_pending_lifecycle () =
  let internet, pce = make_pce () in
  let as_s = internet.Topology.Builder.domains.(0) in
  let e0 = Topology.Domain.host_eid as_s 0 in
  let e1 = Topology.Domain.host_eid as_s 1 in
  Alcotest.(check int) "starts empty" 0 (Pce.pending_count pce);
  Pce.note_client_query pce ~now:0.0 ~client_eid:e0 ~qname;
  Pce.note_client_query pce ~now:1.0 ~client_eid:e1 ~qname;
  Alcotest.(check int) "two pending" 2 (Pce.pending_count pce);
  (match Pce.take_pending pce ~qname with
  | [ p0; p1 ] ->
      Alcotest.(check bool) "oldest first" true
        (Ipv4.addr_equal p0.Pce.client_eid e0 && Ipv4.addr_equal p1.Pce.client_eid e1);
      Alcotest.(check bool) "ingress is a domain rloc" true
        (List.exists (Ipv4.addr_equal p0.Pce.ingress_rloc) (Topology.Domain.rlocs as_s))
  | l -> Alcotest.failf "expected two pendings, got %d" (List.length l));
  Alcotest.(check int) "consumed" 0 (Pce.pending_count pce);
  Alcotest.(check int) "second take is empty" 0
    (List.length (Pce.take_pending pce ~qname))

let test_pce_known_name_ttl () =
  let _, pce = make_pce () in
  let eid = Ipv4.addr_of_string "100.0.1.1" in
  let rloc = Ipv4.addr_of_string "12.0.0.1" in
  Pce.learn_name_mapping pce ~qname ~dst_eid:eid ~dst_rloc:rloc ~now:0.0 ~ttl:10.0;
  (match Pce.known_name pce ~qname ~now:5.0 with
  | Some (e, r) ->
      Alcotest.(check bool) "fresh entry" true
        (Ipv4.addr_equal e eid && Ipv4.addr_equal r rloc)
  | None -> Alcotest.fail "expected known name");
  Alcotest.(check bool) "expired entry gone" true
    (Pce.known_name pce ~qname ~now:11.0 = None);
  Alcotest.(check bool) "unknown name" true
    (Pce.known_name pce ~qname:(Dnssim.Name.of_string "x.as9.net.") ~now:0.0 = None)

let test_pce_entry_database () =
  let _, pce = make_pce () in
  let entry =
    { Mapping.src_eid = Ipv4.addr_of_string "100.0.0.1";
      dst_eid = Ipv4.addr_of_string "100.0.1.1";
      src_rloc = Ipv4.addr_of_string "10.0.0.1";
      dst_rloc = Ipv4.addr_of_string "12.0.0.1" }
  in
  Pce.remember_entry pce entry;
  Alcotest.(check int) "one entry" 1 (Pce.entry_count pce);
  (match
     Pce.find_entry pce ~src_eid:entry.Mapping.src_eid
       ~dst_eid:entry.Mapping.dst_eid
   with
  | Some e ->
      Alcotest.(check bool) "found" true
        (Ipv4.addr_equal e.Mapping.dst_rloc entry.Mapping.dst_rloc)
  | None -> Alcotest.fail "entry not found");
  Alcotest.(check int) "entries toward dst" 1
    (List.length (Pce.entries_toward pce ~dst_eid:entry.Mapping.dst_eid));
  Alcotest.(check int) "entries via src rloc" 1
    (List.length (Pce.entries_with_src_rloc pce ~rloc:entry.Mapping.src_rloc));
  (* Replacing the same pair does not grow the database. *)
  Pce.remember_entry pce { entry with Mapping.dst_rloc = Ipv4.addr_of_string "13.0.0.1" };
  Alcotest.(check int) "still one entry" 1 (Pce.entry_count pce)

let test_pce_advertisements () =
  let _, pce = make_pce () in
  let eid = Ipv4.addr_of_string "100.0.0.1" in
  let peer = Ipv4.addr_of_string "0.0.0.9" in
  let rloc = Ipv4.addr_of_string "10.0.0.1" in
  Pce.record_advertisement pce ~qname ~eid ~peer ~rloc;
  (match Pce.advertisements_via pce ~rloc with
  | [ adv ] ->
      Alcotest.(check bool) "fields" true
        (Ipv4.addr_equal adv.Pce.adv_eid eid && Ipv4.addr_equal adv.Pce.adv_peer peer)
  | l -> Alcotest.failf "expected one advertisement, got %d" (List.length l));
  (* Re-advertising with a new locator moves it between buckets. *)
  let rloc2 = Ipv4.addr_of_string "11.0.0.1" in
  Pce.record_advertisement pce ~qname ~eid ~peer ~rloc:rloc2;
  Alcotest.(check int) "old bucket empty" 0
    (List.length (Pce.advertisements_via pce ~rloc));
  Alcotest.(check int) "new bucket has it" 1
    (List.length (Pce.advertisements_via pce ~rloc:rloc2))

let test_pce_ingress_sticky_per_peer () =
  let _, pce = make_pce () in
  let eid = Ipv4.addr_of_string "100.0.0.1" in
  let peer_a = Ipv4.addr_of_string "0.0.0.7" in
  let first = Pce.ingress_rloc_for_eid pce ~eid ~peer:peer_a () in
  let again = Pce.ingress_rloc_for_eid pce ~eid ~peer:peer_a () in
  Alcotest.(check bool) "sticky per (eid, peer)" true (Ipv4.addr_equal first again)

(* ------------------------------------------------------------------ *)
(* Scenario files                                                      *)
(* ------------------------------------------------------------------ *)

let test_scenario_file_defaults () =
  match Scenario_file.parse "" with
  | Ok t ->
      Alcotest.(check string) "default cp" "pce"
        (Scenario.cp_label t.Scenario_file.config.Scenario.cp);
      Alcotest.(check int) "default flows" 500
        t.Scenario_file.workload.Scenario_file.flows
  | Error m -> Alcotest.fail m

let test_scenario_file_full () =
  let text =
    "# comment\nseed 7\ntopology random\ndomains 6\nproviders 3\n\
     borders 2\nhosts 3\ncp pull-queue\nmapping-ttl 45\nflows 10\n\
     rate 5\nzipf 1.1   # inline comment\ndata-packets 4\nhotspot 2\n"
  in
  match Scenario_file.parse text with
  | Ok t -> (
      Alcotest.(check int) "seed" 7 t.Scenario_file.config.Scenario.seed;
      Alcotest.(check string) "cp" "pull-queue(32)"
        (Scenario.cp_label t.Scenario_file.config.Scenario.cp);
      Alcotest.(check (float 1e-9)) "ttl" 45.0
        t.Scenario_file.config.Scenario.mapping_ttl;
      Alcotest.(check int) "flows" 10 t.Scenario_file.workload.Scenario_file.flows;
      Alcotest.(check (option int)) "hotspot" (Some 2)
        t.Scenario_file.workload.Scenario_file.hotspot;
      match t.Scenario_file.config.Scenario.topology with
      | `Random params ->
          Alcotest.(check int) "domains" 6 params.Topology.Builder.domain_count;
          Alcotest.(check int) "hosts" 3 params.Topology.Builder.hosts_per_domain
      | `Figure1 | `Figure1_scaled _ -> Alcotest.fail "expected random topology")
  | Error m -> Alcotest.fail m

let test_scenario_file_cp_faults () =
  let text =
    "cp pull-queue\ncp-loss 0.1\ncp-jitter 0.002\ncp-rto 0.25\n\
     cp-backoff 1.5\ncp-retries 5\ncp-flap 3 10 2.5\ncp-partition 0 1 5 8\n"
  in
  match Scenario_file.parse text with
  | Error m -> Alcotest.fail m
  | Ok t -> (
      match t.Scenario_file.config.Scenario.cp_faults with
      | None -> Alcotest.fail "expected a fault profile"
      | Some p ->
          Alcotest.(check (float 1e-9)) "loss" 0.1 p.Scenario.cp_loss;
          Alcotest.(check (float 1e-9)) "jitter" 0.002 p.Scenario.cp_jitter;
          Alcotest.(check (float 1e-9)) "rto" 0.25 p.Scenario.cp_rto;
          Alcotest.(check (float 1e-9)) "backoff" 1.5 p.Scenario.cp_backoff;
          Alcotest.(check int) "retries" 5 p.Scenario.cp_retries;
          Alcotest.(check int) "two scripts" 2
            (List.length p.Scenario.cp_scripts);
          (match p.Scenario.cp_scripts with
          | [ Scenario.Flap f; Scenario.Partition q ] ->
              Alcotest.(check int) "flap domain" 3 f.domain;
              Alcotest.(check (float 1e-9)) "flap at" 10.0 f.at;
              Alcotest.(check (float 1e-9)) "flap duration" 2.5 f.duration;
              Alcotest.(check int) "partition a" 0 q.a;
              Alcotest.(check (float 1e-9)) "partition until" 8.0 q.until
          | _ -> Alcotest.fail "script order/shape wrong"))

let test_scenario_file_node_faults () =
  let text =
    "topology figure1\npce-watchdog 0.4\npce-crash-at 1 2\n\
     pce-recover-at 1 9\npce-crash-at 0 12\n"
  in
  match Scenario_file.parse text with
  | Error m -> Alcotest.fail m
  | Ok t -> (
      match t.Scenario_file.config.Scenario.node_faults with
      | None -> Alcotest.fail "expected a node-fault profile"
      | Some p ->
          Alcotest.(check (float 1e-9)) "watchdog" 0.4 p.Scenario.pce_watchdog;
          (match p.Scenario.node_windows with
          | [ (Netsim.Lifecycle.Pce 1, from1, until1);
              (Netsim.Lifecycle.Pce 0, from0, until0) ] ->
              Alcotest.(check (float 1e-9)) "closed from" 2.0 from1;
              Alcotest.(check (float 1e-9)) "closed until" 9.0 until1;
              Alcotest.(check (float 1e-9)) "open from" 12.0 from0;
              Alcotest.(check bool) "unclosed crash never restarts" true
                (until0 = infinity)
          | _ -> Alcotest.fail "window list shape wrong"))

let test_scenario_file_errors () =
  List.iter
    (fun (text, fragment) ->
      match Scenario_file.parse text with
      | Ok _ -> Alcotest.failf "accepted %S" text
      | Error m ->
          let contains =
            let fl = String.length fragment and ml = String.length m in
            let rec scan i =
              i + fl <= ml && (String.sub m i fl = fragment || scan (i + 1))
            in
            scan 0
          in
          Alcotest.(check bool) (fragment ^ " in error") true contains)
    [ ("bogus-key 3", "unknown key");
      ("cp teleport", "unknown control plane");
      ("cp-loss 1.5", "must be in [0, 1]");
      ("cp-flap 3 10", "cp-flap expects");
      ("cp-partition 0 1 8 5", "ends before it starts");
      ("domains many", "expects an integer");
      ("hosts 0", "out of");
      ("seed", "expected 'key value'");
      ("domains 4\nhotspot 9", "does not exist");
      ("topology pentagon", "unknown topology");
      ("pce-recover-at 1 5", "no pce-crash-at");
      ("pce-crash-at 1 8\npce-recover-at 1 3", "inverted window");
      ("pce-crash-at 1 2\npce-crash-at 1 4", "already has an open crash");
      ("topology figure1\npce-crash-at 5 2", "does not exist");
      ("topology figure1\nhotspot 5", "line 2: hotspot: domain 5 does not exist");
      ("providers 4\ntier1 5", "line 2: tier1 5 exceeds providers (4)");
      ("rate inf", "line 1: rate must be finite");
      ("attack-flood inf 5 0 1 1", "line 1: attack-flood must be finite");
      ("pce-crash-at 0 inf", "line 1: pce-crash-at must be finite");
      ("domains 4\ncp-flap 9 1 1", "line 2: cp-flap: domain 9 does not exist");
      ("domains 4\ncp-partition 0 9 0 1", "line 2: cp-partition: domain 9 does not exist") ]

let test_scenario_file_runs () =
  match
    Scenario_file.parse "topology figure1\ncp nerd\nflows 3\nrate 10\n"
  with
  | Error m -> Alcotest.fail m
  | Ok t ->
      let s = Scenario.build t.Scenario_file.config in
      let flow = figure1_flow s ~port:6500 in
      ignore (Scenario.open_connection s ~flow ~data_packets:1 ());
      Scenario.run s;
      Alcotest.(check int) "no drops under nerd" 0 (dropped s)

(* Parser robustness: files built from the key table, plus unknown keys,
   bare keys and values with a field missing or extra.  Each field is
   drawn mostly from values that fit its syntax word, at and around the
   bounds, and otherwise from out-of-range numbers, nan and junk.
   [parse] never raises, and every file it accepts builds and runs to
   the end.  A prelude keeps each world small, and the fields that size
   the run have pools whose accepted values keep it small: at most 6
   domains, 20 flows, 60 s of arrivals and a bounded flood. *)
let prop_scenario_file_robust =
  let pool word =
    if String.contains word '|' then String.split_on_char '|' word
    else
      match word with
      | "<p>" -> [ "0"; "0.5"; "1" ]
      | "<domain>" | "<domain-a>" | "<domain-b>" | "<victim-domain>" ->
          [ "0"; "1"; "3"; "9999" ]
      | "<n>" | "<eids>" -> [ "0"; "1"; "2"; "100"; "65000"; "1000000"; "1000001" ]
      | _ -> [ "0"; "0.001"; "1"; "2.5"; "100"; "inf" ]
  in
  let junk = [ "-1"; "1.5"; "-inf"; "nan"; "junk"; "on" ] in
  let sizing =
    [ (("domains", 0), [ "1"; "2"; "6" ]);
      (("providers", 0), [ "1"; "2"; "4" ]);
      (("borders", 0), [ "1"; "3" ]);
      (("hosts", 0), [ "1"; "3" ]);
      (("tier1", 0), [ "2"; "3"; "5" ]);
      (("flows", 0), [ "1"; "20" ]);
      (("rate", 0), [ "0"; "1"; "50"; "1e300"; "inf" ]);
      (("data-packets", 0), [ "0"; "1"; "8" ]);
      (("attack-flood", 0), [ "0"; "5"; "inf" ]);
      (("attack-flood", 2), [ "0"; "5"; "inf" ]);
      (("attack-flood", 3), [ "0"; "1"; "10" ]) ]
  in
  let line =
    let open QCheck.Gen in
    let* name, syntax, _ = oneofl Scenario_file.keys in
    let words = Array.of_list (String.split_on_char ' ' syntax) in
    let value i =
      let fits =
        match List.assoc_opt (name, i) sizing with
        | Some values -> values
        | None -> pool words.(min i (Array.length words - 1))
      in
      frequency [ (4, oneofl fits); (1, oneofl junk) ]
    in
    let* values = flatten_l (List.init (Array.length words) value) in
    let* extra = value (Array.length words) in
    frequency
      [ (16, return (name :: values));
        (1, return [ name ]);
        (1, return (name :: List.tl values));
        (1, return ((name :: values) @ [ extra ]));
        (1, return ("no-such-key" :: values)) ]
    >|= String.concat " "
  in
  let prelude =
    "domains 4\nproviders 3\nhosts 2\nflows 10\nrate 2\ndata-packets 2\n"
  in
  let file =
    QCheck.Gen.(
      list_size (int_range 1 6) line >|= fun lines ->
      prelude ^ String.concat "\n" lines)
  in
  QCheck.Test.make ~name:"scenario files: parse never raises, accepted files run"
    ~count:1000 (QCheck.make ~print:Fun.id file)
    (fun text ->
      match Scenario_file.parse text with
      | Error _ -> true
      | Ok t ->
          ignore (Experiments.Harness.run (Experiments.Harness.spec_of_scenario t));
          true)

(* ------------------------------------------------------------------ *)
(* Cross-control-plane properties                                      *)
(* ------------------------------------------------------------------ *)

(* Packet conservation: after the engine drains, every packet handed to
   the data plane was delivered, dropped, or handed to the control plane
   and abandoned there.  Holds for every control plane and seed. *)
let prop_packet_conservation =
  QCheck.Test.make ~name:"packet conservation across CPs" ~count:12
    QCheck.(pair (int_range 1 1000) (int_range 0 5))
    (fun (seed, cp_index) ->
      let cp =
        List.nth
          [ Scenario.Cp_pull_drop; Scenario.Cp_pull_queue 8;
            Scenario.Cp_pull_detour; Scenario.Cp_nerd; Scenario.Cp_cons;
            Scenario.Cp_pce Pce_control.default_options ]
          cp_index
      in
      let s =
        Scenario.build
          { Scenario.default_config with
            Scenario.cp; seed;
            topology =
              `Random
                { Topology.Builder.default_params with
                  Topology.Builder.domain_count = 5 } }
      in
      let internet = Scenario.internet s in
      let traffic =
        Workload.Traffic.create ~rng:(Netsim.Rng.split (Scenario.rng s))
          ~internet ()
      in
      for _ = 1 to 30 do
        ignore
          (Scenario.open_connection s
             ~flow:(Workload.Traffic.random_flow traffic ())
             ~data_packets:3 ())
      done;
      Scenario.run s;
      let c = Lispdp.Dataplane.counters (Scenario.dataplane s) in
      let accounted = c.Lispdp.Dataplane.delivered + c.Lispdp.Dataplane.dropped in
      (* Held packets may be re-transmitted (and then delivered/dropped)
         or abandoned; everything else must be accounted exactly. *)
      accounted <= c.Lispdp.Dataplane.sent + c.Lispdp.Dataplane.held
      && accounted >= c.Lispdp.Dataplane.sent - c.Lispdp.Dataplane.held
      && Netsim.Engine.pending (Scenario.engine s) = 0)

(* The PCE's headline claim as a property: on any topology and seed,
   every DNS-then-TCP connection establishes with a single SYN and the
   data plane drops nothing. *)
let prop_pce_lossless =
  QCheck.Test.make ~name:"pce is lossless on any seed" ~count:10
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let s =
        Scenario.build
          { Scenario.default_config with
            Scenario.seed;
            topology =
              `Random
                { Topology.Builder.default_params with
                  Topology.Builder.domain_count = 6 } }
      in
      let traffic =
        Workload.Traffic.create ~rng:(Netsim.Rng.split (Scenario.rng s))
          ~internet:(Scenario.internet s) ()
      in
      for _ = 1 to 25 do
        ignore
          (Scenario.open_connection s
             ~flow:(Workload.Traffic.random_flow traffic ())
             ~data_packets:2 ())
      done;
      Scenario.run s;
      dropped s = 0
      && List.for_all
           (fun c ->
             match c.Scenario.tcp with
             | Some conn ->
                 conn.Workload.Tcp.syn_transmissions = 1
                 && Workload.Tcp.handshake_time conn <> None
             | None -> false)
           (Scenario.connections s))

let test_figure1_scale () =
  let base = Topology.Builder.figure1 () in
  let double = Topology.Builder.figure1 ~scale:2.0 () in
  let owd net =
    Topology.Builder.latency net
      net.Topology.Builder.domains.(0).Topology.Domain.hosts.(0)
      net.Topology.Builder.domains.(1).Topology.Domain.hosts.(0)
  in
  (* Internal latencies (two 1 ms hops at each end) are unscaled, so the
     host-to-host OWD grows by slightly less than 2x; the wire part
     doubles exactly. *)
  Alcotest.(check (float 1e-9)) "wire part doubles"
    (2.0 *. (owd base -. 0.004))
    (owd double -. 0.004);
  match Topology.Builder.figure1 ~scale:0.0 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "zero scale accepted"

let () =
  Alcotest.run "core"
    [
      ( "claim-1-no-drops",
        [
          Alcotest.test_case "pce zero drops" `Quick test_c1_pce_no_drops;
          Alcotest.test_case "pull-drop loses syn" `Quick test_c1_pull_drop_loses_first_syn;
          Alcotest.test_case "queue/nerd/detour lossless" `Quick test_c1_queue_and_nerd_no_drops;
        ] );
      ( "claim-2-latency",
        [
          Alcotest.test_case "dns barely inflated" `Quick test_c2_dns_time_barely_inflated;
          Alcotest.test_case "setup matches ideal" `Quick test_c2_setup_time_matches_ideal;
          Alcotest.test_case "mapping ready in time" `Quick test_c2_mapping_ready_before_first_packet;
        ] );
      ( "claim-3-te",
        [
          Alcotest.test_case "asymmetric tunnels" `Quick test_c3_asymmetric_tunnels;
          Alcotest.test_case "baseline symmetric" `Quick test_c3_baseline_is_symmetric;
        ] );
      ("figure-1", [ Alcotest.test_case "trace steps" `Quick test_f1_trace_contains_all_steps ]);
      ( "ablations",
        [
          Alcotest.test_case "a1 push-all survives" `Quick test_a1_push_all_survives_reroute;
          Alcotest.test_case "a1 egress-only breaks" `Quick test_a1_push_egress_only_breaks_on_reroute;
          Alcotest.test_case "a2 multicast works" `Quick test_a2_multicast_enables_any_egress;
          Alcotest.test_case "a2 receiving-only breaks" `Quick test_a2_receiving_only_breaks_divergent_reverse;
        ] );
      ( "scenario",
        [
          Alcotest.test_case "deterministic" `Quick test_scenario_deterministic;
          Alcotest.test_case "random topology" `Quick test_scenario_random_topology;
          Alcotest.test_case "all cps run" `Quick test_scenario_many_connections_all_cps;
          Alcotest.test_case "utilisation api" `Quick test_scenario_uplink_utilisation_api;
          Alcotest.test_case "figure1 scale" `Quick test_figure1_scale;
        ] );
      ( "pce-unit",
        [
          Alcotest.test_case "pending lifecycle" `Quick test_pce_pending_lifecycle;
          Alcotest.test_case "known name ttl" `Quick test_pce_known_name_ttl;
          Alcotest.test_case "entry database" `Quick test_pce_entry_database;
          Alcotest.test_case "advertisements" `Quick test_pce_advertisements;
          Alcotest.test_case "ingress sticky" `Quick test_pce_ingress_sticky_per_peer;
        ] );
      ( "scenario-file",
        [
          Alcotest.test_case "defaults" `Quick test_scenario_file_defaults;
          Alcotest.test_case "full parse" `Quick test_scenario_file_full;
          Alcotest.test_case "cp faults" `Quick test_scenario_file_cp_faults;
          Alcotest.test_case "node faults" `Quick
            test_scenario_file_node_faults;
          Alcotest.test_case "errors" `Quick test_scenario_file_errors;
          Alcotest.test_case "runs" `Quick test_scenario_file_runs;
          QCheck_alcotest.to_alcotest prop_scenario_file_robust;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_packet_conservation; prop_pce_lossless ] );
    ]
