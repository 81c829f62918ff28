open Nettypes

type push_scope = Push_all_itrs | Push_egress_only
type reverse_scope = Reverse_multicast | Reverse_receiving_only

type options = {
  policy : Irc.Policy.t;
  push_scope : push_scope;
  reverse_scope : reverse_scope;
  ipc_latency : float;
  flow_ttl : float;
}

let default_options =
  { policy = Irc.Policy.Min_load; push_scope = Push_all_itrs;
    reverse_scope = Reverse_multicast; ipc_latency = 0.0001; flow_ttl = 300.0 }

(* PCE_S -> ITR mapping configuration (step 7b), and the ETR -> sibling
   ETRs reverse push. *)
let config_latency = 0.001
let multicast_latency = 0.0005

type t = {
  engine : Netsim.Engine.t;
  internet : Topology.Builder.t;
  options : options;
  pces : Pce.t array; (* indexed by domain id *)
  resolver_domains : (Topology.Node.id, int) Hashtbl.t;
  stats : Mapsys.Cp_stats.t;
  faults : Netsim.Faults.t option;
  push_retry : Netsim.Faults.retry option;
  lifecycle : Netsim.Lifecycle.t option;
  fallback : Mapsys.Pull.t option;
  watchdog : float;
  registry : Mapsys.Registry.t option;
  obs : Obs.Hub.t;
  mutable dataplane : Lispdp.Dataplane.t option;
  mutable failovers : int;
}

let itr_config_size entry = Wire.Codec.size (Wire.Codec.Itr_config { entry })
let reverse_push_size entry = Wire.Codec.size (Wire.Codec.Reverse_push { entry })

let stats t = t.stats
let options t = t.options
let pce_of_domain t id = t.pces.(id)

let dataplane_exn t =
  match t.dataplane with
  | Some dp -> dp
  | None -> invalid_arg "Pce_control: used before attach"

let graph t = t.internet.Topology.Builder.graph

(* PCE control work — answer interception/decapsulation, tuple pushes
   and their retries, failover re-pushes, reverse-mapping multicast,
   monitoring ticks — runs under the "pce_push" profiler phase. *)
let ph_pce = Netsim.Prof.phase "pce_push"

(* Is the domain's PCE inside one of its scheduled crash windows?
   Always false without a lifecycle, so the zero-profile run never
   takes this branch. *)
let pce_down t id =
  match t.lifecycle with
  | Some lc ->
      Netsim.Lifecycle.is_down lc ~role:(Netsim.Lifecycle.Pce id)
        ~now:(Netsim.Engine.now t.engine)
  | None -> false

(* Resolve a remote locator to its border-router node, for latency-aware
   egress decisions. *)
let node_of_rloc t rloc =
  Option.map
    (fun (_, border) -> border.Topology.Domain.router)
    (Topology.Builder.border_of_rloc t.internet rloc)

(* Egress border for the EID pair, as the PCE's IRC engine sees it. *)
let egress_border t pce ~src_eid ~dst_eid =
  let flow = Pce.pair_flow ~src_eid ~dst_eid in
  let remote =
    match Pce.find_entry pce ~src_eid ~dst_eid with
    | Some entry -> node_of_rloc t entry.Mapping.dst_rloc
    | None -> None
  in
  match remote with
  | Some node -> Irc.Selector.choose_egress (Pce.selector pce) ~flow ~remote:node ()
  | None -> Irc.Selector.choose_egress (Pce.selector pce) ~flow ()

(* Step 7b: configure the tuple into the ITRs of [pce]'s domain.

   With a fault model the push is acknowledged per target: each
   transmission draws against the loss model, a lost configuration is
   detected by the missing ack when the retry timer fires and is
   re-sent (with exponential backoff) up to the retry budget, after
   which the target is given up on.  Acks themselves ride the
   intra-domain management network and are assumed reliable. *)
let push_entry t pce entry =
  let dp = dataplane_exn t in
  let domain = Pce.domain pce in
  Pce.remember_entry pce entry;
  let actor = domain.Topology.Domain.name ^ "-pce" in
  let account_send () =
    t.stats.Mapsys.Cp_stats.push_messages <-
      t.stats.Mapsys.Cp_stats.push_messages + 1;
    t.stats.Mapsys.Cp_stats.control_bytes <-
      t.stats.Mapsys.Cp_stats.control_bytes + itr_config_size entry
  in
  let install router =
    ignore
      (Netsim.Engine.schedule t.engine ~delay:config_latency
         (Netsim.Prof.wrap ph_pce (fun () ->
              Lispdp.Dataplane.install_flow_entry dp router entry)))
  in
  let routers = Lispdp.Dataplane.routers_of_domain dp domain in
  let targets =
    match t.options.push_scope with
    | Push_all_itrs -> Array.to_list routers
    | Push_egress_only ->
        let border =
          egress_border t pce ~src_eid:entry.Mapping.src_eid
            ~dst_eid:entry.Mapping.dst_eid
        in
        [ Lispdp.Dataplane.router_for_border dp border ]
  in
  (match t.faults with
  | None -> List.iter (fun router -> account_send (); install router) targets
  | Some faults ->
      let id = domain.Topology.Domain.id in
      let rec send router ~attempt =
        account_send ();
        let now = Netsim.Engine.now t.engine in
        if Netsim.Faults.drops_message faults ~now ~src:id ~dst:id then begin
          if Obs.Hub.enabled t.obs then
            Obs.Hub.emit t.obs ~actor
              (Obs.Event.Cp_loss { message = "pce-push" });
          match t.push_retry with
          | Some retry when attempt <= retry.Netsim.Faults.budget ->
              t.stats.Mapsys.Cp_stats.retransmissions <-
                t.stats.Mapsys.Cp_stats.retransmissions + 1;
              if Obs.Hub.enabled t.obs then
                Obs.Hub.emit t.obs ~actor
                  (Obs.Event.Cp_retry
                     { eid = entry.Mapping.dst_eid; attempt;
                       message = "pce-push" });
              ignore
                (Netsim.Engine.schedule t.engine
                   ~delay:(Netsim.Faults.retry_delay retry ~attempt)
                   (Netsim.Prof.wrap ph_pce (fun () ->
                        send router ~attempt:(attempt + 1))))
          | Some _ | None ->
              t.stats.Mapsys.Cp_stats.timeouts <-
                t.stats.Mapsys.Cp_stats.timeouts + 1;
              if Obs.Hub.enabled t.obs then
                Obs.Hub.emit t.obs ~actor
                  (Obs.Event.Cp_timeout
                     { eid = entry.Mapping.dst_eid; message = "pce-push" })
        end
        else
          ignore
            (Netsim.Engine.schedule t.engine
               ~delay:
                 (config_latency +. Netsim.Faults.extra_delay faults)
               (Netsim.Prof.wrap ph_pce (fun () ->
                    Lispdp.Dataplane.install_flow_entry dp router entry)))
      in
      List.iter (fun router -> send router ~attempt:1) targets);
  if Obs.Hub.enabled t.obs then
    Obs.Hub.emit t.obs ~actor
      (Obs.Event.Tuple_push { entry; targets = List.length targets })

(* Step 6 handler: PCE_D intercepted the authoritative answer. *)
let on_intercept t ~dst_pce ctx =
  Netsim.Prof.with_phase ph_pce @@ fun () ->
  let e_d = ctx.Dnssim.System.tap_answer in
  (* Ingress stickiness is per (EID, querying resolver): different
     source domains may be steered through different uplinks. *)
  let peer = Ipv4.addr_of_int ctx.Dnssim.System.tap_resolver in
  let rloc_d = Pce.ingress_rloc_for_eid dst_pce ~eid:e_d ~peer () in
  Pce.record_advertisement dst_pce ~qname:ctx.Dnssim.System.tap_qname ~eid:e_d
    ~peer ~rloc:rloc_d;
  (* The port-P message really is encoded here and decoded at PCE_S, so
     its size (and well-formedness) is exercised on every resolution. *)
  let pce_d_node = (Pce.domain dst_pce).Topology.Domain.pce in
  let encoded =
    Wire.Codec.encode
      (Wire.Codec.Encapsulated_answer
         { qname = Dnssim.Name.to_string ctx.Dnssim.System.tap_qname;
           eid = e_d; rloc = rloc_d; pce = Ipv4.addr_of_int pce_d_node })
  in
  t.stats.Mapsys.Cp_stats.map_replies <- t.stats.Mapsys.Cp_stats.map_replies + 1;
  t.stats.Mapsys.Cp_stats.control_bytes <-
    t.stats.Mapsys.Cp_stats.control_bytes + Bytes.length encoded;
  if Obs.Hub.enabled t.obs then
    Obs.Hub.emit t.obs
      ~actor:((Pce.domain dst_pce).Topology.Domain.name ^ "-pce")
      (Obs.Event.Answer_intercept
         { qname = Dnssim.Name.to_string ctx.Dnssim.System.tap_qname;
           eid = e_d; rloc = rloc_d });
  (* The encapsulated UDP message travels PCE_D -> DNS_S wire, where
     PCE_S picks it off (port P). *)
  let transit =
    t.options.ipc_latency
    +. Topology.Graph.latency_between (graph t) pce_d_node
         ctx.Dnssim.System.tap_resolver
  in
  ignore
    (Netsim.Engine.schedule t.engine ~delay:transit
       (Netsim.Prof.wrap ph_pce (fun () ->
         match Hashtbl.find_opt t.resolver_domains ctx.Dnssim.System.tap_resolver with
         | None -> ctx.Dnssim.System.tap_complete ()
         | Some src_domain_id when pce_down t src_domain_id ->
             (* PCE_S is crashed: nobody listens on port P, so the
                encapsulated answer is never decapsulated and no tuples
                are configured.  DNS_S's watchdog recovers the inner
                answer after the timeout; the mapping is simply lost
                (the ITR will degrade to pull on the miss). *)
             let actor =
               t.internet.Topology.Builder.domains.(src_domain_id)
                 .Topology.Domain.name ^ "-dns"
             in
             t.stats.Mapsys.Cp_stats.bypasses <-
               t.stats.Mapsys.Cp_stats.bypasses + 1;
             if Obs.Hub.enabled t.obs then
               Obs.Hub.emit t.obs ~actor
                 (Obs.Event.Pce_bypass
                    { qname =
                        Dnssim.Name.to_string ctx.Dnssim.System.tap_qname });
             ignore
               (Netsim.Engine.schedule t.engine ~delay:t.watchdog
                  ctx.Dnssim.System.tap_complete)
         | Some src_domain_id ->
             (* Step 7: PCE_S decapsulates the port-P message. *)
             let qname, e_d, rloc_d =
               match Wire.Codec.decode encoded with
               | Ok (Wire.Codec.Encapsulated_answer { qname; eid; rloc; pce = _ }) ->
                   (Dnssim.Name.of_string qname, eid, rloc)
               | Ok _ | Error _ ->
                   (* An undecodable answer would fall back to plain DNS
                      semantics; with our own encoder this is a bug. *)
                   assert false
             in
             let src_pce = t.pces.(src_domain_id) in
             (* The local resolver will cache this answer; remember the
                mapping so later cache-served queries from other local
                clients can be configured without a remote exchange. *)
             Pce.learn_name_mapping src_pce ~qname ~dst_eid:e_d
               ~dst_rloc:rloc_d ~now:(Netsim.Engine.now t.engine)
               ~ttl:t.options.flow_ttl;
             let pendings = Pce.take_pending src_pce ~qname in
             if Obs.Hub.enabled t.obs then
               Obs.Hub.emit t.obs
                 ~actor:((Pce.domain src_pce).Topology.Domain.name ^ "-pce")
                 (Obs.Event.Answer_decap
                    { qname = Dnssim.Name.to_string qname;
                      pending = List.length pendings });
             List.iter
               (fun p ->
                 let entry =
                   { Mapping.src_eid = p.Pce.client_eid; dst_eid = e_d;
                     src_rloc = p.Pce.ingress_rloc; dst_rloc = rloc_d }
                 in
                 t.stats.Mapsys.Cp_stats.resolutions <-
                   t.stats.Mapsys.Cp_stats.resolutions + 1;
                 push_entry t src_pce entry)
               pendings;
             (* Step 7a: hand the original answer to DNS_S. *)
             ignore
               (Netsim.Engine.schedule t.engine ~delay:t.options.ipc_latency
                  ctx.Dnssim.System.tap_complete))))

let create ~engine ~internet ~dns ?(options = default_options) ?faults
    ?push_retry ?lifecycle ?fallback ?(watchdog = 0.25) ?registry ?obs () =
  let domains = internet.Topology.Builder.domains in
  let pces =
    Array.map
      (fun domain ->
        Pce.create ~domain ~graph:internet.Topology.Builder.graph
          ~policy:options.policy)
      domains
  in
  let resolver_domains = Hashtbl.create 16 in
  Array.iter
    (fun d ->
      Hashtbl.replace resolver_domains d.Topology.Domain.dns d.Topology.Domain.id)
    domains;
  let t =
    { engine; internet; options; pces; resolver_domains;
      stats = Mapsys.Cp_stats.create (); faults; push_retry; lifecycle;
      fallback; watchdog; registry; obs = Obs.Hub.or_disabled ~engine obs;
      dataplane = None; failovers = 0 }
  in
  Array.iter
    (fun domain ->
      let id = domain.Topology.Domain.id in
      (* Step 1: PCE_S sees local client queries by IPC with DNS_S. *)
      Dnssim.System.set_query_observer dns ~resolver:domain.Topology.Domain.dns
        (Some
           (fun ~client_eid ~qname ->
             if not (pce_down t id) then begin
             if Obs.Hub.enabled t.obs then
               Obs.Hub.emit t.obs
                 ~actor:(domain.Topology.Domain.name ^ "-pce")
                 (Obs.Event.Ipc_query
                    { qname = Dnssim.Name.to_string qname;
                      client = client_eid });
             let pce = t.pces.(id) in
             let now = Netsim.Engine.now engine in
             Pce.note_client_query pce ~now ~client_eid ~qname;
             (* If the name's mapping is already in the PCE database,
                configure the ITRs right away: the resolver may answer
                this query from its cache, in which case no reply will
                ever cross PCE_D. *)
             match Pce.known_name pce ~qname ~now with
             | Some (dst_eid, dst_rloc) ->
                 List.iter
                   (fun p ->
                     let entry =
                       { Mapping.src_eid = p.Pce.client_eid; dst_eid;
                         src_rloc = p.Pce.ingress_rloc; dst_rloc }
                     in
                     t.stats.Mapsys.Cp_stats.resolutions <-
                       t.stats.Mapsys.Cp_stats.resolutions + 1;
                     push_entry t pce entry)
                   (Pce.take_pending pce ~qname)
             | None -> ()
             end));
      (* Step 6: PCE_D sits on the authoritative server's wire. *)
      Dnssim.System.set_response_tap dns ~server:domain.Topology.Domain.dns
        (Some (fun ctx -> on_intercept t ~dst_pce:t.pces.(id) ctx));
      (* With a lifecycle, guard the tap: while PCE_D is crashed the
         DNS server bypasses it after the watchdog and the answer goes
         out un-piggybacked. *)
      match t.lifecycle with
      | None -> ()
      | Some _ ->
          Dnssim.System.set_tap_guard dns ~server:domain.Topology.Domain.dns
            (Some
               { Dnssim.System.guard_down = (fun () -> pce_down t id);
                 guard_watchdog = watchdog;
                 guard_on_bypass =
                   Some
                     (fun ~qname ->
                       let actor = domain.Topology.Domain.name ^ "-dns" in
                       t.stats.Mapsys.Cp_stats.bypasses <-
                         t.stats.Mapsys.Cp_stats.bypasses + 1;
                       if Obs.Hub.enabled t.obs then
                         Obs.Hub.emit t.obs ~actor
                           (Obs.Event.Pce_bypass
                              { qname = Dnssim.Name.to_string qname })) }))
    domains;
  t

let attach t dataplane =
  match t.dataplane with
  | Some _ -> invalid_arg "Pce_control.attach: already attached"
  | None -> t.dataplane <- Some dataplane

(* A tunneled packet reached an ETR whose flow table has no live reverse
   entry for the pair: learn the reverse mapping, multicast it to the
   sibling ETRs, update the PCE database.  Keying on the live entry
   (rather than a seen-set) re-learns the mapping after TTL expiry. *)
let note_etr_packet t router ~outer_src packet =
  match outer_src with
  | None -> ()
  | Some rloc_s ->
      let e_s = packet.Packet.flow.Flow.src in
      let e_d = packet.Packet.flow.Flow.dst in
      let fresh =
        match
          Lispdp.Flow_table.lookup router.Lispdp.Dataplane.flows
            ~now:(Netsim.Engine.now t.engine) ~src_eid:e_d ~dst_eid:e_s
        with
        | None -> true
        | Some entry ->
            (* The remote side moved its ingress (e.g. after an uplink
               failure): relearn so replies chase the new locator. *)
            not (Ipv4.addr_equal entry.Mapping.dst_rloc rloc_s)
      in
      if fresh then begin
        let dp = dataplane_exn t in
        let domain = router.Lispdp.Dataplane.router_domain in
        let pce = t.pces.(domain.Topology.Domain.id) in
        let reverse =
          { Mapping.src_eid = e_d; dst_eid = e_s;
            src_rloc = router.Lispdp.Dataplane.border.Topology.Domain.rloc;
            dst_rloc = rloc_s }
        in
        (* The receiving ETR installs immediately... *)
        Lispdp.Dataplane.install_flow_entry dp router reverse;
        Pce.remember_entry pce reverse;
        if Obs.Hub.enabled t.obs then
          Obs.Hub.emit t.obs ~actor:(domain.Topology.Domain.name ^ "-etr")
            ~flow:(Obs.Event.flow_id packet.Packet.flow)
            (Obs.Event.Reverse_learn { entry = reverse });
        match t.options.reverse_scope with
        | Reverse_receiving_only -> ()
        | Reverse_multicast ->
            let siblings =
              Array.to_list (Lispdp.Dataplane.routers_of_domain dp domain)
              |> List.filter (fun r ->
                     r.Lispdp.Dataplane.border.Topology.Domain.router
                     <> router.Lispdp.Dataplane.border.Topology.Domain.router)
            in
            t.stats.Mapsys.Cp_stats.push_messages <-
              t.stats.Mapsys.Cp_stats.push_messages + List.length siblings;
            t.stats.Mapsys.Cp_stats.control_bytes <-
              t.stats.Mapsys.Cp_stats.control_bytes
              + (List.length siblings * reverse_push_size reverse);
            List.iter
              (fun sibling ->
                ignore
                  (Netsim.Engine.schedule t.engine ~delay:multicast_latency
                     (Netsim.Prof.wrap ph_pce (fun () ->
                          Lispdp.Dataplane.install_flow_entry dp sibling
                            reverse))))
              siblings
      end

let choose_egress t ~src_domain flow =
  let pce = t.pces.(src_domain.Topology.Domain.id) in
  let border = egress_border t pce ~src_eid:flow.Flow.src ~dst_eid:flow.Flow.dst in
  if Obs.Hub.enabled t.obs then
    Obs.Hub.emit t.obs
      ~actor:(src_domain.Topology.Domain.name ^ "-pce")
      ~flow:(Obs.Event.flow_id flow)
      (Obs.Event.Irc_decision { rloc = border.Topology.Domain.rloc });
  border

(* Misses are labelled by direction: the responder's SYN/ACK travels the
   reverse tunnel, everything else the forward one, so the ablation
   experiments can attribute losses to the push-scope (forward) or the
   reverse-multicast (reverse) design choice. *)
let miss_cause packet =
  match packet.Packet.segment with
  | Packet.Syn_ack -> Netsim.Drop.Pce_no_mapping_reverse
  | Packet.Syn | Packet.Ack | Packet.Data _ | Packet.Fin ->
      Netsim.Drop.Pce_no_mapping_forward

(* A miss under the pure paper model is a drop (the push should have
   beaten the first packet).  With a pull fallback configured (the
   crash-recovery profile), the ITR degrades gracefully instead: the
   mapping is fetched from the pull mapping system, at the cost of the
   T_map_resol the PCE path was designed to avoid. *)
let handle_miss t router packet =
  match t.fallback with
  | None -> Lispdp.Dataplane.Miss_drop (miss_cause packet)
  | Some pull ->
      let domain = router.Lispdp.Dataplane.router_domain in
      let actor = domain.Topology.Domain.name ^ "-itr" in
      if Obs.Hub.enabled t.obs then
        Obs.Hub.emit t.obs ~actor
          ~flow:(Obs.Event.flow_id packet.Packet.flow)
          (Obs.Event.Degraded_to_pull { eid = packet.Packet.flow.Flow.dst });
      Mapsys.Pull.handle_miss pull router packet

let control_plane t =
  { Lispdp.Dataplane.cp_name = "pce";
    cp_choose_egress = (fun ~src_domain flow -> choose_egress t ~src_domain flow);
    cp_handle_miss = (fun router packet -> handle_miss t router packet);
    cp_note_etr_packet =
      (fun router ~outer_src packet -> note_etr_packet t router ~outer_src packet) }

(* -------------------------------------------------------------------
   Uplink failover.

   When a border's access link dies, every mapping that names its RLOC
   is stale.  The PCE repairs both directions from its databases:

   - {e advertised ingress} (PCE_D role): each peer that was handed the
     dead RLOC_D receives a direct PCE-to-PCE update (the peers learned
     each other's addresses in steps 6-7) carrying a freshly chosen
     ingress locator; the peer updates its name database and re-pushes
     the affected tuples to its ITRs.
   - {e own reverse locators} (PCE_S role): local tuples whose RLOC_S
     died are re-homed and re-pushed locally; the remote ETRs relearn
     the new locator from the changed outer source of the next forward
     packet.

   Detection happens in the background monitoring loop, so the blackout
   is bounded by the monitoring interval plus one peer RTT. *)

let handle_uplink_failure t ~domain_id ~border =
  let pce = t.pces.(domain_id) in
  let dead = border.Topology.Domain.rloc in
  t.failovers <- t.failovers + 1;
  (* Re-advertise a live ingress locator to every affected peer. *)
  List.iter
    (fun adv ->
      let fresh =
        Pce.ingress_rloc_for_eid pce ~eid:adv.Pce.adv_eid
          ~peer:adv.Pce.adv_peer ()
      in
      if not (Ipv4.addr_equal fresh dead) then begin
        Pce.record_advertisement pce ~qname:adv.Pce.adv_qname
          ~eid:adv.Pce.adv_eid ~peer:adv.Pce.adv_peer ~rloc:fresh;
        let peer_node = Ipv4.addr_to_int adv.Pce.adv_peer in
        match Hashtbl.find_opt t.resolver_domains peer_node with
        | None -> ()
        | Some peer_domain_id -> (
            t.stats.Mapsys.Cp_stats.push_messages <-
              t.stats.Mapsys.Cp_stats.push_messages + 1;
            t.stats.Mapsys.Cp_stats.control_bytes <-
              t.stats.Mapsys.Cp_stats.control_bytes
              + Wire.Codec.size
                  (Wire.Codec.Failover_update
                     { qname = Dnssim.Name.to_string adv.Pce.adv_qname;
                       eid = adv.Pce.adv_eid; rloc = fresh });
            let pce_node = (Pce.domain pce).Topology.Domain.pce in
            match
              Topology.Graph.latency_between (graph t) pce_node peer_node
            with
            | transit ->
                ignore
                  (Netsim.Engine.schedule t.engine
                     ~delay:(transit +. t.options.ipc_latency)
                     (Netsim.Prof.wrap ph_pce (fun () ->
                       let peer_pce = t.pces.(peer_domain_id) in
                       Pce.learn_name_mapping peer_pce
                         ~qname:adv.Pce.adv_qname ~dst_eid:adv.Pce.adv_eid
                         ~dst_rloc:fresh
                         ~now:(Netsim.Engine.now t.engine)
                         ~ttl:t.options.flow_ttl;
                       List.iter
                         (fun entry ->
                           push_entry t peer_pce
                             { entry with Mapping.dst_rloc = fresh })
                         (Pce.entries_toward peer_pce
                            ~dst_eid:adv.Pce.adv_eid))))
            | exception Not_found -> ())
      end)
    (Pce.advertisements_via pce ~rloc:dead);
  (* Re-home local tuples whose reverse locator died. *)
  List.iter
    (fun entry ->
      let flow =
        Pce.pair_flow ~src_eid:entry.Mapping.src_eid
          ~dst_eid:entry.Mapping.dst_eid
      in
      let fresh =
        Irc.Selector.choose_ingress (Pce.selector pce) ~flow ()
      in
      if not (Ipv4.addr_equal fresh.Topology.Domain.rloc dead) then
        push_entry t pce
          { entry with Mapping.src_rloc = fresh.Topology.Domain.rloc })
    (Pce.entries_with_src_rloc pce ~rloc:dead)

let run_monitoring t ~interval ~until ~rebalance =
  if interval <= 0.0 then invalid_arg "Pce_control.run_monitoring: bad interval";
  (* Last known uplink state, per domain and border, for edge-triggered
     failure detection. *)
  let states =
    Array.map
      (fun domain ->
        Array.map
          (fun b -> ref (Topology.Link.is_up b.Topology.Domain.uplink))
          domain.Topology.Domain.borders)
      t.internet.Topology.Builder.domains
  in
  let rec tick () =
    let now = Netsim.Engine.now t.engine in
    Array.iter
      (fun pce ->
        let domain = Pce.domain pce in
        let id = domain.Topology.Domain.id in
        Array.iteri
          (fun i b ->
            let up_now = Topology.Link.is_up b.Topology.Domain.uplink in
            let known = states.(id).(i) in
            if !known && not up_now then
              handle_uplink_failure t ~domain_id:id ~border:b;
            known := up_now)
          domain.Topology.Domain.borders;
        Irc.Selector.observe (Pce.selector pce) ~now;
        if rebalance then Irc.Selector.rebalance (Pce.selector pce))
      t.pces;
    if now +. interval <= until then
      ignore
        (Netsim.Engine.schedule t.engine ~delay:interval
           (Netsim.Prof.wrap ph_pce tick))
  in
  ignore
    (Netsim.Engine.schedule t.engine ~delay:interval
       (Netsim.Prof.wrap ph_pce tick))

let failovers t = t.failovers

let reroutes t =
  Array.fold_left
    (fun acc pce -> acc + Irc.Selector.moved_flows (Pce.selector pce))
    0 t.pces

(* -------------------------------------------------------------------
   Crash-recovery (node lifecycle).

   A crash is pure state loss: the PCE's in-memory databases vanish
   and, for the duration of its window, the step-1 observer, the
   step-6/7 tap path and the port-P listener all fall silent (guarded
   by [pce_down] at each hook).  Restart is a warm recovery: the
   process comes back with an empty flow database and resynchronizes
   from ground truth it can still reach — the flow tables of its own
   domain's ITRs — then re-registers the domain mapping with the pull
   registry so the fallback path keeps answering for it. *)

let handle_node_crash t ~domain_id =
  let pce = t.pces.(domain_id) in
  let actor = (Pce.domain pce).Topology.Domain.name ^ "-pce" in
  let role = Netsim.Lifecycle.role_label (Netsim.Lifecycle.Pce domain_id) in
  Pce.reset pce;
  if Obs.Hub.enabled t.obs then
    Obs.Hub.emit t.obs ~actor (Obs.Event.Node_crash { role })

let handle_node_restart t ~domain_id =
  let pce = t.pces.(domain_id) in
  let domain = Pce.domain pce in
  let actor = domain.Topology.Domain.name ^ "-pce" in
  let role = Netsim.Lifecycle.role_label (Netsim.Lifecycle.Pce domain_id) in
  if Obs.Hub.enabled t.obs then
    Obs.Hub.emit t.obs ~actor (Obs.Event.Node_restart { role });
  t.stats.Mapsys.Cp_stats.recoveries <-
    t.stats.Mapsys.Cp_stats.recoveries + 1;
  (* Resync: one query per local ITR, answered with its live flow
     entries; every recovered tuple goes back into the PCE database. *)
  let recovered = ref 0 in
  (match t.dataplane with
  | None -> ()
  | Some dp ->
      let now = Netsim.Engine.now t.engine in
      Array.iter
        (fun router ->
          t.stats.Mapsys.Cp_stats.map_requests <-
            t.stats.Mapsys.Cp_stats.map_requests + 1;
          Lispdp.Flow_table.iter router.Lispdp.Dataplane.flows ~now
            ~f:(fun entry ->
              incr recovered;
              t.stats.Mapsys.Cp_stats.control_bytes <-
                t.stats.Mapsys.Cp_stats.control_bytes
                + itr_config_size entry;
              Pce.remember_entry pce entry))
        (Lispdp.Dataplane.routers_of_domain dp domain));
  (* Re-register with the mapping registry (data no-op: the registry
     survived, but a real PCE cannot know that). *)
  (match t.registry with
  | None -> ()
  | Some registry ->
      let mapping = Mapsys.Registry.mapping_of_domain registry domain_id in
      t.stats.Mapsys.Cp_stats.push_messages <-
        t.stats.Mapsys.Cp_stats.push_messages + 1;
      t.stats.Mapsys.Cp_stats.control_bytes <-
        t.stats.Mapsys.Cp_stats.control_bytes
        + Wire.Codec.size (Wire.Codec.Database_push { mappings = [ mapping ] });
      Mapsys.Registry.update_mapping registry domain_id mapping);
  if Obs.Hub.enabled t.obs then
    Obs.Hub.emit t.obs ~actor
      (Obs.Event.Note
         (Printf.sprintf "warm recovery: %d flow entries resynced" !recovered))

let schedule_lifecycle t =
  match t.lifecycle with
  | None -> ()
  | Some lc ->
      List.iter
        (fun (role, from_, until) ->
          match role with
          | Netsim.Lifecycle.Pce id ->
              ignore
                (Netsim.Engine.schedule_at t.engine ~time:from_ (fun () ->
                     handle_node_crash t ~domain_id:id));
              (* Never schedule the restart of a window that ends at
                 infinity: the engine drains its whole queue, so an
                 event at t=inf would run the simulation forever. *)
              if until < infinity then
                ignore
                  (Netsim.Engine.schedule_at t.engine ~time:until (fun () ->
                       handle_node_restart t ~domain_id:id))
          | Netsim.Lifecycle.Dns_server _ | Netsim.Lifecycle.Map_server ->
              (* Not this control plane's nodes: the scenario layer
                 owns their transitions. *)
              ())
        (Netsim.Lifecycle.windows lc)
