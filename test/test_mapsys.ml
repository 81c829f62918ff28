(* Tests for the baseline mapping systems: the ALT overlay model, the
   registry, and the pull / NERD / CONS control planes driven end-to-end
   through the data plane. *)

open Nettypes

(* ------------------------------------------------------------------ *)
(* Alt                                                                 *)
(* ------------------------------------------------------------------ *)

let test_alt_geometry () =
  let alt = Mapsys.Alt.create ~domains:8 ~fanout:2 ~hop_latency:0.02 () in
  Alcotest.(check int) "depth of 8 leaves" 3 (Mapsys.Alt.depth alt);
  Alcotest.(check int) "self" 0 (Mapsys.Alt.request_hops alt ~src:3 ~dst:3);
  Alcotest.(check int) "siblings" 2 (Mapsys.Alt.request_hops alt ~src:0 ~dst:1);
  Alcotest.(check int) "opposite halves" 6 (Mapsys.Alt.request_hops alt ~src:0 ~dst:7);
  Alcotest.(check (float 1e-9)) "latency scales with hops" 0.12
    (Mapsys.Alt.request_latency alt ~src:0 ~dst:7)

let test_alt_symmetry () =
  let alt = Mapsys.Alt.create ~domains:16 ~fanout:4 () in
  for i = 0 to 15 do
    for j = 0 to 15 do
      Alcotest.(check int) "symmetric hops"
        (Mapsys.Alt.request_hops alt ~src:i ~dst:j)
        (Mapsys.Alt.request_hops alt ~src:j ~dst:i)
    done
  done

let test_alt_nonpower_domains () =
  let alt = Mapsys.Alt.create ~domains:5 ~fanout:2 () in
  Alcotest.(check int) "depth covers 5 leaves" 3 (Mapsys.Alt.depth alt);
  Alcotest.(check bool) "mean latency positive" true
    (Mapsys.Alt.mean_request_latency alt > 0.0)

let test_alt_usage_counters () =
  let alt = Mapsys.Alt.create ~domains:4 () in
  Mapsys.Alt.note_request alt ~src:0 ~dst:3;
  Mapsys.Alt.note_request alt ~src:0 ~dst:1;
  let u = Mapsys.Alt.usage alt in
  Alcotest.(check int) "requests" 2 u.Mapsys.Alt.requests;
  Alcotest.(check int) "hops total" 6 u.Mapsys.Alt.hops_total

let test_alt_validation () =
  (match Mapsys.Alt.create ~domains:0 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "domains=0 accepted");
  let alt = Mapsys.Alt.create ~domains:4 () in
  match Mapsys.Alt.request_hops alt ~src:0 ~dst:9 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "out-of-range leaf accepted"

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)
(* ------------------------------------------------------------------ *)

let test_registry_lookup () =
  let internet = Topology.Builder.figure1 () in
  let registry = Mapsys.Registry.create ~internet ~ttl:60.0 in
  Alcotest.(check int) "one mapping per domain" 2 (Mapsys.Registry.size registry);
  let as_d = internet.Topology.Builder.domains.(1) in
  let eid = Topology.Domain.host_eid as_d 0 in
  let m = Mapsys.Registry.mapping_of_domain registry 1 in
  Alcotest.(check bool) "covers the eid" true (Mapping.covers m eid);
  Alcotest.(check int) "both borders advertised" 2 (List.length m.Mapping.rlocs);
  Alcotest.check_raises "unknown domain"
    (Invalid_argument "Registry.mapping_of_domain: unknown domain") (fun () ->
      ignore (Mapsys.Registry.mapping_of_domain registry 2))

let test_registry_update () =
  let internet = Topology.Builder.figure1 () in
  let registry = Mapsys.Registry.create ~internet ~ttl:60.0 in
  let as_d = internet.Topology.Builder.domains.(1) in
  let replacement =
    Mapping.create ~eid_prefix:as_d.Topology.Domain.eid_prefix
      ~rlocs:[ Mapping.rloc as_d.Topology.Domain.borders.(1).Topology.Domain.rloc ]
      ~ttl:60.0
  in
  Mapsys.Registry.update_mapping registry 1 replacement;
  let m = Mapsys.Registry.mapping_of_domain registry 1 in
  Alcotest.(check int) "replaced" 1 (List.length m.Mapping.rlocs);
  Alcotest.(check bool) "same prefix" true
    (Mapping.covers m (Topology.Domain.host_eid as_d 0))

let test_registry_wire_bytes () =
  let internet = Topology.Builder.figure1 () in
  let registry = Mapsys.Registry.create ~internet ~ttl:60.0 in
  (* Database_push header (1 tag + 2 count) plus two mappings of
     (4 net + 1 len + 4 ttl + 1 count + 2 * 6 rloc) = 22 bytes each. *)
  Alcotest.(check int) "database bytes" 47 (Mapsys.Registry.total_wire_bytes registry);
  (* The accounting matches a real encoding. *)
  let mappings = [ Mapsys.Registry.mapping_of_domain registry 0;
                   Mapsys.Registry.mapping_of_domain registry 1 ] in
  Alcotest.(check int) "matches encode" 
    (Bytes.length (Wire.Codec.encode (Wire.Codec.Database_push { mappings })))
    (Mapsys.Registry.total_wire_bytes registry)

(* ------------------------------------------------------------------ *)
(* End-to-end harness over the real dataplane                          *)
(* ------------------------------------------------------------------ *)

type world = {
  engine : Netsim.Engine.t;
  internet : Topology.Builder.t;
  dataplane : Lispdp.Dataplane.t;
  stats : unit -> Mapsys.Cp_stats.t;
}

let make_pull_world ?(mode = Mapsys.Pull.Drop_while_pending) ?(hop_latency = 0.020)
    ?adversary ?auth ?nonce_rng () =
  let engine = Netsim.Engine.create () in
  let internet = Topology.Builder.figure1 () in
  let registry = Mapsys.Registry.create ~internet ~ttl:60.0 in
  let alt = Mapsys.Alt.create ~domains:2 ~hop_latency () in
  let pull =
    Mapsys.Pull.create ~engine ~internet ~registry ~alt ~mode ?adversary ?auth
      ?nonce_rng ()
  in
  let dataplane =
    Lispdp.Dataplane.create ~engine ~internet
      ~control_plane:(Mapsys.Pull.control_plane pull) ()
  in
  Mapsys.Pull.attach pull dataplane;
  { engine; internet; dataplane; stats = (fun () -> Mapsys.Pull.stats pull) }

let make_nerd_world () =
  let engine = Netsim.Engine.create () in
  let internet = Topology.Builder.figure1 () in
  let registry = Mapsys.Registry.create ~internet ~ttl:60.0 in
  let nerd = Mapsys.Nerd.create ~engine ~internet ~registry () in
  let dataplane =
    Lispdp.Dataplane.create ~engine ~internet
      ~control_plane:(Mapsys.Nerd.control_plane nerd) ()
  in
  Mapsys.Nerd.attach nerd dataplane;
  (nerd, { engine; internet; dataplane; stats = (fun () -> Mapsys.Nerd.stats nerd) })

let world_flow w ~port =
  let as_s = w.internet.Topology.Builder.domains.(0) in
  let as_d = w.internet.Topology.Builder.domains.(1) in
  Flow.create
    ~src:(Topology.Domain.host_eid as_s 0)
    ~dst:(Topology.Domain.host_eid as_d 0)
    ~src_port:port ()

let send w flow segment =
  Lispdp.Dataplane.send_from_host w.dataplane
    (Nettypes.Packet.make ~flow ~segment ~sent_at:(Netsim.Engine.now w.engine))

(* ------------------------------------------------------------------ *)
(* Pull                                                                *)
(* ------------------------------------------------------------------ *)

let test_pull_drop_first_packet () =
  let w = make_pull_world () in
  let flow = world_flow w ~port:1000 in
  let received = ref 0 in
  Lispdp.Dataplane.set_host_receiver w.dataplane flow.Flow.dst
    (Some (fun _ -> incr received));
  send w flow Packet.Syn;
  Netsim.Engine.run w.engine;
  Alcotest.(check int) "first packet dropped" 0 !received;
  Alcotest.(check int) "one map request" 1 (w.stats ()).Mapsys.Cp_stats.map_requests;
  Alcotest.(check int) "one map reply" 1 (w.stats ()).Mapsys.Cp_stats.map_replies;
  (* After the resolution, the mapping is cached: the next packet flows. *)
  send w flow Packet.Syn;
  Netsim.Engine.run w.engine;
  Alcotest.(check int) "second packet delivered" 1 !received;
  Alcotest.(check int) "no extra request" 1 (w.stats ()).Mapsys.Cp_stats.map_requests

let test_pull_queue_releases () =
  let w = make_pull_world ~mode:(Mapsys.Pull.Queue_while_pending 8) () in
  let flow = world_flow w ~port:1001 in
  let received = ref 0 in
  Lispdp.Dataplane.set_host_receiver w.dataplane flow.Flow.dst
    (Some (fun _ -> incr received));
  send w flow Packet.Syn;
  send w flow (Packet.Data 500);
  Netsim.Engine.run w.engine;
  Alcotest.(check int) "both queued packets delivered" 2 !received;
  Alcotest.(check int) "no drops"
    0 (Lispdp.Dataplane.counters w.dataplane).Lispdp.Dataplane.dropped

let test_pull_queue_overflow () =
  let w = make_pull_world ~mode:(Mapsys.Pull.Queue_while_pending 2) () in
  let flow = world_flow w ~port:1002 in
  Lispdp.Dataplane.set_host_receiver w.dataplane flow.Flow.dst (Some ignore);
  for _ = 1 to 5 do
    send w flow (Packet.Data 100)
  done;
  Netsim.Engine.run w.engine;
  let causes = Lispdp.Dataplane.drop_causes w.dataplane in
  Alcotest.(check (option int)) "overflow drops" (Some 3)
    (List.assoc_opt "resolution-queue-overflow" causes)

let test_pull_detour_delivers_slowly () =
  (* A deliberately slow overlay so the native path is clearly faster. *)
  let w = make_pull_world ~mode:Mapsys.Pull.Detour_via_cp ~hop_latency:0.1 () in
  let flow = world_flow w ~port:1003 in
  let received_at = ref [] in
  Lispdp.Dataplane.set_host_receiver w.dataplane flow.Flow.dst
    (Some (fun _ -> received_at := Netsim.Engine.now w.engine :: !received_at));
  send w flow Packet.Syn;
  Netsim.Engine.run w.engine;
  Alcotest.(check int) "delivered via the overlay" 1 (List.length !received_at);
  Alcotest.(check int) "counted as detour" 1
    (w.stats ()).Mapsys.Cp_stats.detoured_packets;
  Alcotest.(check int) "no drops"
    0 (Lispdp.Dataplane.counters w.dataplane).Lispdp.Dataplane.dropped;
  (* A post-resolution packet goes natively and therefore faster. *)
  let t_first = List.hd !received_at in
  let before = Netsim.Engine.now w.engine in
  send w flow (Packet.Data 100);
  Netsim.Engine.run w.engine;
  (match !received_at with
  | [ t_second; _ ] ->
      Alcotest.(check bool) "native faster than overlay" true
        (t_second -. before < t_first)
  | _ -> Alcotest.fail "expected two deliveries");
  ignore t_first

let test_pull_pending_coalesced () =
  let w = make_pull_world () in
  let as_s = w.internet.Topology.Builder.domains.(0) in
  let as_d = w.internet.Topology.Builder.domains.(1) in
  (* Two flows from the same host to the same remote domain that hash to
     the same ITR must share one resolution. *)
  let base =
    Flow.create
      ~src:(Topology.Domain.host_eid as_s 0)
      ~dst:(Topology.Domain.host_eid as_d 0)
      ~src_port:0 ()
  in
  let same_itr_ports =
    let borders = Array.length as_s.Topology.Domain.borders in
    let target = Flow.hash base mod borders in
    List.filter
      (fun p -> Flow.hash { base with Flow.src_port = p } mod borders = target)
      [ 1; 2; 3; 4; 5; 6; 7; 8 ]
  in
  (match same_itr_ports with
  | p1 :: p2 :: _ ->
      send w { base with Flow.src_port = p1 } Packet.Syn;
      send w { base with Flow.src_port = p2 } Packet.Syn
  | _ -> Alcotest.fail "could not find two flows on the same ITR");
  Netsim.Engine.run w.engine;
  Alcotest.(check int) "single coalesced request" 1
    (w.stats ()).Mapsys.Cp_stats.map_requests

let test_pull_symmetric_return () =
  let w = make_pull_world ~mode:(Mapsys.Pull.Queue_while_pending 8) () in
  let flow = world_flow w ~port:1004 in
  let reverse = Flow.reverse flow in
  (* Forward packet establishes the glean; observe the reverse path. *)
  Lispdp.Dataplane.set_host_receiver w.dataplane flow.Flow.dst (Some ignore);
  Lispdp.Dataplane.set_host_receiver w.dataplane flow.Flow.src (Some ignore);
  send w flow Packet.Syn;
  Netsim.Engine.run w.engine;
  (* Reverse traffic must not trigger a resolution: glean covers it. *)
  let requests_before = (w.stats ()).Mapsys.Cp_stats.map_requests in
  Lispdp.Dataplane.send_from_host w.dataplane
    (Packet.make ~flow:reverse ~segment:Packet.Syn_ack
       ~sent_at:(Netsim.Engine.now w.engine));
  Netsim.Engine.run w.engine;
  Alcotest.(check int) "no reverse resolution" requests_before
    (w.stats ()).Mapsys.Cp_stats.map_requests;
  Alcotest.(check int) "nothing dropped"
    0 (Lispdp.Dataplane.counters w.dataplane).Lispdp.Dataplane.dropped

(* ------------------------------------------------------------------ *)
(* NERD                                                                *)
(* ------------------------------------------------------------------ *)

let test_nerd_no_misses () =
  let nerd, w = make_nerd_world () in
  let flow = world_flow w ~port:2000 in
  let received = ref 0 in
  Lispdp.Dataplane.set_host_receiver w.dataplane flow.Flow.dst
    (Some (fun _ -> incr received));
  send w flow Packet.Syn;
  Netsim.Engine.run w.engine;
  Alcotest.(check int) "first packet delivered" 1 !received;
  Alcotest.(check int) "no drops"
    0 (Lispdp.Dataplane.counters w.dataplane).Lispdp.Dataplane.dropped;
  Alcotest.(check int) "full DB at each router" 2
    (Mapsys.Nerd.database_entries_per_router nerd)

let test_nerd_push_cost () =
  let nerd, w = make_nerd_world () in
  ignore w;
  let s = Mapsys.Nerd.stats nerd in
  (* 4 routers, one full-DB push each. *)
  Alcotest.(check int) "push messages" 4 s.Mapsys.Cp_stats.push_messages;
  Alcotest.(check int) "push bytes" (4 * 47) s.Mapsys.Cp_stats.control_bytes

let test_nerd_update_propagation () =
  let nerd, w = make_nerd_world () in
  let as_d = w.internet.Topology.Builder.domains.(1) in
  let flow = world_flow w ~port:2001 in
  Lispdp.Dataplane.set_host_receiver w.dataplane flow.Flow.dst (Some ignore);
  (* Move AS_D entirely behind its second border. *)
  let updated =
    Mapping.create ~eid_prefix:as_d.Topology.Domain.eid_prefix
      ~rlocs:[ Mapping.rloc as_d.Topology.Domain.borders.(1).Topology.Domain.rloc ]
      ~ttl:60.0
  in
  Mapsys.Nerd.push_update nerd ~domain:1 updated;
  Netsim.Engine.run w.engine;
  (* After propagation every ITR tunnels to border 1 only. *)
  send w flow (Packet.Data 100);
  Netsim.Engine.run w.engine;
  let b1_bytes =
    Topology.Link.bytes_from as_d.Topology.Domain.borders.(1).Topology.Domain.uplink
      (Topology.Link.other_end
         as_d.Topology.Domain.borders.(1).Topology.Domain.uplink
         as_d.Topology.Domain.borders.(1).Topology.Domain.router)
  in
  Alcotest.(check bool) "traffic entered via the updated RLOC" true (b1_bytes > 0)

(* ------------------------------------------------------------------ *)
(* CONS                                                                *)
(* ------------------------------------------------------------------ *)

let test_cons_warm_cache_speedup () =
  let engine = Netsim.Engine.create () in
  let params =
    { Topology.Builder.default_params with domain_count = 8; provider_count = 4 }
  in
  let internet = Topology.Builder.generate (Netsim.Rng.create 5) params in
  let registry = Mapsys.Registry.create ~internet ~ttl:60.0 in
  let alt = Mapsys.Alt.create ~domains:8 () in
  let cons = Mapsys.Cons.create ~engine ~internet ~registry ~alt () in
  let dataplane =
    Lispdp.Dataplane.create ~engine ~internet
      ~control_plane:(Mapsys.Cons.control_plane cons) ()
  in
  Mapsys.Cons.attach cons dataplane;
  Alcotest.(check int) "nothing warm" 0 (Mapsys.Cons.warm_destinations cons);
  (* First resolution from domain 0 to domain 7. *)
  let flow d_src d_dst port =
    Flow.create
      ~src:(Topology.Domain.host_eid internet.Topology.Builder.domains.(d_src) 0)
      ~dst:(Topology.Domain.host_eid internet.Topology.Builder.domains.(d_dst) 0)
      ~src_port:port ()
  in
  Lispdp.Dataplane.set_host_receiver dataplane
    (Topology.Domain.host_eid internet.Topology.Builder.domains.(7) 0)
    (Some ignore);
  let t0 = Netsim.Engine.now engine in
  Lispdp.Dataplane.send_from_host dataplane
    (Packet.make ~flow:(flow 0 7 1) ~segment:Packet.Syn ~sent_at:t0);
  Netsim.Engine.run engine;
  let first_duration = Netsim.Engine.now engine -. t0 in
  Alcotest.(check int) "destination warm" 1 (Mapsys.Cons.warm_destinations cons);
  (* Second resolution from a different domain to the same destination
     finishes faster thanks to in-hierarchy caching. *)
  let t1 = Netsim.Engine.now engine in
  Lispdp.Dataplane.send_from_host dataplane
    (Packet.make ~flow:(flow 1 7 2) ~segment:Packet.Syn ~sent_at:t1);
  Netsim.Engine.run engine;
  let second_duration = Netsim.Engine.now engine -. t1 in
  Alcotest.(check bool) "warm resolution faster" true
    (second_duration < first_duration)

(* ------------------------------------------------------------------ *)
(* MS/MR                                                               *)
(* ------------------------------------------------------------------ *)

let make_msmr_world () =
  let engine = Netsim.Engine.create () in
  let internet = Topology.Builder.figure1 () in
  let registry = Mapsys.Registry.create ~internet ~ttl:60.0 in
  let alt = Mapsys.Alt.create ~domains:2 () in
  let msmr = Mapsys.Msmr.create ~engine ~internet ~registry ~alt () in
  let dataplane =
    Lispdp.Dataplane.create ~engine ~internet
      ~control_plane:(Mapsys.Msmr.control_plane msmr) ()
  in
  Mapsys.Msmr.attach msmr dataplane;
  (msmr, { engine; internet; dataplane; stats = (fun () -> Mapsys.Msmr.stats msmr) })

let test_msmr_registration_cost () =
  let msmr, w = make_msmr_world () in
  ignore w;
  let s = Mapsys.Msmr.stats msmr in
  (* Initial registration: one map-register per border router (4). *)
  Alcotest.(check int) "registers" 4 s.Mapsys.Cp_stats.push_messages;
  Alcotest.(check bool) "register bytes counted" true
    (s.Mapsys.Cp_stats.control_bytes > 0);
  Mapsys.Msmr.refresh_registrations msmr;
  Alcotest.(check int) "refresh adds another round" 8
    (Mapsys.Msmr.stats msmr).Mapsys.Cp_stats.push_messages

let test_msmr_drops_then_resolves () =
  let _, w = make_msmr_world () in
  let flow = world_flow w ~port:3000 in
  let received = ref 0 in
  Lispdp.Dataplane.set_host_receiver w.dataplane flow.Flow.dst
    (Some (fun _ -> incr received));
  send w flow Packet.Syn;
  Netsim.Engine.run w.engine;
  Alcotest.(check int) "first packet dropped (LISP-beta behaviour)" 0 !received;
  Alcotest.(check int) "one map request" 1 (w.stats ()).Mapsys.Cp_stats.map_requests;
  send w flow Packet.Syn;
  Netsim.Engine.run w.engine;
  Alcotest.(check int) "delivered after the proxy reply" 1 !received

let test_msmr_resolution_slower_than_direct () =
  (* MS/MR resolution includes the DDT walk: slower than a direct ALT
     request on this tiny topology where the ALT overlay is short. *)
  let time_to_resolve make_world =
    let world = make_world () in
    let flow = world_flow world ~port:3001 in
    Lispdp.Dataplane.set_host_receiver world.dataplane flow.Flow.dst (Some ignore);
    send world flow Packet.Syn;
    Netsim.Engine.run world.engine;
    Netsim.Engine.now world.engine
  in
  let msmr_time = time_to_resolve (fun () -> snd (make_msmr_world ())) in
  Alcotest.(check bool) "resolution completes in bounded time" true
    (msmr_time > 0.0 && msmr_time < 1.0)

(* ------------------------------------------------------------------ *)
(* Glean                                                               *)
(* ------------------------------------------------------------------ *)

let test_glean_roundtrip () =
  let g = Mapsys.Glean.create () in
  let internet = Topology.Builder.figure1 () in
  let as_s = internet.Topology.Builder.domains.(0) in
  let b0 = as_s.Topology.Domain.borders.(0) in
  let b1 = as_s.Topology.Domain.borders.(1) in
  let remote = Ipv4.addr_of_string "100.0.1.1" in
  Alcotest.(check bool) "empty" true
    (Mapsys.Glean.lookup g ~domain:0 ~remote_eid:remote = None);
  Mapsys.Glean.note g ~domain:0 ~remote_eid:remote ~border:b0;
  (match Mapsys.Glean.lookup g ~domain:0 ~remote_eid:remote with
  | Some b -> Alcotest.(check int) "recorded" b0.Topology.Domain.router b.Topology.Domain.router
  | None -> Alcotest.fail "missing glean");
  (* Later observation replaces the border. *)
  Mapsys.Glean.note g ~domain:0 ~remote_eid:remote ~border:b1;
  (match Mapsys.Glean.lookup g ~domain:0 ~remote_eid:remote with
  | Some b -> Alcotest.(check int) "replaced" b1.Topology.Domain.router b.Topology.Domain.router
  | None -> Alcotest.fail "missing glean");
  Alcotest.(check int) "one entry" 1 (Mapsys.Glean.entries g);
  (* Per-domain scoping. *)
  Alcotest.(check bool) "other domain unaffected" true
    (Mapsys.Glean.lookup g ~domain:1 ~remote_eid:remote = None)

(* The admission cap bounds the table with oldest-first eviction — the
   graceful-degradation answer to an EID-scan flood growing it without
   bound. *)
let test_glean_cap_fifo () =
  let g = Mapsys.Glean.create ~cap:2 () in
  let internet = Topology.Builder.figure1 () in
  let as_s = internet.Topology.Builder.domains.(0) in
  let b0 = as_s.Topology.Domain.borders.(0) in
  let eid i = Ipv4.addr_of_string (Printf.sprintf "100.0.1.%d" i) in
  Alcotest.(check (option int)) "cap recorded" (Some 2) (Mapsys.Glean.cap g);
  Mapsys.Glean.note g ~domain:0 ~remote_eid:(eid 1) ~border:b0;
  Mapsys.Glean.note g ~domain:0 ~remote_eid:(eid 2) ~border:b0;
  Alcotest.(check int) "at cap, no eviction" 0 (Mapsys.Glean.evictions g);
  (* Re-noting a live key replaces in place: no eviction, same size. *)
  Mapsys.Glean.note g ~domain:0 ~remote_eid:(eid 1) ~border:b0;
  Alcotest.(check int) "re-note is not an admission" 0 (Mapsys.Glean.evictions g);
  Alcotest.(check int) "still two entries" 2 (Mapsys.Glean.entries g);
  (* A third distinct key pushes out the oldest-noted one (eid 1's age
     was fixed at its first note). *)
  Mapsys.Glean.note g ~domain:0 ~remote_eid:(eid 3) ~border:b0;
  Alcotest.(check int) "bounded" 2 (Mapsys.Glean.entries g);
  Alcotest.(check int) "one eviction" 1 (Mapsys.Glean.evictions g);
  Alcotest.(check bool) "oldest gone" true
    (Mapsys.Glean.lookup g ~domain:0 ~remote_eid:(eid 1) = None);
  Alcotest.(check bool) "newest live" true
    (Mapsys.Glean.lookup g ~domain:0 ~remote_eid:(eid 3) <> None)

(* ------------------------------------------------------------------ *)
(* Control-plane loss and retransmission                               *)
(* ------------------------------------------------------------------ *)

(* Like [make_pull_world], but exposes the pull instance and threads a
   fault model / retry policy through. *)
let make_faulty_pull_world ?faults ?retry ~mode () =
  let engine = Netsim.Engine.create () in
  let internet = Topology.Builder.figure1 () in
  let registry = Mapsys.Registry.create ~internet ~ttl:60.0 in
  let alt = Mapsys.Alt.create ~domains:2 ~hop_latency:0.020 () in
  let pull =
    Mapsys.Pull.create ~engine ~internet ~registry ~alt ~mode ?faults ?retry ()
  in
  let dataplane =
    Lispdp.Dataplane.create ~engine ~internet
      ~control_plane:(Mapsys.Pull.control_plane pull) ()
  in
  Mapsys.Pull.attach pull dataplane;
  (pull,
   { engine; internet; dataplane; stats = (fun () -> Mapsys.Pull.stats pull) })

(* Regression: an unreachable destination used to leave the resolution
   and its queued packets held forever, invisible to every counter.  Now
   the resolution is abandoned and the packets are counted drops. *)
let test_pull_partitioned_destination_counted () =
  let pull, w =
    make_faulty_pull_world ~mode:(Mapsys.Pull.Queue_while_pending 8) ()
  in
  let as_d = w.internet.Topology.Builder.domains.(1) in
  Array.iter
    (fun b ->
      Topology.Graph.set_link_up w.internet.Topology.Builder.graph
        b.Topology.Domain.uplink false)
    as_d.Topology.Domain.borders;
  let flow = world_flow w ~port:2000 in
  Lispdp.Dataplane.set_host_receiver w.dataplane flow.Flow.dst (Some ignore);
  for _ = 1 to 3 do
    send w flow (Packet.Data 100)
  done;
  Netsim.Engine.run w.engine;
  Alcotest.(check (option int)) "abandoned drops counted" (Some 3)
    (List.assoc_opt "resolution-abandoned" (Lispdp.Dataplane.drop_causes w.dataplane));
  Alcotest.(check int) "total drop counter agrees" 3
    (Lispdp.Dataplane.counters w.dataplane).Lispdp.Dataplane.dropped;
  Alcotest.(check int) "no leaked resolution" 0
    (Mapsys.Pull.pending_resolutions pull)

(* Deterministic backoff schedule: with every request lost, attempts go
   out at t_miss, t_miss + rto, t_miss + rto(1 + backoff); the timeout
   fires one more backoff step later. *)
let test_pull_retry_deterministic_timing () =
  let faults =
    Netsim.Faults.create ~rng:(Netsim.Rng.create 5) ~loss:1.0 ()
  in
  let retry = Netsim.Faults.retry ~rto:0.5 ~backoff:2.0 ~budget:2 () in
  let pull, w =
    make_faulty_pull_world ~faults ~retry
      ~mode:(Mapsys.Pull.Queue_while_pending 8) ()
  in
  let flow = world_flow w ~port:2001 in
  Lispdp.Dataplane.set_host_receiver w.dataplane flow.Flow.dst (Some ignore);
  send w flow Packet.Syn;
  send w flow (Packet.Data 100);
  Netsim.Engine.run w.engine;
  let s = w.stats () in
  Alcotest.(check int) "three transmissions" 3 s.Mapsys.Cp_stats.map_requests;
  Alcotest.(check int) "two retransmissions" 2 s.Mapsys.Cp_stats.retransmissions;
  Alcotest.(check int) "one timeout" 1 s.Mapsys.Cp_stats.timeouts;
  Alcotest.(check int) "no reply ever" 0 s.Mapsys.Cp_stats.map_replies;
  Alcotest.(check int) "all losses drawn" 3 (Netsim.Faults.losses faults);
  Alcotest.(check (option int)) "queued packets dropped at timeout" (Some 2)
    (List.assoc_opt "resolution-timeout" (Lispdp.Dataplane.drop_causes w.dataplane));
  Alcotest.(check int) "no leaked resolution" 0
    (Mapsys.Pull.pending_resolutions pull);
  (* Exact schedule: the miss happens when the first packet crosses the
     host-to-ITR wire; the timeout 0.5 + 1.0 + 2.0 seconds later is the
     final event of the run. *)
  let as_s = w.internet.Topology.Builder.domains.(0) in
  let borders = as_s.Topology.Domain.borders in
  let egress = borders.(Flow.hash flow mod Array.length borders) in
  let t_miss =
    Topology.Graph.latency_between w.internet.Topology.Builder.graph
      as_s.Topology.Domain.hosts.(Topology.Domain.host_index as_s flow.Flow.src)
      egress.Topology.Domain.router
  in
  Alcotest.(check (float 1e-9)) "timeout at t_miss + 3.5"
    (t_miss +. 3.5) (Netsim.Engine.now w.engine)

(* A retransmission sent after an outage window heals must succeed and
   release the held packets. *)
let test_pull_retransmit_after_heal () =
  let faults = Netsim.Faults.create ~rng:(Netsim.Rng.create 5) () in
  Netsim.Faults.add_window faults ~from_:0.0 ~until:0.3 Netsim.Faults.All;
  let retry = Netsim.Faults.retry ~rto:0.5 ~backoff:2.0 ~budget:3 () in
  let _pull, w =
    make_faulty_pull_world ~faults ~retry
      ~mode:(Mapsys.Pull.Queue_while_pending 8) ()
  in
  let flow = world_flow w ~port:2002 in
  let received = ref 0 in
  Lispdp.Dataplane.set_host_receiver w.dataplane flow.Flow.dst
    (Some (fun _ -> incr received));
  send w flow Packet.Syn;
  Netsim.Engine.run w.engine;
  let s = w.stats () in
  Alcotest.(check int) "first attempt blocked by window" 1
    (Netsim.Faults.blocked faults);
  Alcotest.(check int) "one retransmission" 1 s.Mapsys.Cp_stats.retransmissions;
  Alcotest.(check int) "no timeout" 0 s.Mapsys.Cp_stats.timeouts;
  Alcotest.(check int) "resolved on retry" 1 s.Mapsys.Cp_stats.resolutions;
  Alcotest.(check int) "held packet delivered" 1 !received;
  Alcotest.(check int) "no drops" 0
    (Lispdp.Dataplane.counters w.dataplane).Lispdp.Dataplane.dropped

(* ------------------------------------------------------------------ *)
(* Cp_stats                                                            *)
(* ------------------------------------------------------------------ *)

let test_cp_stats_pp () =
  let a = Mapsys.Cp_stats.create () in
  a.Mapsys.Cp_stats.map_requests <- 2;
  a.Mapsys.Cp_stats.push_messages <- 3;
  a.Mapsys.Cp_stats.control_bytes <- 100;
  let rendered = Format.asprintf "%a" Mapsys.Cp_stats.pp a in
  Alcotest.(check bool) "renders" true (String.length rendered > 10);
  Alcotest.(check int) "message total" 5 (Mapsys.Cp_stats.message_total a)

(* ------------------------------------------------------------------ *)
(* Nonces                                                              *)
(* ------------------------------------------------------------------ *)

(* Regression: map-request nonces used to be a monotonically increasing
   counter, so an off-path attacker could predict the next one and win
   every forgery race.  They must now be uniform 32-bit draws. *)
let test_nonce_unpredictable () =
  let n = Mapsys.Nonce.create () in
  let values = Array.init 64 (fun _ -> Mapsys.Nonce.fresh n) in
  Array.iter
    (fun v ->
      Alcotest.(check bool) "in [0, 2^32)" true (v >= 0 && v < 0x1_0000_0000))
    values;
  let sequential = ref 0 in
  for i = 0 to Array.length values - 2 do
    if values.(i + 1) = values.(i) + 1 then incr sequential
  done;
  Alcotest.(check int) "no sequential pairs" 0 !sequential;
  let distinct = List.sort_uniq compare (Array.to_list values) in
  Alcotest.(check bool) "draws spread over the space" true
    (List.length distinct > 60);
  (* The default stream is fixed-seed: deterministic across creations. *)
  let m = Mapsys.Nonce.create () in
  Alcotest.(check int) "deterministic default stream" values.(0)
    (Mapsys.Nonce.fresh m)

(* ------------------------------------------------------------------ *)
(* Adversary: forged and replayed map-replies vs the auth profile      *)
(* ------------------------------------------------------------------ *)

let spoofing_adversary () =
  Netsim.Adversary.create ~rng:(Netsim.Rng.create 7) ~spoof_rate:1.0 ()

let replaying_adversary () =
  Netsim.Adversary.create ~rng:(Netsim.Rng.create 7) ~replay_rate:1.0 ()

let armed_auth =
  { Mapsys.Pull.no_auth with Mapsys.Pull.nonce_check = true; signatures = true }

(* Without countermeasures the forged reply wins the race: the
   attacker's unroutable RLOC is installed, the held packet is
   encapsulated towards it and blackholes. *)
let test_spoof_accepted_without_auth () =
  let adversary = spoofing_adversary () in
  let w =
    make_pull_world ~mode:(Mapsys.Pull.Queue_while_pending 8) ~adversary ()
  in
  let flow = world_flow w ~port:4000 in
  let received = ref 0 in
  Lispdp.Dataplane.set_host_receiver w.dataplane flow.Flow.dst
    (Some (fun _ -> incr received));
  send w flow Packet.Syn;
  Netsim.Engine.run w.engine;
  Alcotest.(check int) "one forgery attempted" 1
    (Netsim.Adversary.forged_replies adversary);
  Alcotest.(check int) "forgery accepted" 1
    (w.stats ()).Mapsys.Cp_stats.spoofed_accepted;
  Alcotest.(check int) "held packet blackholed" 0 !received

(* The nonce echo plus signature verification refuse the blind forgery;
   the legitimate reply still resolves and releases the held packet. *)
let test_spoof_rejected_with_auth () =
  let adversary = spoofing_adversary () in
  let w =
    make_pull_world ~mode:(Mapsys.Pull.Queue_while_pending 8) ~adversary
      ~auth:armed_auth ()
  in
  let flow = world_flow w ~port:4001 in
  let received = ref 0 in
  Lispdp.Dataplane.set_host_receiver w.dataplane flow.Flow.dst
    (Some (fun _ -> incr received));
  send w flow Packet.Syn;
  Netsim.Engine.run w.engine;
  let s = w.stats () in
  Alcotest.(check int) "forgery rejected" 1 s.Mapsys.Cp_stats.spoofed_rejected;
  Alcotest.(check int) "nothing accepted" 0 s.Mapsys.Cp_stats.spoofed_accepted;
  Alcotest.(check int) "resolved by the genuine reply" 1
    s.Mapsys.Cp_stats.resolutions;
  Alcotest.(check int) "held packet delivered" 1 !received

(* A replayed stale reply carries the genuine mapping, so acceptance is
   invisible to the dataplane — only the nonce echo can tell it apart. *)
let test_replay_accepted_without_auth () =
  let adversary = replaying_adversary () in
  let w =
    make_pull_world ~mode:(Mapsys.Pull.Queue_while_pending 8) ~adversary ()
  in
  let flow = world_flow w ~port:4002 in
  Lispdp.Dataplane.set_host_receiver w.dataplane flow.Flow.dst (Some ignore);
  send w flow Packet.Syn;
  Netsim.Engine.run w.engine;
  Alcotest.(check int) "one replay attempted" 1
    (Netsim.Adversary.replayed_replies adversary);
  Alcotest.(check int) "replay accepted" 1
    (w.stats ()).Mapsys.Cp_stats.replayed_accepted

let test_replay_rejected_with_nonce () =
  let adversary = replaying_adversary () in
  let w =
    make_pull_world ~mode:(Mapsys.Pull.Queue_while_pending 8) ~adversary
      ~auth:{ Mapsys.Pull.no_auth with Mapsys.Pull.nonce_check = true }
      ()
  in
  let flow = world_flow w ~port:4003 in
  let received = ref 0 in
  Lispdp.Dataplane.set_host_receiver w.dataplane flow.Flow.dst
    (Some (fun _ -> incr received));
  send w flow Packet.Syn;
  Netsim.Engine.run w.engine;
  let s = w.stats () in
  Alcotest.(check int) "replay rejected" 1 s.Mapsys.Cp_stats.replayed_rejected;
  Alcotest.(check int) "nothing accepted" 0 s.Mapsys.Cp_stats.replayed_accepted;
  Alcotest.(check int) "held packet delivered" 1 !received

(* An inert adversary (all rates zero) must perturb nothing: same
   counters and same final simulated time as no adversary at all. *)
let test_inert_adversary_invisible () =
  let run adversary =
    let w = make_pull_world ?adversary () in
    let flow = world_flow w ~port:4004 in
    Lispdp.Dataplane.set_host_receiver w.dataplane flow.Flow.dst (Some ignore);
    send w flow Packet.Syn;
    send w flow Packet.Syn;
    Netsim.Engine.run w.engine;
    (Netsim.Engine.now w.engine, w.stats ())
  in
  let t0, s0 = run None in
  let inert = Netsim.Adversary.create ~rng:(Netsim.Rng.create 7) () in
  let t1, s1 = run (Some inert) in
  Alcotest.(check (float 0.0)) "same final time" t0 t1;
  Alcotest.(check int) "same requests" s0.Mapsys.Cp_stats.map_requests
    s1.Mapsys.Cp_stats.map_requests;
  Alcotest.(check int) "same replies" s0.Mapsys.Cp_stats.map_replies
    s1.Mapsys.Cp_stats.map_replies;
  Alcotest.(check int) "no verdicts" 0
    (s1.Mapsys.Cp_stats.spoofed_accepted + s1.Mapsys.Cp_stats.spoofed_rejected
    + s1.Mapsys.Cp_stats.replayed_accepted
    + s1.Mapsys.Cp_stats.replayed_rejected)

let () =
  Alcotest.run "mapsys"
    [
      ( "alt",
        [
          Alcotest.test_case "geometry" `Quick test_alt_geometry;
          Alcotest.test_case "symmetry" `Quick test_alt_symmetry;
          Alcotest.test_case "non-power domains" `Quick test_alt_nonpower_domains;
          Alcotest.test_case "usage counters" `Quick test_alt_usage_counters;
          Alcotest.test_case "validation" `Quick test_alt_validation;
        ] );
      ( "registry",
        [
          Alcotest.test_case "lookup" `Quick test_registry_lookup;
          Alcotest.test_case "update" `Quick test_registry_update;
          Alcotest.test_case "wire bytes" `Quick test_registry_wire_bytes;
        ] );
      ( "pull",
        [
          Alcotest.test_case "drop first packet" `Quick test_pull_drop_first_packet;
          Alcotest.test_case "queue releases" `Quick test_pull_queue_releases;
          Alcotest.test_case "queue overflow" `Quick test_pull_queue_overflow;
          Alcotest.test_case "detour delivers" `Quick test_pull_detour_delivers_slowly;
          Alcotest.test_case "pending coalesced" `Quick test_pull_pending_coalesced;
          Alcotest.test_case "symmetric return" `Quick test_pull_symmetric_return;
        ] );
      ( "cp-faults",
        [
          Alcotest.test_case "partitioned destination counted" `Quick
            test_pull_partitioned_destination_counted;
          Alcotest.test_case "deterministic retry timing" `Quick
            test_pull_retry_deterministic_timing;
          Alcotest.test_case "retransmit after heal" `Quick
            test_pull_retransmit_after_heal;
        ] );
      ( "nerd",
        [
          Alcotest.test_case "no misses" `Quick test_nerd_no_misses;
          Alcotest.test_case "push cost" `Quick test_nerd_push_cost;
          Alcotest.test_case "update propagation" `Quick test_nerd_update_propagation;
        ] );
      ("cons", [ Alcotest.test_case "warm cache speedup" `Quick test_cons_warm_cache_speedup ]);
      ( "msmr",
        [
          Alcotest.test_case "registration cost" `Quick test_msmr_registration_cost;
          Alcotest.test_case "drop then resolve" `Quick test_msmr_drops_then_resolves;
          Alcotest.test_case "bounded resolution" `Quick test_msmr_resolution_slower_than_direct;
        ] );
      ( "glean",
        [
          Alcotest.test_case "roundtrip" `Quick test_glean_roundtrip;
          Alcotest.test_case "cap fifo eviction" `Quick test_glean_cap_fifo;
        ] );
      ("nonce", [ Alcotest.test_case "unpredictable" `Quick test_nonce_unpredictable ]);
      ( "adversary",
        [
          Alcotest.test_case "spoof accepted without auth" `Quick
            test_spoof_accepted_without_auth;
          Alcotest.test_case "spoof rejected with auth" `Quick
            test_spoof_rejected_with_auth;
          Alcotest.test_case "replay accepted without auth" `Quick
            test_replay_accepted_without_auth;
          Alcotest.test_case "replay rejected with nonce" `Quick
            test_replay_rejected_with_nonce;
          Alcotest.test_case "inert adversary invisible" `Quick
            test_inert_adversary_invisible;
        ] );
      ( "cp_stats",
        [
          Alcotest.test_case "pp" `Quick test_cp_stats_pp;
        ] );
    ]
