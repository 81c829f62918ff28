(* Tests for the workload library: TCP handshake/RTO behaviour over an
   always-mapped dataplane, arrival processes and traffic generation. *)

open Nettypes

(* A dataplane whose control plane never misses: NERD gives every router
   the full database, so TCP behaviour is isolated from mapping logic. *)
let make_world () =
  let engine = Netsim.Engine.create () in
  let internet = Topology.Builder.figure1 () in
  let registry = Mapsys.Registry.create ~internet ~ttl:60.0 in
  let nerd = Mapsys.Nerd.create ~engine ~internet ~registry () in
  let dataplane =
    Lispdp.Dataplane.create ~engine ~internet
      ~control_plane:(Mapsys.Nerd.control_plane nerd) ()
  in
  Mapsys.Nerd.attach nerd dataplane;
  (engine, internet, dataplane)

(* A dataplane that drops everything: for RTO behaviour. *)
let make_blackhole () =
  let engine = Netsim.Engine.create () in
  let internet = Topology.Builder.figure1 () in
  let control_plane =
    { Lispdp.Dataplane.cp_name = "blackhole";
      cp_choose_egress =
        (fun ~src_domain _flow -> src_domain.Topology.Domain.borders.(0));
      cp_handle_miss =
        (fun _ _ ->
          Lispdp.Dataplane.Miss_drop Netsim.Drop.Mapping_resolution_drop);
      cp_note_etr_packet = (fun _ ~outer_src:_ _ -> ()) }
  in
  let dataplane = Lispdp.Dataplane.create ~engine ~internet ~control_plane () in
  (engine, internet, dataplane)

let flow_of internet port =
  let as_s = internet.Topology.Builder.domains.(0) in
  let as_d = internet.Topology.Builder.domains.(1) in
  Flow.create
    ~src:(Topology.Domain.host_eid as_s 0)
    ~dst:(Topology.Domain.host_eid as_d 0)
    ~src_port:port ()

(* ------------------------------------------------------------------ *)
(* Tcp                                                                 *)
(* ------------------------------------------------------------------ *)

let test_tcp_handshake_and_data () =
  let engine, internet, dataplane = make_world () in
  let tcp = Workload.Tcp.create ~engine ~dataplane () in
  let established = ref None in
  let completed = ref None in
  let conn =
    Workload.Tcp.start_connection tcp ~flow:(flow_of internet 4000)
      ~data_packets:5
      ~on_established:(fun c -> established := Workload.Tcp.handshake_time c)
      ~on_complete:(fun c -> completed := c.Workload.Tcp.completed_at)
      ()
  in
  Netsim.Engine.run engine;
  (match !established with
  | Some h ->
      (* Handshake = 2 one-way delays + small internals, well under an
         RTO and over a single OWD. *)
      Alcotest.(check bool) "handshake plausible" true (h > 0.05 && h < 0.5)
  | None -> Alcotest.fail "never established");
  Alcotest.(check bool) "completed" true (!completed <> None);
  Alcotest.(check int) "single SYN" 1 conn.Workload.Tcp.syn_transmissions;
  Alcotest.(check int) "all data arrived" 5 conn.Workload.Tcp.data_delivered;
  Alcotest.(check bool) "first syn arrival recorded" true
    (conn.Workload.Tcp.first_syn_arrival <> None)

let test_tcp_rto_exhaustion () =
  let engine, internet, dataplane = make_blackhole () in
  let tcp = Workload.Tcp.create ~engine ~dataplane () in
  let conn = Workload.Tcp.start_connection tcp ~flow:(flow_of internet 4001) () in
  Netsim.Engine.run engine;
  Alcotest.(check bool) "failed" true conn.Workload.Tcp.failed;
  Alcotest.(check int) "1 initial + 6 retries" 7
    conn.Workload.Tcp.syn_transmissions;
  Alcotest.(check bool) "never established" true
    (conn.Workload.Tcp.established_at = None);
  (* RTO doubling from 1 s: total wait 1 + 2 + ... + 64 = 127 s. *)
  Alcotest.(check (float 1e-6)) "exponential backoff horizon" 127.0
    (Netsim.Engine.now engine)

let test_tcp_retry_after_transient_loss () =
  (* Drop the first SYN only, as a pull-based control plane would. *)
  let engine = Netsim.Engine.create () in
  let internet = Topology.Builder.figure1 () in
  let registry = Mapsys.Registry.create ~internet ~ttl:3600.0 in
  let first = ref true in
  let dataplane_ref = ref None in
  let control_plane =
    { Lispdp.Dataplane.cp_name = "drop-once";
      cp_choose_egress =
        (fun ~src_domain _flow -> src_domain.Topology.Domain.borders.(0));
      cp_handle_miss =
        (fun router packet ->
          if !first then begin
            first := false;
            (* Install the mapping for subsequent packets. *)
            let dp = Option.get !dataplane_ref in
            (match
               Topology.Builder.domain_of_eid internet
                 packet.Packet.flow.Flow.dst
             with
            | Some d ->
                Lispdp.Dataplane.install_mapping dp router
                  (Mapsys.Registry.mapping_of_domain registry
                     d.Topology.Domain.id)
            | None -> ());
            Lispdp.Dataplane.Miss_drop
              Netsim.Drop.Mapping_resolution_drop
          end
          else Lispdp.Dataplane.Miss_drop Netsim.Drop.No_route)
      ;
      cp_note_etr_packet =
        (fun router ~outer_src packet ->
          (* Glean domain-wide so the reverse path never misses. *)
          match outer_src with
          | Some rloc ->
              let dp = Option.get !dataplane_ref in
              Lispdp.Dataplane.install_mapping_all dp
                router.Lispdp.Dataplane.router_domain
                (Mapping.create
                   ~eid_prefix:(Ipv4.prefix packet.Packet.flow.Flow.src 32)
                   ~rlocs:[ Mapping.rloc rloc ] ~ttl:60.0)
          | None -> ()) }
  in
  let dataplane = Lispdp.Dataplane.create ~engine ~internet ~control_plane () in
  dataplane_ref := Some dataplane;
  let tcp = Workload.Tcp.create ~engine ~dataplane () in
  let conn = Workload.Tcp.start_connection tcp ~flow:(flow_of internet 4002) ~data_packets:1 () in
  Netsim.Engine.run engine;
  Alcotest.(check int) "retransmitted once" 2 conn.Workload.Tcp.syn_transmissions;
  (match Workload.Tcp.handshake_time conn with
  | Some h -> Alcotest.(check bool) "handshake paid one RTO" true (h > 1.0 && h < 1.5)
  | None -> Alcotest.fail "never established");
  match conn.Workload.Tcp.first_syn_arrival with
  | Some at -> Alcotest.(check bool) "first syn arrived after RTO" true (at > 1.0)
  | None -> Alcotest.fail "no syn arrival"

let test_tcp_duplicate_flow_rejected () =
  let engine, internet, dataplane = make_world () in
  let tcp = Workload.Tcp.create ~engine ~dataplane () in
  let flow = flow_of internet 4003 in
  ignore (Workload.Tcp.start_connection tcp ~flow ());
  match Workload.Tcp.start_connection tcp ~flow () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "duplicate flow accepted"

let test_tcp_concurrent_connections () =
  let engine, internet, dataplane = make_world () in
  let tcp = Workload.Tcp.create ~engine ~dataplane () in
  let conns =
    List.init 10 (fun i ->
        Workload.Tcp.start_connection tcp
          ~flow:(flow_of internet (5000 + i)) ~data_packets:2 ())
  in
  Netsim.Engine.run engine;
  let count p = List.length (List.filter p conns) in
  Alcotest.(check int) "all established" 10
    (count (fun c -> c.Workload.Tcp.established_at <> None));
  Alcotest.(check int) "none failed" 0 (count (fun c -> c.Workload.Tcp.failed));
  Alcotest.(check int) "no retransmissions" 10
    (count (fun c -> c.Workload.Tcp.syn_transmissions = 1))

(* ------------------------------------------------------------------ *)
(* Arrivals                                                            *)
(* ------------------------------------------------------------------ *)

let test_poisson_count_and_horizon () =
  let engine = Netsim.Engine.create () in
  let rng = Netsim.Rng.create 3 in
  let fired = ref 0 in
  let n =
    Workload.Arrivals.poisson ~engine ~rng ~rate:100.0 ~duration:10.0
      ~f:(fun _ -> incr fired)
  in
  Netsim.Engine.run engine;
  Alcotest.(check int) "all scheduled arrivals fired" n !fired;
  (* Poisson(1000) should be within 20%. *)
  Alcotest.(check bool) "count plausible" true (n > 800 && n < 1200);
  Alcotest.(check bool) "horizon respected" true (Netsim.Engine.now engine < 10.0)

let test_poisson_indices_ordered () =
  let engine = Netsim.Engine.create () in
  let rng = Netsim.Rng.create 4 in
  let seen = ref [] in
  ignore
    (Workload.Arrivals.poisson ~engine ~rng ~rate:50.0 ~duration:2.0
       ~f:(fun i -> seen := i :: !seen));
  Netsim.Engine.run engine;
  let ordered = List.rev !seen in
  Alcotest.(check (list int)) "indices in arrival order"
    (List.init (List.length ordered) Fun.id)
    ordered

let test_poisson_stream_matches_eager () =
  (* The self-scheduling stream (O(1) pending events) must fire at
     exactly the instants the eager scheduler would, with the same
     indices: same RNG stream, same floating-point accumulation. *)
  let collect run =
    let engine = Netsim.Engine.create () in
    let fired = ref [] in
    run ~engine ~rng:(Netsim.Rng.create 5) ~rate:50.0 ~duration:2.0
      ~f:(fun i -> fired := (i, Netsim.Engine.now engine) :: !fired);
    Netsim.Engine.run engine;
    List.rev !fired
  in
  let eager =
    collect (fun ~engine ~rng ~rate ~duration ~f ->
        ignore (Workload.Arrivals.poisson ~engine ~rng ~rate ~duration ~f))
  in
  let streamed = collect Workload.Arrivals.poisson_stream in
  Alcotest.(check int) "same arrival count" (List.length eager)
    (List.length streamed);
  List.iter2
    (fun (i1, t1) (i2, t2) ->
      Alcotest.(check int) "same index" i1 i2;
      Alcotest.(check (float 0.0)) "bit-identical arrival time" t1 t2)
    eager streamed

(* ------------------------------------------------------------------ *)
(* Traffic                                                             *)
(* ------------------------------------------------------------------ *)

let make_traffic ?zipf_alpha ?hotspots seed =
  let internet =
    Topology.Builder.generate (Netsim.Rng.create 1)
      { Topology.Builder.default_params with domain_count = 10 }
  in
  ( internet,
    Workload.Traffic.create ~rng:(Netsim.Rng.create seed) ~internet ?zipf_alpha
      ?hotspots () )

let test_traffic_flows_valid () =
  let internet, traffic = make_traffic 7 in
  for _ = 1 to 200 do
    let flow = Workload.Traffic.random_flow traffic () in
    let src_dom = Topology.Builder.domain_of_eid internet flow.Flow.src in
    let dst_dom = Topology.Builder.domain_of_eid internet flow.Flow.dst in
    match (src_dom, dst_dom) with
    | Some s, Some d ->
        if s.Topology.Domain.id = d.Topology.Domain.id then
          Alcotest.fail "intra-domain flow generated"
    | _ -> Alcotest.fail "flow endpoints not in any domain"
  done

let test_traffic_unique_ports () =
  let _, traffic = make_traffic 8 in
  let ports =
    List.init 100 (fun _ -> (Workload.Traffic.random_flow traffic ()).Flow.src_port)
  in
  Alcotest.(check int) "all ports distinct" 100
    (List.length (List.sort_uniq compare ports))

let test_traffic_zipf_skew () =
  let _, traffic = make_traffic ~zipf_alpha:1.2 9 in
  let counts = Array.make 10 0 in
  for _ = 1 to 2000 do
    let flow = Workload.Traffic.random_flow traffic ~src_domain:5 () in
    match
      Topology.Builder.domain_of_eid
        (let internet, _ = make_traffic 1 in
         internet)
        flow.Flow.dst
    with
    | Some d -> counts.(d.Topology.Domain.id) <- counts.(d.Topology.Domain.id) + 1
    | None -> ()
  done;
  Alcotest.(check bool) "domain 0 is the hottest destination" true
    (counts.(0) > counts.(9))

let test_traffic_hotspots () =
  let _, traffic = make_traffic ~hotspots:[ (3, 1.0) ] 10 in
  for _ = 1 to 50 do
    let flow = Workload.Traffic.random_flow traffic ~src_domain:0 () in
    Alcotest.(check bool) "always the hotspot" true
      (Ipv4.prefix_mem
         (Ipv4.prefix_of_string "100.0.3.0/24")
         flow.Flow.dst)
  done

let test_traffic_fixed_endpoints () =
  let _, traffic = make_traffic 11 in
  let flow = Workload.Traffic.random_flow traffic ~src_domain:2 ~dst_domain:4 () in
  Alcotest.(check bool) "src in domain 2" true
    (Ipv4.prefix_mem (Ipv4.prefix_of_string "100.0.2.0/24") flow.Flow.src);
  Alcotest.(check bool) "dst in domain 4" true
    (Ipv4.prefix_mem (Ipv4.prefix_of_string "100.0.4.0/24") flow.Flow.dst)

let test_traffic_port_wraparound_70k () =
  (* Regression for the >64k-flow bug: the 64 512 ephemeral source ports
     run out before 70k flows, so the allocator must wrap back to 1024
     (never handing Wire an un-encodable port) while the stepped
     destination port keeps every (src, dst, ports) tuple distinct. *)
  let _, traffic = make_traffic 14 in
  let n = 70_000 in
  let seen = ref Flow.Set.empty in
  for _ = 1 to n do
    let flow = Workload.Traffic.random_flow traffic () in
    if flow.Flow.src_port < 1024 || flow.Flow.src_port > 65535 then
      Alcotest.failf "src port %d outside the ephemeral range"
        flow.Flow.src_port;
    seen := Flow.Set.add flow !seen
  done;
  Alcotest.(check int) "all flows distinct past the 64k wrap" n
    (Flow.Set.cardinal !seen)

let prop_port_wrap_preserves_uniqueness =
  QCheck.Test.make ~name:"port wraparound preserves flow uniqueness" ~count:3
    QCheck.(pair (int_range 1 100) (int_range 65_000 68_000))
    (fun (seed, n) ->
      let _, traffic = make_traffic seed in
      let seen = ref Flow.Set.empty in
      let in_range = ref true in
      for _ = 1 to n do
        let flow = Workload.Traffic.random_flow traffic () in
        if flow.Flow.src_port < 1024 || flow.Flow.src_port > 65535 then
          in_range := false;
        seen := Flow.Set.add flow !seen
      done;
      !in_range && Flow.Set.cardinal !seen = n)

let prop_poisson_schedules_what_it_returns =
  QCheck.Test.make ~name:"poisson fires exactly its return count" ~count:50
    QCheck.(pair (int_range 1 1000) (int_range 1 50))
    (fun (seed, rate) ->
      let engine = Netsim.Engine.create () in
      let fired = ref 0 in
      let n =
        Workload.Arrivals.poisson ~engine ~rng:(Netsim.Rng.create seed)
          ~rate:(float_of_int rate) ~duration:2.0
          ~f:(fun _ -> incr fired)
      in
      Netsim.Engine.run engine;
      !fired = n)

(* ------------------------------------------------------------------ *)
(* Eid_universe                                                        *)
(* ------------------------------------------------------------------ *)

let test_universe_distinct_and_mixed () =
  let u = Workload.Eid_universe.generate ~rng:(Netsim.Rng.create 7) ~n:50_000 in
  Alcotest.(check int) "size" 50_000 (Workload.Eid_universe.size u);
  let seen = Hashtbl.create 50_000 in
  for rank = 0 to 49_999 do
    let p = Workload.Eid_universe.prefix u rank in
    Alcotest.(check bool) "distinct prefixes" false (Hashtbl.mem seen p);
    Hashtbl.replace seen p ()
  done;
  let counts = Workload.Eid_universe.length_counts u in
  Alcotest.(check bool) "/24 dominates" true
    (match List.assoc_opt 24 counts with
    | Some c -> c > 25_000
    | None -> false);
  Alcotest.(check bool) "short prefixes present" true
    (List.exists (fun (len, c) -> len <= 16 && c > 0) counts)

(* Non-overlap is the property the cache model rests on (one rank =
   one cache line): no prefix may subsume another, nor repeat.  Sorted
   by network, each prefix must start at or after the end of the one
   before it. *)
let test_universe_non_overlapping () =
  let n = 20_000 in
  let u = Workload.Eid_universe.generate ~rng:(Netsim.Rng.create 11) ~n in
  let sorted =
    List.sort Ipv4.prefix_compare
      (List.init n (Workload.Eid_universe.prefix u))
  in
  ignore
    (List.fold_left
       (fun free p ->
         let start = Ipv4.addr_to_int (Ipv4.prefix_network p) in
         if start < free then
           Alcotest.failf "%s overlaps the prefix before it"
             (Ipv4.prefix_to_string p);
         start + Ipv4.prefix_size p)
       0 sorted)

let test_universe_bounds () =
  Alcotest.check_raises "n = 0 rejected"
    (Invalid_argument "Eid_universe.generate: n must be positive") (fun () ->
      ignore
        (Workload.Eid_universe.generate ~rng:(Netsim.Rng.create 1) ~n:0));
  Alcotest.(check bool) "capacity covers millions" true
    (Workload.Eid_universe.capacity > 9_000_000)

(* ------------------------------------------------------------------ *)
(* Cache_model                                                         *)
(* ------------------------------------------------------------------ *)

(* Uniform popularity solves in closed form: every mass is 1/n, so
   occupancy C pins the characteristic time and the miss rate is
   exactly (n - C) / n.  An analytic anchor for the Newton solver. *)
let test_cache_model_uniform_exact () =
  let n = 10_000 and capacity = 2_500 in
  let masses = Workload.Cache_model.zipf_masses ~n ~alpha:0.0 in
  let p = Workload.Cache_model.predict ~masses ~capacity in
  let expected = float_of_int (n - capacity) /. float_of_int n in
  Alcotest.(check (float 1e-6)) "uniform miss is (n-C)/n" expected
    p.Workload.Cache_model.miss_rate;
  Alcotest.(check bool) "hit + miss = 1" true
    (Float.abs
       (p.Workload.Cache_model.hit_rate +. p.Workload.Cache_model.miss_rate
      -. 1.0)
    < 1e-9)

let test_cache_model_degenerate_capacity () =
  let masses = Workload.Cache_model.zipf_masses ~n:100 ~alpha:0.9 in
  let p = Workload.Cache_model.predict ~masses ~capacity:100 in
  Alcotest.(check (float 0.0)) "everything fits: no misses" 0.0
    p.Workload.Cache_model.miss_rate;
  let p = Workload.Cache_model.predict ~masses ~capacity:1000 in
  Alcotest.(check (float 0.0)) "overprovisioned: no misses" 0.0
    p.Workload.Cache_model.miss_rate

(* End-to-end model agreement at test scale: an LRU cache driven by
   the Zipf sampler lands within a few percent of the Coras/Che
   prediction.  The M-series experiments gate the same comparison at a
   million prefixes; this keeps the mechanism pinned in the tier-1
   suite. *)
let test_cache_model_matches_measured_lru () =
  let n = 20_000 and capacity = 2_048 in
  let universe = Workload.Eid_universe.generate ~rng:(Netsim.Rng.create 13) ~n in
  let dist = Netsim.Rng.Zipf.create ~n ~alpha:0.9 in
  let masses =
    Array.init n (fun k -> Netsim.Rng.Zipf.probability dist k)
  in
  let prediction = Workload.Cache_model.predict ~masses ~capacity in
  let cache = Lispdp.Map_cache.create ~capacity () in
  let rng = Netsim.Rng.create 17 in
  let refs = 200_000 in
  let misses = ref 0 in
  let warmup = 3 * capacity in
  for i = 1 to warmup + refs do
    let rank = Netsim.Rng.Zipf.sample dist rng in
    match
      Lispdp.Map_cache.lookup cache ~now:0.0
        (Workload.Eid_universe.network universe rank)
    with
    | Some _ -> ()
    | None ->
        if i > warmup then incr misses;
        Lispdp.Map_cache.insert cache ~now:0.0
          (Mapping.create
             ~eid_prefix:(Workload.Eid_universe.prefix universe rank)
             ~rlocs:[ Mapping.rloc (Ipv4.addr_of_int 0x0A000001) ]
             ~ttl:1e9)
  done;
  let measured = float_of_int !misses /. float_of_int refs in
  let predicted = prediction.Workload.Cache_model.miss_rate in
  let rel_err = Float.abs (measured -. predicted) /. predicted in
  if rel_err > 0.05 then
    Alcotest.failf "measured %.4f vs predicted %.4f (rel err %.3f > 0.05)"
      measured predicted rel_err

let () =
  Alcotest.run "workload"
    [
      ( "tcp",
        [
          Alcotest.test_case "handshake and data" `Quick test_tcp_handshake_and_data;
          Alcotest.test_case "rto exhaustion" `Quick test_tcp_rto_exhaustion;
          Alcotest.test_case "retry after loss" `Quick test_tcp_retry_after_transient_loss;
          Alcotest.test_case "duplicate flow" `Quick test_tcp_duplicate_flow_rejected;
          Alcotest.test_case "concurrent" `Quick test_tcp_concurrent_connections;
        ] );
      ( "arrivals",
        [
          Alcotest.test_case "poisson" `Quick test_poisson_count_and_horizon;
          Alcotest.test_case "poisson order" `Quick test_poisson_indices_ordered;
          Alcotest.test_case "stream matches eager" `Quick
            test_poisson_stream_matches_eager;
        ] );
      ( "traffic",
        [
          Alcotest.test_case "flows valid" `Quick test_traffic_flows_valid;
          Alcotest.test_case "unique ports" `Quick test_traffic_unique_ports;
          Alcotest.test_case "zipf skew" `Quick test_traffic_zipf_skew;
          Alcotest.test_case "hotspots" `Quick test_traffic_hotspots;
          Alcotest.test_case "fixed endpoints" `Quick test_traffic_fixed_endpoints;
          Alcotest.test_case "port wraparound at 70k" `Quick
            test_traffic_port_wraparound_70k;
        ] );
      ( "eid_universe",
        [
          Alcotest.test_case "distinct and mixed" `Quick
            test_universe_distinct_and_mixed;
          Alcotest.test_case "non-overlapping" `Quick
            test_universe_non_overlapping;
          Alcotest.test_case "bounds" `Quick test_universe_bounds;
        ] );
      ( "cache_model",
        [
          Alcotest.test_case "uniform exact" `Quick
            test_cache_model_uniform_exact;
          Alcotest.test_case "degenerate capacity" `Quick
            test_cache_model_degenerate_capacity;
          Alcotest.test_case "matches measured lru" `Quick
            test_cache_model_matches_measured_lru;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_poisson_schedules_what_it_returns;
            prop_port_wrap_preserves_uniqueness ] );
    ]
