(* Tests for the Intelligent Route Control engine: policies, EWMA load
   monitoring, sticky assignment, hysteresis and rebalancing. *)

open Irc

let fig1 () = Topology.Builder.figure1 ()

let selector ?(policy = Policy.Min_load) net domain_index =
  let domain = net.Topology.Builder.domains.(domain_index) in
  (domain, Selector.create ~domain ~graph:net.Topology.Builder.graph ~policy)

(* The [i]-th (src, dst) pair: one local host toward distinct remote
   EIDs (the selector keys its assignments by the pair). *)
let pair_for domain i =
  ( Topology.Domain.host_eid domain 0,
    Nettypes.Ipv4.addr_of_int
      (Nettypes.Ipv4.addr_to_int (Nettypes.Ipv4.addr_of_string "100.0.99.0") + i) )

let egress ?remote sel (src, dst) = Selector.choose_egress sel ~src ~dst ?remote ()

(* Send [bytes] outbound on a border's uplink. *)
let load_uplink border ~bytes =
  Topology.Link.account border.Topology.Domain.uplink
    ~src:border.Topology.Domain.router ~bytes

let load_uplink_inbound border ~bytes =
  let link = border.Topology.Domain.uplink in
  let core = Topology.Link.other_end link border.Topology.Domain.router in
  Topology.Link.account link ~src:core ~bytes

(* ------------------------------------------------------------------ *)
(* Policy scoring                                                      *)
(* ------------------------------------------------------------------ *)

let test_policy_scores () =
  let latency = 0.02 and load = 0.5 and latency_scale = 0.04 in
  Alcotest.(check (float 1e-9)) "min latency normalises" 0.5
    (Policy.score Policy.Min_latency ~latency ~load ~latency_scale);
  Alcotest.(check (float 1e-9)) "min load is the load" 0.5
    (Policy.score Policy.Min_load ~latency ~load ~latency_scale);
  Alcotest.(check (float 1e-9)) "weighted blends" 0.5
    (Policy.score
       (Policy.Weighted { latency_weight = 0.5; load_weight = 0.5 })
       ~latency ~load ~latency_scale);
  Alcotest.(check (float 1e-9)) "round robin scoreless" 0.0
    (Policy.score Policy.Round_robin ~latency ~load ~latency_scale)

let test_policy_names () =
  List.iter
    (fun (p, s) -> Alcotest.(check string) s s (Policy.to_string p))
    [ (Policy.Min_latency, "min-latency"); (Policy.Min_load, "min-load");
      (Policy.Round_robin, "round-robin"); (Policy.Flow_hash, "flow-hash") ]

(* ------------------------------------------------------------------ *)
(* Observation / load estimates                                        *)
(* ------------------------------------------------------------------ *)

let test_observe_builds_estimate () =
  let net = fig1 () in
  let domain, sel = selector net 0 in
  let b0 = domain.Topology.Domain.borders.(0) in
  Selector.observe sel ~now:0.0;
  Alcotest.(check (float 1e-9)) "no estimate yet" 0.0
    (Selector.load_estimate sel Selector.Outbound b0);
  (* 1 Gbit/s link; 12.5 MB over 1 s = 10% utilisation. *)
  load_uplink b0 ~bytes:12_500_000;
  Selector.observe sel ~now:1.0;
  let estimate = Selector.load_estimate sel Selector.Outbound b0 in
  Alcotest.(check (float 1e-6)) "ewma of a 10% sample (alpha 0.3)" 0.03 estimate;
  (* Direction separation: inbound stays zero. *)
  Alcotest.(check (float 1e-9)) "inbound untouched" 0.0
    (Selector.load_estimate sel Selector.Inbound b0)

let test_observe_inbound_direction () =
  let net = fig1 () in
  let domain, sel = selector net 0 in
  let b1 = domain.Topology.Domain.borders.(1) in
  Selector.observe sel ~now:0.0;
  load_uplink_inbound b1 ~bytes:12_500_000;
  Selector.observe sel ~now:1.0;
  Alcotest.(check bool) "inbound estimate grew" true
    (Selector.load_estimate sel Selector.Inbound b1 > 0.0);
  Alcotest.(check (float 1e-9)) "outbound untouched" 0.0
    (Selector.load_estimate sel Selector.Outbound b1)

(* ------------------------------------------------------------------ *)
(* Selection                                                           *)
(* ------------------------------------------------------------------ *)

let test_min_load_avoids_hot_uplink () =
  let net = fig1 () in
  let domain, sel = selector net 0 in
  let b0 = domain.Topology.Domain.borders.(0) in
  Selector.observe sel ~now:0.0;
  load_uplink b0 ~bytes:50_000_000;
  Selector.observe sel ~now:1.0;
  let chosen = egress sel (pair_for domain 1) in
  Alcotest.(check int) "picks the idle border"
    domain.Topology.Domain.borders.(1).Topology.Domain.router
    chosen.Topology.Domain.router

let test_selection_sticky () =
  let net = fig1 () in
  let domain, sel = selector net 0 in
  let pair = pair_for domain 7 in
  let first = egress sel pair in
  (* Heat up the chosen uplink; without rebalance the flow must stay. *)
  Selector.observe sel ~now:0.0;
  load_uplink first ~bytes:50_000_000;
  Selector.observe sel ~now:1.0;
  let second = egress sel pair in
  Alcotest.(check int) "sticky despite load" first.Topology.Domain.router
    second.Topology.Domain.router;
  match Selector.live_egress sel ~src:(fst pair) ~dst:(snd pair) with
  | Some b -> Alcotest.(check int) "assignment recorded" first.Topology.Domain.router b.Topology.Domain.router
  | None -> Alcotest.fail "no assignment"

let test_round_robin_cycles () =
  let net = fig1 () in
  let domain, sel = selector ~policy:Policy.Round_robin net 0 in
  let picks =
    List.init 4 (fun i ->
        (egress sel (pair_for domain i)).Topology.Domain.router)
  in
  let distinct = List.sort_uniq compare picks in
  Alcotest.(check int) "uses both borders" 2 (List.length distinct)

let test_flow_hash_deterministic () =
  let net = fig1 () in
  let domain, sel = selector ~policy:Policy.Flow_hash net 0 in
  let _, fresh = selector ~policy:Policy.Flow_hash net 0 in
  let pair = pair_for domain 3 in
  let a = egress sel pair in
  let b = egress fresh pair in
  Alcotest.(check int) "same hash, same border" a.Topology.Domain.router
    b.Topology.Domain.router

let test_ingress_vs_egress_independent () =
  let net = fig1 () in
  let domain, sel = selector net 0 in
  Selector.observe sel ~now:0.0;
  (* Outbound hot on border 0, inbound hot on border 1: egress should
     avoid 0, ingress should avoid 1. *)
  load_uplink domain.Topology.Domain.borders.(0) ~bytes:50_000_000;
  load_uplink_inbound domain.Topology.Domain.borders.(1) ~bytes:50_000_000;
  Selector.observe sel ~now:1.0;
  let src, dst = pair_for domain 1 in
  let egress = Selector.choose_egress sel ~src ~dst () in
  let ingress = Selector.choose_ingress sel ~src ~dst in
  Alcotest.(check int) "egress avoids hot outbound"
    domain.Topology.Domain.borders.(1).Topology.Domain.router
    egress.Topology.Domain.router;
  Alcotest.(check int) "ingress avoids hot inbound"
    domain.Topology.Domain.borders.(0).Topology.Domain.router
    ingress.Topology.Domain.router

let test_min_latency_prefers_short_path () =
  let net = fig1 () in
  let domain, sel = selector ~policy:Policy.Min_latency net 0 in
  let as_d = net.Topology.Builder.domains.(1) in
  let remote = as_d.Topology.Domain.borders.(0).Topology.Domain.router in
  let chosen = egress ~remote sel (pair_for domain 1) in
  (* Verify against brute force. *)
  let best =
    Array.to_list domain.Topology.Domain.borders
    |> List.map (fun b ->
           ( Topology.Graph.latency_between net.Topology.Builder.graph
               b.Topology.Domain.router remote,
             b ))
    |> List.sort compare |> List.hd |> snd
  in
  Alcotest.(check int) "matches brute force" best.Topology.Domain.router
    chosen.Topology.Domain.router

let test_burst_spreads_over_uplinks () =
  (* Ten assignments inside one observation window: the per-assignment
     penalty must spread them over both uplinks instead of herding onto
     the first. *)
  let net = fig1 () in
  let domain, sel = selector net 0 in
  let counts = Hashtbl.create 4 in
  for port = 1 to 10 do
    let b = egress sel (pair_for domain port) in
    Hashtbl.replace counts b.Topology.Domain.router
      (1 + Option.value ~default:0 (Hashtbl.find_opt counts b.Topology.Domain.router))
  done;
  Alcotest.(check int) "both uplinks used" 2 (Hashtbl.length counts);
  Hashtbl.iter
    (fun _ n ->
      Alcotest.(check bool) "roughly even split" true (n >= 3 && n <= 7))
    counts

let test_load_estimate_foreign_border_rejected () =
  let net = fig1 () in
  let _, sel = selector net 0 in
  let foreign = net.Topology.Builder.domains.(1).Topology.Domain.borders.(0) in
  match Selector.load_estimate sel Selector.Outbound foreign with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "foreign border accepted"

(* ------------------------------------------------------------------ *)
(* Rebalance                                                           *)
(* ------------------------------------------------------------------ *)

(* The selector's hysteresis is 0.05: rebalance moves a flow only when
   another uplink's score beats its own by more than that.  One second
   of [bytes] on a 1 Gb/s uplink is a utilisation sample of
   bytes * 8 / 1e9, of which the first EWMA step keeps 0.3; the other
   uplink stays at 0. *)
let loaded_selector ~bytes =
  let net = fig1 () in
  let domain, sel = selector net 0 in
  let pair = pair_for domain 1 in
  let first = egress sel pair in
  Selector.observe sel ~now:0.0;
  load_uplink first ~bytes;
  Selector.observe sel ~now:1.0;
  (sel, pair, first, Selector.load_estimate sel Selector.Outbound first)

let test_rebalance_moves_flow () =
  (* A gap of 0.06, above the hysteresis. *)
  let sel, pair, first, load = loaded_selector ~bytes:25_000_000 in
  Alcotest.(check (float 1e-9)) "load gap" 0.06 load;
  Alcotest.(check int) "nothing moved yet" 0 (Selector.moved_flows sel);
  Selector.rebalance sel;
  Alcotest.(check int) "one move" 1 (Selector.moved_flows sel);
  let second = egress sel pair in
  Alcotest.(check bool) "flow moved away" true
    (second.Topology.Domain.router <> first.Topology.Domain.router)

let test_rebalance_respects_hysteresis () =
  (* A gap of 0.04, below the hysteresis. *)
  let sel, pair, first, load = loaded_selector ~bytes:(50_000_000 / 3) in
  Alcotest.(check (float 1e-6)) "load gap" 0.04 load;
  Selector.rebalance sel;
  Alcotest.(check int) "hysteresis blocks the move" 0
    (Selector.moved_flows sel);
  let kept = egress sel pair in
  Alcotest.(check int) "flow kept its uplink" first.Topology.Domain.router
    kept.Topology.Domain.router

(* Rebalance visits pairs in (src, dst) order — the order Flow.compare
   gives their port-less flows — whatever order they were assigned in.
   Every pair is assigned while border 1's uplink is down, so all sit
   on border 0; then border 0 carries a 0.16 load estimate and border 1
   none.  A move costs its target 0.02 (one more assignment since the
   last observation) and must beat the 0.05 hysteresis, so exactly the
   first six pairs visited move: 0.02 k + 0.05 < 0.16 for k = 0 .. 5
   only.  The reference is the six smallest pairs under Flow.compare. *)
let prop_rebalance_order =
  QCheck.Test.make ~name:"rebalance moves pairs in Flow.compare order"
    ~count:50
    QCheck.(
      list_of_size Gen.(int_range 8 40)
        (pair (int_bound 0xFFFFFFFF) (int_bound 0xFFFFFFFF)))
    (fun raw ->
      let pairs = List.sort_uniq compare raw in
      QCheck.assume (List.length pairs >= 8);
      let net = fig1 () in
      let domain, sel = selector net 0 in
      let b0 = domain.Topology.Domain.borders.(0)
      and b1 = domain.Topology.Domain.borders.(1) in
      let graph = net.Topology.Builder.graph in
      let addr = Nettypes.Ipv4.addr_of_int in
      let on_border0 (src, dst) =
        (egress sel (addr src, addr dst)).Topology.Domain.router
        = b0.Topology.Domain.router
      in
      Topology.Graph.set_link_up graph b1.Topology.Domain.uplink false;
      (* [raw] is the assignment order: random, with repeats. *)
      List.iter (fun p -> assert (on_border0 p)) raw;
      Topology.Graph.set_link_up graph b1.Topology.Domain.uplink true;
      Selector.observe sel ~now:0.0;
      load_uplink b0 ~bytes:66_666_667;
      Selector.observe sel ~now:1.0;
      Selector.rebalance sel;
      let flow (src, dst) =
        Nettypes.Flow.create ~src:(addr src) ~dst:(addr dst) ~src_port:0
          ~dst_port:0 ()
      in
      let reference =
        List.sort (fun a b -> Nettypes.Flow.compare (flow a) (flow b)) pairs
        |> List.mapi (fun rank p -> (p, rank >= 6))
      in
      Selector.moved_flows sel = 6
      && List.for_all (fun (p, stays) -> on_border0 p = stays) reference)

let prop_selection_always_a_domain_border =
  QCheck.Test.make ~name:"selection returns a border of the domain" ~count:100
    QCheck.(pair (int_range 0 1) (int_range 1 10_000))
    (fun (domain_index, port) ->
      let net = fig1 () in
      let domain, sel = selector net domain_index in
      let egress = egress sel (pair_for domain port) in
      Array.exists
        (fun b -> b.Topology.Domain.router = egress.Topology.Domain.router)
        domain.Topology.Domain.borders)

let () =
  Alcotest.run "irc"
    [
      ( "policy",
        [
          Alcotest.test_case "scores" `Quick test_policy_scores;
          Alcotest.test_case "names" `Quick test_policy_names;
        ] );
      ( "observe",
        [
          Alcotest.test_case "builds estimate" `Quick test_observe_builds_estimate;
          Alcotest.test_case "inbound direction" `Quick test_observe_inbound_direction;
        ] );
      ( "selection",
        [
          Alcotest.test_case "min load avoids hot" `Quick test_min_load_avoids_hot_uplink;
          Alcotest.test_case "sticky" `Quick test_selection_sticky;
          Alcotest.test_case "round robin" `Quick test_round_robin_cycles;
          Alcotest.test_case "flow hash deterministic" `Quick test_flow_hash_deterministic;
          Alcotest.test_case "ingress/egress independent" `Quick test_ingress_vs_egress_independent;
          Alcotest.test_case "min latency" `Quick test_min_latency_prefers_short_path;
          Alcotest.test_case "burst spreads" `Quick test_burst_spreads_over_uplinks;
          Alcotest.test_case "foreign border" `Quick test_load_estimate_foreign_border_rejected;
        ] );
      ( "rebalance",
        [
          Alcotest.test_case "moves flow" `Quick test_rebalance_moves_flow;
          Alcotest.test_case "hysteresis" `Quick test_rebalance_respects_hysteresis;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_selection_always_a_domain_border; prop_rebalance_order ] );
    ]
