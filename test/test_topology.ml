(* Tests for the topology substrate: graph shortest paths, link
   accounting, domain construction and the Figure-1 / random internet
   builders. *)

open Topology

let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Graph                                                               *)
(* ------------------------------------------------------------------ *)

let diamond () =
  (* a - b - d and a - c - d with a shortcut a - d. *)
  let g = Graph.create () in
  let a = Graph.add_node g ~kind:Node.Host ~label:"a" in
  let b = Graph.add_node g ~kind:Node.Hub ~label:"b" in
  let c = Graph.add_node g ~kind:Node.Hub ~label:"c" in
  let d = Graph.add_node g ~kind:Node.Host ~label:"d" in
  ignore (Graph.connect g a b ~latency:1.0 ());
  ignore (Graph.connect g b d ~latency:1.0 ());
  ignore (Graph.connect g a c ~latency:0.5 ());
  ignore (Graph.connect g c d ~latency:0.4 ());
  ignore (Graph.connect g a d ~latency:5.0 ());
  (g, a, b, c, d)

let test_graph_shortest_path () =
  let g, a, _, c, d = diamond () in
  check_float "a->d via c" 0.9 (Graph.latency_between g a d);
  Alcotest.(check (list int)) "path nodes" [ a; c; d ] (Graph.path_between g a d);
  check_float "self" 0.0 (Graph.latency_between g a a)

let test_graph_symmetry () =
  let g, a, b, _, d = diamond () in
  check_float "symmetric" (Graph.latency_between g a d) (Graph.latency_between g d a);
  check_float "a->b direct" 1.0 (Graph.latency_between g a b)

let test_graph_disconnected () =
  let g = Graph.create () in
  let a = Graph.add_node g ~kind:Node.Host ~label:"a" in
  let b = Graph.add_node g ~kind:Node.Host ~label:"b" in
  Alcotest.check_raises "disconnected" Not_found (fun () ->
      ignore (Graph.latency_between g a b))

let test_graph_duplicate_link_rejected () =
  let g = Graph.create () in
  let a = Graph.add_node g ~kind:Node.Host ~label:"a" in
  let b = Graph.add_node g ~kind:Node.Host ~label:"b" in
  ignore (Graph.connect g a b ~latency:1.0 ());
  (match Graph.connect g b a ~latency:2.0 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "duplicate link accepted");
  match Graph.connect g a a ~latency:1.0 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "self loop accepted"

let test_graph_cache_invalidation () =
  let g = Graph.create () in
  let a = Graph.add_node g ~kind:Node.Host ~label:"a" in
  let b = Graph.add_node g ~kind:Node.Host ~label:"b" in
  let c = Graph.add_node g ~kind:Node.Host ~label:"c" in
  ignore (Graph.connect g a b ~latency:10.0 ());
  ignore (Graph.connect g b c ~latency:10.0 ());
  check_float "long way" 20.0 (Graph.latency_between g a c);
  ignore (Graph.connect g a c ~latency:1.0 ());
  check_float "shortcut after new link" 1.0 (Graph.latency_between g a c)

let test_graph_account_path () =
  let g, a, _, c, d = diamond () in
  Graph.account_path g ~src:a ~dst:d ~bytes:1000;
  let link_ac = Option.get (Graph.link_between g a c) in
  let link_cd = Option.get (Graph.link_between g c d) in
  let link_ad = Option.get (Graph.link_between g a d) in
  Alcotest.(check int) "a->c charged" 1000 (Link.bytes_from link_ac a);
  Alcotest.(check int) "c->d charged" 1000 (Link.bytes_from link_cd c);
  Alcotest.(check int) "reverse direction empty" 0 (Link.bytes_from link_ac c);
  Alcotest.(check int) "direct link unused" 0 (Link.bytes_from link_ad a)

(* Links are numbered per graph: a second graph starts again at 0. *)
let test_graph_link_ids () =
  let ids g = List.sort compare (List.map Link.id (Graph.links g)) in
  let g1, _, _, _, _ = diamond () in
  let g2, _, _, _, _ = diamond () in
  Alcotest.(check (list int)) "dense from 0" [ 0; 1; 2; 3; 4 ] (ids g1);
  Alcotest.(check (list int)) "second graph from 0" (ids g1) (ids g2)

(* With a plane attached, the same walk feeds its per-link counters and
   the forwarding counter of the interior node only. *)
let test_graph_account_path_plane () =
  let g, a, _, c, d = diamond () in
  let plane =
    Netsim.Telemetry.create ~now:0.0
      ~node_name:(fun n -> (Graph.node g n).Node.label)
      ~drops:(Graph.drops g) ()
  in
  Graph.set_telemetry g plane;
  Graph.account_path g ~src:a ~dst:d ~bytes:1000;
  let bytes u v =
    let link = Option.get (Graph.link_between g u v) in
    let dir = if Link.a link = u then 0 else 1 in
    (Netsim.Telemetry.link_stat plane ~link:(Link.id link) ~dir)
      .Netsim.Telemetry.st_bytes
  in
  Alcotest.(check int) "a->c" 1000 (bytes a c);
  Alcotest.(check int) "c->d" 1000 (bytes c d);
  Alcotest.(check int) "c->a" 0 (bytes c a);
  Alcotest.(check (list int)) "only c forwards" [ c ]
    (Netsim.Telemetry.nodes plane)

(* ------------------------------------------------------------------ *)
(* Route oracle                                                        *)
(* ------------------------------------------------------------------ *)

(* The dense O(V^2) valley-free Dijkstra that [Graph] routed with before
   its binary heap: scan every (node, phase) state for the nearest
   unsettled one, relax its links with a strict [<].  The heap must
   reproduce its trees bit for bit, tie-breaks included. *)
module Oracle = struct
  let phases = 3

  let dijkstra g src =
    let states = Graph.node_count g * phases in
    let dist = Array.make states infinity in
    let pred = Array.make states (-1) in
    let visited = Array.make states false in
    dist.(src * phases) <- 0.0;
    for _ = 1 to states do
      let u = ref (-1) and best = ref infinity in
      for v = 0 to states - 1 do
        if (not visited.(v)) && dist.(v) < !best then begin
          best := dist.(v);
          u := v
        end
      done;
      if !u >= 0 then begin
        visited.(!u) <- true;
        let phase = !u mod phases in
        List.iter
          (fun (v, link) ->
            let next =
              if not (Link.is_up link) then None
              else
                match (Link.kind link, phase) with
                | Link.Internal, 0 -> Some 0
                | Link.Internal, _ -> Some 2
                | Link.External, (0 | 1) -> Some 1
                | Link.External, _ -> None
            in
            match next with
            | Some p ->
                let state = (v * phases) + p in
                let candidate = dist.(!u) +. Link.latency link in
                if candidate < dist.(state) then begin
                  dist.(state) <- candidate;
                  pred.(state) <- !u
                end
            | None -> ())
          (Graph.neighbours g (!u / phases))
      end
    done;
    (dist, pred)

  (* [b]'s nearest reachable state, lowest phase on a tie; a border
     router is never reached in phase 2. *)
  let best_state g dist b =
    let allowed =
      match (Graph.node g b).Node.kind with
      | Node.Border_router -> [ 0; 1 ]
      | _ -> [ 0; 1; 2 ]
    in
    List.fold_left
      (fun acc p ->
        let state = (b * phases) + p in
        match acc with
        | Some s when dist.(s) <= dist.(state) -> acc
        | Some _ | None -> if dist.(state) = infinity then acc else Some state)
      None allowed

  (* Latency and node path from [src] to [dst], or [None] when
     unreachable. *)
  let route g (dist, pred) src dst =
    if src = dst then Some (0.0, [ src ])
    else
      match best_state g dist dst with
      | None -> None
      | Some final ->
          let rec walk state acc =
            let node = state / phases in
            if node = src && state mod phases = 0 then node :: acc
            else walk pred.(state) (node :: acc)
          in
          Some (dist.(final), walk final [])
end

let link_of g u v =
  match Graph.link_between g u v with
  | Some l -> l
  | None -> Alcotest.failf "no link %d-%d on the path" u v

(* Valley-free: up links only, internal* external* internal*, and a
   border router is not entered from its own domain after external
   links. *)
let valley_free g path =
  let rec hops = function
    | u :: (v :: _ as rest) -> link_of g u v :: hops rest
    | [ _ ] | [] -> []
  in
  let links = hops path in
  let rec drop kind = function
    | l :: rest when Link.kind l = kind -> drop kind rest
    | rest -> rest
  in
  let after_prefix = drop Link.Internal links in
  let suffix = drop Link.External after_prefix in
  let entered_inside =
    List.length suffix < List.length after_prefix && suffix <> []
  in
  let dst = List.nth path (List.length path - 1) in
  List.for_all Link.is_up links
  && List.for_all (fun l -> Link.kind l = Link.Internal) suffix
  && not (entered_inside && (Graph.node g dst).Node.kind = Node.Border_router)

(* [account_path] must charge each hop of [path_between], sender side,
   and nothing else. *)
let charges_path g src dst path =
  let by_id = Array.of_list (List.rev (Graph.links g)) in
  let counters () =
    Array.map (fun l -> (Link.bytes_from l (Link.a l), Link.bytes_from l (Link.b l))) by_id
  in
  let before = counters () in
  Graph.account_path g ~src ~dst ~bytes:1;
  let charged = Array.map2 (fun (a0, b0) (a1, b1) -> (a1 - a0, b1 - b0)) before (counters ()) in
  let expected = Array.make (Array.length by_id) (0, 0) in
  let rec hop = function
    | u :: (v :: _ as rest) ->
        let l = link_of g u v in
        let ab, ba = expected.(Link.id l) in
        expected.(Link.id l) <- (if u = Link.a l then (ab + 1, ba) else (ab, ba + 1));
        hop rest
    | [ _ ] | [] -> ()
  in
  hop path;
  charged = expected

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* Routes from [src] to every node must equal the oracle's — latency
   bit for bit, path tie-breaks included, the same unreachable pairs —
   and be valley-free, and [account_path] must charge exactly the links
   of [path_between]. *)
let check_source g src =
  let tree = Oracle.dijkstra g src in
  for dst = 0 to Graph.node_count g - 1 do
    let heap =
      match Graph.latency_between g src dst with
      | l -> Some l
      | exception Not_found -> None
    in
    match (Oracle.route g tree src dst, heap) with
    | None, Some l ->
        QCheck.Test.fail_reportf "%d->%d: oracle unreachable, heap %g" src dst l
    | Some (ol, _), None ->
        QCheck.Test.fail_reportf "%d->%d: heap unreachable, oracle %g" src dst ol
    | Some (ol, opath), Some l ->
        if not (same_bits ol l) then
          QCheck.Test.fail_reportf "%d->%d: latency %h, oracle %h" src dst l ol;
        let path = Graph.path_between g src dst in
        if path <> opath then
          QCheck.Test.fail_reportf "%d->%d: path differs from the oracle's" src dst;
        if not (valley_free g path) then
          QCheck.Test.fail_reportf "%d->%d: path is not valley-free" src dst;
        if not (charges_path g src dst path) then
          QCheck.Test.fail_reportf "%d->%d: account_path charged other links" src dst
    | None, None -> (
        match Graph.path_between g src dst with
        | exception Not_found -> ()
        | _ -> QCheck.Test.fail_reportf "%d->%d: path without latency" src dst)
  done

(* A random internet from one seed: 3-7 domains, 2-5 providers, 2-3
   borders, either core shape, and half the time fixed core and access
   latencies, so that equal-cost paths exercise the tie-breaks. *)
let oracle_internet seed =
  let rng = Netsim.Rng.create seed in
  let provider_count = 2 + Netsim.Rng.int rng 4 in
  let params =
    { Builder.default_params with
      domain_count = 3 + Netsim.Rng.int rng 5;
      provider_count;
      borders_per_domain = 2 + Netsim.Rng.int rng 2;
      core_shape =
        (if Netsim.Rng.bool rng then
           Builder.Two_tier (2 + Netsim.Rng.int rng (provider_count - 1))
         else Builder.Full_mesh) }
  in
  let params =
    if Netsim.Rng.bool rng then
      { params with core_latency = (0.02, 0.02); access_latency = (0.004, 0.004) }
    else params
  in
  (rng, params)

(* Make every source's tree current with one query each; the queried
   pair may be unreachable while links are down. *)
let warm_all g =
  let n = Graph.node_count g in
  for src = 0 to n - 1 do
    try ignore (Graph.latency_between g src ((src + 1) mod n)) with Not_found -> ()
  done

(* Random link toggles, internal and external, over warm trees, so that
   each toggle repairs every current tree.  Every other toggle restores
   the link failed last (a flap, as on pce-flap); the rest flip a random
   link.  Three sampled sources are checked after each toggle and every
   source after the last.  Halfway, every tree is dropped, so the last
   check compares repaired and rebuilt trees alike. *)
let prop_routes_match_oracle =
  QCheck.Test.make ~name:"heap routes = dense oracle under link toggles"
    ~count:12
    (QCheck.make
       ~print:(fun seed ->
         let _, p = oracle_internet seed in
         Printf.sprintf "seed %d: %d domains, %d providers, %d borders, %s core%s"
           seed p.Builder.domain_count p.Builder.provider_count
           p.Builder.borders_per_domain
           (match p.Builder.core_shape with
           | Builder.Full_mesh -> "full-mesh"
           | Builder.Two_tier k -> Printf.sprintf "two-tier %d" k)
           (if fst p.Builder.core_latency = snd p.Builder.core_latency then
              ", fixed latencies"
            else ""))
       QCheck.Gen.(int_range 1 1_000_000))
    (fun seed ->
      let rng, params = oracle_internet seed in
      let g = (Builder.generate rng params).Builder.graph in
      let n = Graph.node_count g in
      let links = Array.of_list (Graph.links g) in
      warm_all g;
      let last_failed = ref None in
      for toggle = 1 to 24 do
        let l =
          match !last_failed with
          | Some l when toggle mod 2 = 0 && not (Link.is_up l) -> l
          | Some _ | None -> links.(Netsim.Rng.int rng (Array.length links))
        in
        if Link.is_up l then last_failed := Some l;
        Graph.set_link_up g l (not (Link.is_up l));
        if toggle = 12 then Graph.invalidate_cache g;
        for _ = 1 to 3 do
          check_source g (Netsim.Rng.int rng n)
        done
      done;
      for src = 0 to n - 1 do
        check_source g src
      done;
      true)

(* Hand-built ties.  Two equal-cost paths s-a-d and s-b-d: the state
   settled first (lower id) relaxes d first, and a strict [<] keeps it.
   Then x at distance 2 in all three phases — internally via a (phase
   0), externally via b (phase 1), and into its domain via c (phase 2):
   the lowest phase wins. *)
let test_routing_ties () =
  let g = Graph.create () in
  let node label = Graph.add_node g ~kind:Node.Hub ~label in
  let s = node "s" and a = node "a" and b = node "b" and d = node "d" in
  List.iter
    (fun (u, v) -> ignore (Graph.connect g u v ~latency:1.0 ()))
    [ (s, b); (s, a); (b, d); (a, d) ];
  Alcotest.(check (list int)) "lower id settles first" [ s; a; d ]
    (Graph.path_between g s d);
  let g = Graph.create () in
  let node label = Graph.add_node g ~kind:Node.Host ~label in
  let s = node "s" and c = node "c" and b = node "b" and a = node "a" in
  let x = node "x" in
  List.iter
    (fun (kind, u, v) -> ignore (Graph.connect g u v ~latency:1.0 ~kind ()))
    [ (Link.External, s, c); (Link.Internal, c, x); (Link.External, s, b);
      (Link.External, b, x); (Link.Internal, s, a); (Link.Internal, a, x) ];
  Alcotest.(check (list int)) "lowest phase on a tie" [ s; a; x ]
    (Graph.path_between g s x);
  for src = 0 to Graph.node_count g - 1 do
    check_source g src
  done

(* Restoring a link can offer a state a second in-neighbour at exactly
   its distance: d is 2 from s over a and over b, and a (lower id)
   settles first.  With a-d down, d's path runs over b; restoring a-d
   must move it back over a while d's distance stays. *)
let test_routing_restored_tie () =
  let g = Graph.create () in
  let node label = Graph.add_node g ~kind:Node.Hub ~label in
  let s = node "s" and a = node "a" and b = node "b" and d = node "d" in
  List.iter
    (fun (u, v) -> ignore (Graph.connect g u v ~latency:1.0 ()))
    [ (s, a); (s, b); (b, d) ];
  let ad = Graph.connect g a d ~latency:1.0 () in
  let check_route name path =
    check_float (name ^ ": distance") 2.0 (Graph.latency_between g s d);
    Alcotest.(check (list int)) (name ^ ": path") path (Graph.path_between g s d)
  in
  check_route "built" [ s; a; d ];
  Graph.set_link_up g ad false;
  check_route "a-d down" [ s; b; d ];
  Graph.set_link_up g ad true;
  check_route "a-d restored" [ s; a; d ];
  for src = 0 to Graph.node_count g - 1 do
    check_source g src
  done

(* ------------------------------------------------------------------ *)
(* Routing cost pins                                                   *)
(* ------------------------------------------------------------------ *)

let pin_internet () =
  (Builder.generate (Netsim.Rng.create 42)
     { Builder.default_params with domain_count = 32; borders_per_domain = 3 })
    .Builder.graph

(* A border router's access link: every tree from outside its domain
   runs over it. *)
let an_uplink g =
  List.find
    (fun l ->
      Link.kind l = Link.External
      && List.exists
           (fun n -> (Graph.node g n).Node.kind = Node.Border_router)
           [ Link.a l; Link.b l ])
    (Graph.links g)

let minor_words f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

(* A warm [account_path] walks the cached tree: no path list, no
   per-hop lookup.  The list-building version allocated ~50 words per
   call. *)
let test_account_path_allocation () =
  let g = pin_internet () in
  let n = Graph.node_count g in
  warm_all g;
  let pairs = Array.init 1000 (fun i -> ((i * 7919) mod n, (i * 104_729 + 1) mod n)) in
  let words =
    minor_words (fun () ->
        Array.iter (fun (src, dst) -> Graph.account_path g ~src ~dst ~bytes:1200) pairs)
  in
  if words >= 1000.0 then
    Alcotest.failf "1000 warm account_path calls allocated %.0f minor words" words

(* A dropped tree is rebuilt in place (the dense version allocated
   ~5,900 words per tree). *)
let test_rebuild_allocation () =
  let g = pin_internet () in
  let n = Graph.node_count g in
  warm_all g;
  Graph.invalidate_cache g;
  let words = minor_words (fun () -> warm_all g) in
  if words /. float_of_int n >= 64.0 then
    Alcotest.failf "rebuilding %d trees allocated %.0f minor words" n words

(* An uplink flap repairs every warm tree in place, with closure-free
   loops over the graph's scratch arrays: nothing per tree. *)
let test_repair_allocation () =
  let g = pin_internet () in
  let n = Graph.node_count g in
  warm_all g;
  let uplink = an_uplink g in
  let words =
    minor_words (fun () ->
        Graph.set_link_up g uplink false;
        Graph.set_link_up g uplink true)
  in
  if words /. float_of_int n >= 64.0 then
    Alcotest.failf "a flap over %d trees allocated %.0f minor words" n words

(* Taking a link down and back up leaves every route as it was: each
   latency bit for bit, each path. *)
let test_flap_round_trip () =
  let g = pin_internet () in
  let n = Graph.node_count g in
  let routes () =
    Array.init n (fun src ->
        Array.init n (fun dst ->
            match Graph.latency_between g src dst with
            | l -> Some (Int64.bits_of_float l, Graph.path_between g src dst)
            | exception Not_found -> None))
  in
  let before = routes () in
  let flap l =
    Graph.set_link_up g l false;
    Graph.set_link_up g l true;
    if routes () <> before then
      Alcotest.failf "routes differ after link %d went down and up" (Link.id l)
  in
  let internal = List.find (fun l -> Link.kind l = Link.Internal) (Graph.links g) in
  let core =
    List.find
      (fun l ->
        (Graph.node g (Link.a l)).Node.kind = Node.Provider_core
        && (Graph.node g (Link.b l)).Node.kind = Node.Provider_core)
      (Graph.links g)
  in
  List.iter flap [ an_uplink g; internal; core ]

(* Cold tree builds and flap repairs, and only they, run in the
   [routing] phase: one call per build and one per link change. *)
let test_routing_phase () =
  let g = pin_internet () in
  let n = Graph.node_count g in
  let routing_calls f =
    Netsim.Prof.start ();
    f ();
    Netsim.Prof.stop ();
    List.fold_left
      (fun acc p ->
        if p.Netsim.Prof.ps_name = "routing" then p.Netsim.Prof.ps_calls else acc)
      0 (Netsim.Prof.report ()).Netsim.Prof.r_phases
  in
  Alcotest.(check int) "one routing call per source" n
    (routing_calls (fun () -> warm_all g; warm_all g));
  let uplink = an_uplink g in
  List.iter
    (fun up ->
      Alcotest.(check int) "one routing call per link change" 1
        (routing_calls (fun () -> Graph.set_link_up g uplink up));
      Alcotest.(check int) "repaired trees are warm" 0
        (routing_calls (fun () -> warm_all g)))
    [ false; true ]

(* ------------------------------------------------------------------ *)
(* Link                                                                *)
(* ------------------------------------------------------------------ *)

let test_link_accounting () =
  let l = Link.create ~id:0 ~a:0 ~b:1 ~latency:0.01 ~capacity_bps:1e6 () in
  Link.account l ~src:0 ~bytes:500;
  Link.account l ~src:0 ~bytes:500;
  Link.account l ~src:1 ~bytes:100;
  Alcotest.(check int) "0->1" 1000 (Link.bytes_from l 0);
  Alcotest.(check int) "1->0" 100 (Link.bytes_from l 1);
  (* 1000 bytes = 8000 bits over 1 s at 1 Mbit/s = 0.008. *)
  check_float "utilisation" 0.008 (Link.utilisation_from l 0 ~duration:1.0);
  Link.reset_counters l;
  Alcotest.(check int) "reset" 0 (Link.bytes_from l 0)

let test_link_other_end () =
  let l = Link.create ~id:0 ~a:3 ~b:9 ~latency:0.01 () in
  Alcotest.(check int) "other of a" 9 (Link.other_end l 3);
  Alcotest.(check int) "other of b" 3 (Link.other_end l 9);
  Alcotest.check_raises "stranger" (Invalid_argument "Link.other_end: node is not an endpoint")
    (fun () -> ignore (Link.other_end l 4))

(* ------------------------------------------------------------------ *)
(* Figure 1 internet                                                   *)
(* ------------------------------------------------------------------ *)

let test_figure1_shape () =
  let net = Builder.figure1 () in
  Alcotest.(check int) "two domains" 2 (Array.length net.Builder.domains);
  Alcotest.(check int) "four providers" 4 (Array.length net.Builder.providers);
  Array.iter
    (fun d ->
      Alcotest.(check int) "two borders" 2 (Array.length d.Domain.borders);
      Alcotest.(check int) "two hosts" 2 (Array.length d.Domain.hosts))
    net.Builder.domains;
  let as_s = net.Builder.domains.(0) and as_d = net.Builder.domains.(1) in
  (* AS_S homes to providers A (10/8) and B (11/8); AS_D to X and Y. *)
  let provider_prefix_of b =
    Nettypes.Ipv4.prefix_to_string
      net.Builder.providers.(b.Domain.provider).Builder.prefix
  in
  Alcotest.(check (list string)) "AS_S providers" [ "10.0.0.0/8"; "11.0.0.0/8" ]
    (List.map provider_prefix_of (Array.to_list as_s.Domain.borders));
  Alcotest.(check (list string)) "AS_D providers" [ "12.0.0.0/8"; "13.0.0.0/8" ]
    (List.map provider_prefix_of (Array.to_list as_d.Domain.borders))

let test_figure1_rlocs_in_provider_space () =
  let net = Builder.figure1 () in
  Array.iter
    (fun d ->
      Array.iter
        (fun b ->
          let p = net.Builder.providers.(b.Domain.provider) in
          Alcotest.(check bool) "rloc inside provider prefix" true
            (Nettypes.Ipv4.prefix_mem p.Builder.prefix b.Domain.rloc))
        d.Domain.borders)
    net.Builder.domains

let test_figure1_connectivity () =
  let net = Builder.figure1 () in
  let as_s = net.Builder.domains.(0) and as_d = net.Builder.domains.(1) in
  let h_s = as_s.Domain.hosts.(0) and h_d = as_d.Domain.hosts.(0) in
  let owd = Builder.latency net h_s h_d in
  Alcotest.(check bool) "host to host reachable and plausible" true
    (owd > 0.01 && owd < 0.2);
  (* DNS of S reaches the root. *)
  let dns_latency = Builder.latency net as_s.Domain.dns net.Builder.root_dns in
  Alcotest.(check bool) "dns to root" true (dns_latency > 0.0 && dns_latency < 0.2)

let test_figure1_eid_lookup () =
  let net = Builder.figure1 () in
  let as_s = net.Builder.domains.(0) in
  let eid = Domain.host_eid as_s 1 in
  (match Builder.domain_of_eid net eid with
  | Some d -> Alcotest.(check int) "domain found" 0 d.Domain.id
  | None -> Alcotest.fail "eid not found");
  Alcotest.(check (option int)) "host index roundtrip" (Some 1)
    (Domain.host_of_eid as_s eid);
  Alcotest.(check bool) "foreign eid rejected" true
    (Domain.host_of_eid as_s (Nettypes.Ipv4.addr_of_string "100.0.1.1") = None)

let test_figure1_border_of_rloc () =
  let net = Builder.figure1 () in
  let as_d = net.Builder.domains.(1) in
  let b0 = as_d.Domain.borders.(0) in
  match Builder.border_of_rloc net b0.Domain.rloc with
  | Some (d, b) ->
      Alcotest.(check int) "domain" 1 d.Domain.id;
      Alcotest.(check int) "router" b0.Domain.router b.Domain.router
  | None -> Alcotest.fail "rloc not resolved"

let test_domain_names () =
  let net = Builder.figure1 () in
  let as_s = net.Builder.domains.(0) in
  Alcotest.(check string) "fqdn" "as0.net." (Domain.fqdn as_s);
  Alcotest.(check string) "host name" "h1.as0.net." (Domain.host_name as_s 1);
  (match Builder.domain_of_name net "as1" with
  | Some d -> Alcotest.(check int) "by label" 1 d.Domain.id
  | None -> Alcotest.fail "label lookup failed");
  match Builder.domain_of_name net "as1.net." with
  | Some d -> Alcotest.(check int) "by fqdn" 1 d.Domain.id
  | None -> Alcotest.fail "fqdn lookup failed"

let test_advertised_mapping () =
  let net = Builder.figure1 () in
  let as_d = net.Builder.domains.(1) in
  let m = Domain.advertised_mapping as_d ~ttl:60.0 in
  Alcotest.(check int) "one rloc per border" 2
    (List.length m.Nettypes.Mapping.rlocs);
  Alcotest.(check bool) "covers its hosts" true
    (Nettypes.Mapping.covers m (Domain.host_eid as_d 0))

(* ------------------------------------------------------------------ *)
(* Random internet                                                     *)
(* ------------------------------------------------------------------ *)

let test_generate_deterministic () =
  let build () =
    Builder.generate (Netsim.Rng.create 11)
      { Builder.default_params with domain_count = 6; provider_count = 5 }
  in
  let n1 = build () and n2 = build () in
  let rlocs net =
    Array.to_list net.Builder.domains
    |> List.concat_map (fun d ->
           List.map Nettypes.Ipv4.addr_to_string (Domain.rlocs d))
  in
  Alcotest.(check (list string)) "same seed, same internet" (rlocs n1) (rlocs n2)

let test_generate_all_connected () =
  let net =
    Builder.generate (Netsim.Rng.create 3)
      { Builder.default_params with domain_count = 8; provider_count = 4 }
  in
  let d0 = net.Builder.domains.(0) in
  Array.iter
    (fun d ->
      let l = Builder.latency net d0.Domain.hosts.(0) d.Domain.hosts.(0) in
      Alcotest.(check bool) "reachable" true (l >= 0.0))
    net.Builder.domains

let test_generate_distinct_providers_per_domain () =
  let net =
    Builder.generate (Netsim.Rng.create 5)
      { Builder.default_params with domain_count = 10; provider_count = 6;
        borders_per_domain = 3 }
  in
  Array.iter
    (fun d ->
      let providers =
        Array.to_list (Array.map (fun b -> b.Domain.provider) d.Domain.borders)
      in
      Alcotest.(check int) "three distinct providers" 3
        (List.length (List.sort_uniq compare providers)))
    net.Builder.domains

let test_generate_unique_rlocs () =
  let net =
    Builder.generate (Netsim.Rng.create 7)
      { Builder.default_params with domain_count = 20; provider_count = 4;
        borders_per_domain = 2 }
  in
  let all =
    Array.to_list net.Builder.domains
    |> List.concat_map (fun d -> List.map Nettypes.Ipv4.addr_to_int (Domain.rlocs d))
  in
  Alcotest.(check int) "no duplicate rlocs" (List.length all)
    (List.length (List.sort_uniq compare all))

let test_generate_unique_eid_prefixes () =
  let net =
    Builder.generate (Netsim.Rng.create 7)
      { Builder.default_params with domain_count = 30 }
  in
  let prefixes =
    Array.to_list net.Builder.domains
    |> List.map (fun d -> Nettypes.Ipv4.prefix_to_string d.Domain.eid_prefix)
  in
  Alcotest.(check int) "distinct eid prefixes" (List.length prefixes)
    (List.length (List.sort_uniq compare prefixes))

let test_generate_two_tier_core () =
  let params =
    { Builder.default_params with domain_count = 8; provider_count = 7;
      core_shape = Builder.Two_tier 3 }
  in
  let net = Builder.generate (Netsim.Rng.create 6) params in
  let graph = net.Builder.graph in
  (* Tier-1 cores form a triangle; tier-2 cores have exactly two core
     neighbours, both tier-1. *)
  let core_neighbours i =
    List.filter
      (fun (n, _) ->
        (Graph.node graph n).Node.kind = Node.Provider_core)
      (Graph.neighbours graph net.Builder.providers.(i).Builder.core)
  in
  (* Tier-1 cores peer with both other tier-1s (plus their tier-2
     children). *)
  for i = 0 to 2 do
    let neighbours = List.map fst (core_neighbours i) in
    List.iter
      (fun j ->
        if j <> i then
          Alcotest.(check bool) "tier-1 mesh edge present" true
            (List.mem net.Builder.providers.(j).Builder.core neighbours))
      [ 0; 1; 2 ]
  done;
  for i = 3 to 6 do
    let neighbours = core_neighbours i in
    Alcotest.(check int) "tier-2 dual-homed" 2 (List.length neighbours);
    List.iter
      (fun (n, _) ->
        let tier1 =
          List.exists
            (fun j -> net.Builder.providers.(j).Builder.core = n)
            [ 0; 1; 2 ]
        in
        Alcotest.(check bool) "parents are tier-1" true tier1)
      neighbours
  done;
  (* Everything still reachable. *)
  let d0 = net.Builder.domains.(0) in
  Array.iter
    (fun d ->
      Alcotest.(check bool) "connected" true
        (Builder.latency net d0.Domain.hosts.(0) d.Domain.hosts.(0) < infinity))
    net.Builder.domains

let test_generate_two_tier_validation () =
  List.iter
    (fun shape ->
      let params =
        { Builder.default_params with provider_count = 5; core_shape = shape }
      in
      match Builder.generate (Netsim.Rng.create 1) params with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "bad tier-1 size accepted")
    [ Builder.Two_tier 0; Builder.Two_tier 6; Builder.Two_tier 1 ]

let test_generate_bad_params_rejected () =
  List.iter
    (fun params ->
      match Builder.generate (Netsim.Rng.create 1) params with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "bad params accepted")
    [ { Builder.default_params with domain_count = 0 };
      { Builder.default_params with provider_count = 0 };
      { Builder.default_params with provider_count = 101 };
      { Builder.default_params with hosts_per_domain = 0 };
      { Builder.default_params with hosts_per_domain = 255 } ]

let prop_generated_rloc_resolves =
  QCheck.Test.make ~name:"every generated rloc resolves to its border" ~count:20
    QCheck.(int_range 1 1000)
    (fun seed ->
      let net =
        Builder.generate (Netsim.Rng.create seed)
          { Builder.default_params with domain_count = 5; provider_count = 3 }
      in
      Array.for_all
        (fun d ->
          Array.for_all
            (fun b ->
              match Builder.border_of_rloc net b.Domain.rloc with
              | Some (d', b') -> d'.Domain.id = d.Domain.id && b'.Domain.router = b.Domain.router
              | None -> false)
            d.Domain.borders)
        net.Builder.domains)

let () =
  Alcotest.run "topology"
    [
      ( "graph",
        [
          Alcotest.test_case "shortest path" `Quick test_graph_shortest_path;
          Alcotest.test_case "symmetry" `Quick test_graph_symmetry;
          Alcotest.test_case "disconnected" `Quick test_graph_disconnected;
          Alcotest.test_case "duplicate rejected" `Quick test_graph_duplicate_link_rejected;
          Alcotest.test_case "cache invalidation" `Quick test_graph_cache_invalidation;
          Alcotest.test_case "account path" `Quick test_graph_account_path;
          Alcotest.test_case "link ids per graph" `Quick test_graph_link_ids;
          Alcotest.test_case "account path feeds plane" `Quick
            test_graph_account_path_plane;
        ] );
      ( "routing",
        [
          QCheck_alcotest.to_alcotest prop_routes_match_oracle;
          Alcotest.test_case "ties" `Quick test_routing_ties;
          Alcotest.test_case "restored tie" `Quick test_routing_restored_tie;
          Alcotest.test_case "flap round trip" `Quick test_flap_round_trip;
          Alcotest.test_case "warm account_path allocation" `Quick
            test_account_path_allocation;
          Alcotest.test_case "rebuild allocation" `Quick test_rebuild_allocation;
          Alcotest.test_case "repair allocation" `Quick test_repair_allocation;
          Alcotest.test_case "routing phase on cold builds" `Quick
            test_routing_phase;
        ] );
      ( "link",
        [
          Alcotest.test_case "accounting" `Quick test_link_accounting;
          Alcotest.test_case "other end" `Quick test_link_other_end;
        ] );
      ( "figure1",
        [
          Alcotest.test_case "shape" `Quick test_figure1_shape;
          Alcotest.test_case "rloc spaces" `Quick test_figure1_rlocs_in_provider_space;
          Alcotest.test_case "connectivity" `Quick test_figure1_connectivity;
          Alcotest.test_case "eid lookup" `Quick test_figure1_eid_lookup;
          Alcotest.test_case "border of rloc" `Quick test_figure1_border_of_rloc;
          Alcotest.test_case "names" `Quick test_domain_names;
          Alcotest.test_case "advertised mapping" `Quick test_advertised_mapping;
        ] );
      ( "generate",
        [
          Alcotest.test_case "deterministic" `Quick test_generate_deterministic;
          Alcotest.test_case "connected" `Quick test_generate_all_connected;
          Alcotest.test_case "distinct providers" `Quick test_generate_distinct_providers_per_domain;
          Alcotest.test_case "unique rlocs" `Quick test_generate_unique_rlocs;
          Alcotest.test_case "unique eid prefixes" `Quick test_generate_unique_eid_prefixes;
          Alcotest.test_case "two-tier core" `Quick test_generate_two_tier_core;
          Alcotest.test_case "two-tier validation" `Quick test_generate_two_tier_validation;
          Alcotest.test_case "bad params" `Quick test_generate_bad_params_rejected;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_generated_rloc_resolves ] );
    ]
