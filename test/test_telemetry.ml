(* The telemetry plane and the drop ledger: window rotation,
   Space-Saving error bounds, drop-cause labels, TE-balance math, the
   disabled path's zero-cost contract, enabled-vs-disabled simulation
   identity, conservation laws against the links' own byte counters,
   the ledger against every counter it shadows, and the independence
   of two scenarios' planes in one process. *)

let config ?(window_s = 1.0) ?(slots = 4) ?(topk = 8) () =
  { Netsim.Telemetry.window_s; slots; topk }

let plane ?window_s ?slots ?topk ?(now = 0.0) () =
  Netsim.Telemetry.create ~config:(config ?window_s ?slots ?topk ())
    ~node_name:(Printf.sprintf "n%d") ~drops:(Netsim.Drop.create ()) ~now ()

(* ------------------------------------------------------------------ *)
(* Sliding-window counters                                             *)
(* ------------------------------------------------------------------ *)

let test_window_rotation () =
  let tm = plane () in
  let feed ~now ~bytes =
    Netsim.Telemetry.touch tm ~now;
    Netsim.Telemetry.on_link tm ~link:0 ~dir:0 ~bytes
  in
  (* One packet per second for 10 s; ring holds 4 slots. *)
  for second = 0 to 9 do
    feed ~now:(float_of_int second +. 0.5) ~bytes:100
  done;
  let s = Netsim.Telemetry.link_stat tm ~link:0 ~dir:0 in
  Alcotest.(check int) "cumulative packets" 10 s.Netsim.Telemetry.st_pkts;
  Alcotest.(check int) "cumulative bytes" 1000 s.Netsim.Telemetry.st_bytes;
  Alcotest.(check int) "window packets = ring size" 4
    s.Netsim.Telemetry.st_win_pkts;
  Alcotest.(check int) "window bytes" 400 s.Netsim.Telemetry.st_win_bytes;
  (* Advancing the clock without traffic empties the window but not the
     cumulative counters. *)
  Netsim.Telemetry.touch tm ~now:100.0;
  let s = Netsim.Telemetry.link_stat tm ~link:0 ~dir:0 in
  Alcotest.(check int) "idle window drains" 0 s.Netsim.Telemetry.st_win_pkts;
  Alcotest.(check int) "cumulative survives" 10 s.Netsim.Telemetry.st_pkts

let test_series_ascending () =
  let tm = plane () in
  List.iter
    (fun now ->
      Netsim.Telemetry.touch tm ~now;
      Netsim.Telemetry.on_link tm ~link:1 ~dir:1 ~bytes:10)
    [ 0.1; 1.1; 1.2; 3.7 ];
  let series = Netsim.Telemetry.link_series tm ~link:1 ~dir:1 in
  let slots = List.map (fun s -> s.Netsim.Telemetry.sl_slot) series in
  Alcotest.(check (list int)) "retained slots ascending" [ 0; 1; 3 ] slots;
  let pkts = List.map (fun s -> s.Netsim.Telemetry.sl_pkts) series in
  Alcotest.(check (list int)) "per-slot packets" [ 1; 2; 1 ] pkts;
  List.iter
    (fun s ->
      Alcotest.(check (float 1e-9))
        "slot start = slot * window"
        (float_of_int s.Netsim.Telemetry.sl_slot)
        s.Netsim.Telemetry.sl_start)
    series

(* ------------------------------------------------------------------ *)
(* Space-Saving sketch                                                 *)
(* ------------------------------------------------------------------ *)

(* A skewed stream over more keys than the sketch holds: every key with
   true frequency > total/cap must be monitored, estimates must bound
   the truth from above, and (estimate - error) from below. *)
let test_sketch_error_bounds () =
  let cap = 8 in
  let sketch = Netsim.Telemetry.Sketch.create ~cap in
  let true_counts = Hashtbl.create 64 in
  let observe key =
    Netsim.Telemetry.Sketch.observe sketch key;
    Hashtbl.replace true_counts key
      (1 + Option.value ~default:0 (Hashtbl.find_opt true_counts key))
  in
  (* 4 heavy keys, 40 light ones, deterministically interleaved. *)
  for round = 1 to 100 do
    for heavy = 0 to 3 do
      observe heavy
    done;
    observe (4 + (round mod 40))
  done;
  let total = Netsim.Telemetry.Sketch.total sketch in
  Alcotest.(check int) "total preserved" 500 total;
  let entries = Netsim.Telemetry.Sketch.entries sketch in
  Alcotest.(check bool) "at most cap entries" true
    (List.length entries <= cap);
  let threshold = total / cap in
  Hashtbl.iter
    (fun key count ->
      if count > threshold then
        Alcotest.(check bool)
          (Printf.sprintf "heavy key %d monitored" key)
          true
          (List.exists (fun (k, _, _) -> k = key) entries))
    true_counts;
  List.iter
    (fun (key, est, err) ->
      let truth = Option.value ~default:0 (Hashtbl.find_opt true_counts key) in
      Alcotest.(check bool)
        (Printf.sprintf "key %d: estimate >= truth" key)
        true (est >= truth);
      Alcotest.(check bool)
        (Printf.sprintf "key %d: estimate - error <= truth" key)
        true (est - err <= truth);
      Alcotest.(check bool)
        (Printf.sprintf "key %d: error <= total/cap" key)
        true (err <= threshold))
    entries;
  (* Descending estimated count. *)
  let counts = List.map (fun (_, c, _) -> c) entries in
  Alcotest.(check (list int)) "entries sorted" (List.sort (fun a b -> compare b a) counts) counts

let test_sketch_exact_under_capacity () =
  let sketch = Netsim.Telemetry.Sketch.create ~cap:16 in
  List.iter
    (fun (key, n) ->
      for _ = 1 to n do
        Netsim.Telemetry.Sketch.observe sketch key
      done)
    [ (1, 5); (2, 3); (3, 1) ];
  Alcotest.(check (list (triple int int int)))
    "exact counts, zero error when under capacity"
    [ (1, 5, 0); (2, 3, 0); (3, 1, 0) ]
    (Netsim.Telemetry.Sketch.entries sketch)

(* ------------------------------------------------------------------ *)
(* Drop causes                                                         *)
(* ------------------------------------------------------------------ *)

let test_drop_label_round_trip () =
  List.iter
    (fun cause ->
      let label = Netsim.Drop.label cause in
      match Netsim.Drop.of_label label with
      | Some back ->
          Alcotest.(check bool)
            (Printf.sprintf "%s round-trips" label)
            true (back = cause)
      | None -> Alcotest.failf "label %s does not parse back" label)
    Netsim.Drop.all;
  let labels = List.map Netsim.Drop.label Netsim.Drop.all in
  Alcotest.(check int) "labels unique"
    (List.length labels)
    (List.length (List.sort_uniq compare labels));
  Alcotest.(check (option reject)) "unknown label rejected" None
    (Netsim.Drop.of_label "no-such-cause")

(* The labels are a wire format: traces, JSONL events, BENCH.json and
   the baseline differ use them, so they are pinned byte-for-byte.
   Growing the enum appends — it never renames or reorders. *)
let test_drop_labels_pinned () =
  Alcotest.(check (list string)) "stable label list"
    [ "no-route"; "no-such-eid"; "no-receiver"; "no-such-rloc";
      "rloc-unreachable"; "post-resolution-miss"; "mapping-resolution-drop";
      "resolution-abandoned"; "resolution-timeout";
      "resolution-queue-overflow"; "nerd-database-miss"; "no-such-eid-domain";
      "pce-no-mapping-forward"; "pce-no-mapping-reverse"; "cp-message-loss";
      "outage-failure"; "spoofed-reply-rejected"; "replayed-reply-rejected";
      "glean-admission-rejected" ]
    (List.map Netsim.Drop.label Netsim.Drop.all)

let test_drop_attribution () =
  let drops = Netsim.Drop.create () in
  Netsim.Drop.record drops ~node:5 Netsim.Drop.Resolution_timeout;
  Netsim.Drop.record drops ~node:3 Netsim.Drop.No_route;
  Netsim.Drop.record drops ~node:3 Netsim.Drop.No_route;
  Netsim.Drop.record drops ~node:(-1) Netsim.Drop.Cp_message_loss;
  Alcotest.(check int) "total drops" 4 (Netsim.Drop.total drops);
  let labelled l = List.map (fun (c, n) -> (Netsim.Drop.label c, n)) l in
  Alcotest.(check (list (pair string int)))
    "by descending count, ties in cause order"
    [ ("no-route", 2); ("resolution-timeout", 1); ("cp-message-loss", 1) ]
    (labelled (Netsim.Drop.totals drops));
  let by_node = Netsim.Drop.by_node drops in
  Alcotest.(check (list int)) "nodes ascending, unattributed first"
    [ -1; 3; 5 ]
    (List.map fst by_node);
  Alcotest.(check (list (pair string int))) "node 3's causes"
    [ ("no-route", 2) ]
    (labelled (List.assoc 3 by_node))

(* ------------------------------------------------------------------ *)
(* TE balance                                                          *)
(* ------------------------------------------------------------------ *)

let test_balance_metrics () =
  let tm = plane () in
  (* Two providers; links 10 and 11, egress a->b (dir 0). *)
  Netsim.Telemetry.register_uplink tm ~link:10 ~provider:0 ~egress_dir:0;
  Netsim.Telemetry.register_uplink tm ~link:11 ~provider:1 ~egress_dir:0;
  Netsim.Telemetry.touch tm ~now:0.5;
  (* Inbound (dir 1): 300 bytes via provider 0, 100 via provider 1. *)
  Netsim.Telemetry.on_link tm ~link:10 ~dir:1 ~bytes:300;
  Netsim.Telemetry.on_link tm ~link:11 ~dir:1 ~bytes:100;
  (* Outbound: perfectly balanced. *)
  Netsim.Telemetry.on_link tm ~link:10 ~dir:0 ~bytes:200;
  Netsim.Telemetry.on_link tm ~link:11 ~dir:0 ~bytes:200;
  let b = Netsim.Telemetry.balance tm ~window:false in
  Alcotest.(check (float 1e-9)) "in share p0" 0.75 b.Netsim.Telemetry.bal_in_share.(0);
  Alcotest.(check (float 1e-9)) "in share p1" 0.25 b.Netsim.Telemetry.bal_in_share.(1);
  Alcotest.(check (float 1e-9)) "jain out = 1 (balanced)" 1.0
    b.Netsim.Telemetry.bal_jain_out;
  Alcotest.(check (float 1e-9)) "ratio in = 3" 3.0
    b.Netsim.Telemetry.bal_ratio_in;
  Alcotest.(check (float 1e-9)) "jain in"
    (Netsim.Stats.jain_index [| 300.0; 100.0 |])
    b.Netsim.Telemetry.bal_jain_in;
  let p0_in = Netsim.Telemetry.provider_stat tm ~provider:0 `In in
  Alcotest.(check int) "provider store fed" 300
    p0_in.Netsim.Telemetry.st_bytes

(* ------------------------------------------------------------------ *)
(* Disabled path                                                       *)
(* ------------------------------------------------------------------ *)

(* "Disabled" is a hook site whose plane option is [None].  The option
   sits in a mutable record field, as on a graph, so the compiler
   cannot fold the branch away. *)
type site = { mutable plane : Netsim.Telemetry.t option }

let test_disabled_path_allocation_free () =
  let site = { plane = None } in
  let cycle i =
    match site.plane with
    | Some tm ->
        Netsim.Telemetry.touch tm ~now:(float_of_int i);
        Netsim.Telemetry.on_link tm ~link:3 ~dir:0 ~bytes:1400;
        Netsim.Telemetry.on_node_tx tm ~node:7 ~bytes:1400;
        Netsim.Telemetry.on_node_rx tm ~node:8 ~bytes:1400;
        Netsim.Telemetry.on_node_fwd tm ~node:9 ~bytes:1400;
        Netsim.Telemetry.on_flow_packet tm ~eid:i ~flow:i;
        Netsim.Telemetry.on_select tm ~provider:2 ~inbound:true
    | None -> ()
  in
  for i = 1 to 1_000 do cycle i done;
  let w0 = Gc.minor_words () in
  for i = 1 to 100_000 do cycle i done;
  let dw = Gc.minor_words () -. w0 in
  Alcotest.(check bool)
    (Printf.sprintf "no allocation on the disabled path (%.0f words)" dw)
    true (dw = 0.0)

(* ------------------------------------------------------------------ *)
(* Enabled telemetry never changes the simulation                      *)
(* ------------------------------------------------------------------ *)

(* The plane observes simulated quantities against simulated time and
   never schedules events or draws randomness: a full scenario run must
   produce byte-identical output with it off and on. *)
let fingerprint ~seed ~telemetry =
  let s =
    Core.Scenario.build
      { Core.Scenario.default_config with
        Core.Scenario.seed;
        Core.Scenario.cp = Core.Scenario.Cp_pce Core.Pce_control.default_options;
        Core.Scenario.telemetry =
          (if telemetry then Some (config ~slots:8 ()) else None) }
  in
  let internet = Core.Scenario.internet s in
  let flow =
    Nettypes.Flow.create
      ~src:(Topology.Domain.host_eid internet.Topology.Builder.domains.(0) 0)
      ~dst:(Topology.Domain.host_eid internet.Topology.Builder.domains.(1) 0)
      ~src_port:1 ()
  in
  let walkthrough = Core.Scenario.walkthrough s in
  let c = Core.Scenario.open_connection s ~flow ~data_packets:2 () in
  Core.Scenario.run s;
  let counters = Lispdp.Dataplane.counters (Core.Scenario.dataplane s) in
  Printf.sprintf "%.12g %.12g %d %d %s"
    (Option.value ~default:(-1.0) c.Core.Scenario.dns_time)
    (Option.value ~default:(-1.0) (Core.Scenario.total_setup_time c))
    counters.Lispdp.Dataplane.dropped counters.Lispdp.Dataplane.delivered
    (Format.asprintf "%a" Obs.Event.pp_log (walkthrough ()))

let prop_telemetry_preserves_output =
  QCheck.Test.make ~name:"telemetry on/off: identical simulation output"
    ~count:8
    QCheck.(int_range 1 1_000)
    (fun seed ->
      String.equal
        (fingerprint ~seed ~telemetry:false)
        (fingerprint ~seed ~telemetry:true))

(* The adversary layer follows the same opt-in contract: compiling it
   in with every rate at zero (and the all-off auth profile) must not
   shift a single event or RNG draw relative to no profile at all. *)
let fingerprint_pull ~seed ~armed =
  let s =
    Core.Scenario.build
      { Core.Scenario.default_config with
        Core.Scenario.seed;
        Core.Scenario.cp = Core.Scenario.Cp_pull_queue 8;
        Core.Scenario.attack =
          (if armed then Some Core.Scenario.default_attack else None);
        Core.Scenario.auth =
          (if armed then Some Core.Scenario.default_auth else None) }
  in
  let internet = Core.Scenario.internet s in
  let flow =
    Nettypes.Flow.create
      ~src:(Topology.Domain.host_eid internet.Topology.Builder.domains.(0) 0)
      ~dst:(Topology.Domain.host_eid internet.Topology.Builder.domains.(1) 0)
      ~src_port:1 ()
  in
  let walkthrough = Core.Scenario.walkthrough s in
  let c = Core.Scenario.open_connection s ~flow ~data_packets:2 () in
  Core.Scenario.run s;
  let counters = Lispdp.Dataplane.counters (Core.Scenario.dataplane s) in
  Printf.sprintf "%.12g %.12g %d %d %s"
    (Option.value ~default:(-1.0) c.Core.Scenario.dns_time)
    (Option.value ~default:(-1.0) (Core.Scenario.total_setup_time c))
    counters.Lispdp.Dataplane.dropped counters.Lispdp.Dataplane.delivered
    (Format.asprintf "%a" Obs.Event.pp_log (walkthrough ()))

let prop_disarmed_adversary_preserves_output =
  QCheck.Test.make
    ~name:"zero-rate adversary profile: identical simulation output" ~count:8
    QCheck.(int_range 1 1_000)
    (fun seed ->
      String.equal
        (fingerprint_pull ~seed ~armed:false)
        (fingerprint_pull ~seed ~armed:true))

(* ------------------------------------------------------------------ *)
(* One event stream: the hub changes nothing, every drop tally agrees  *)
(* ------------------------------------------------------------------ *)

type profile = Plain | Cp_loss | Spoof | Flood_capped | Pce_crash

let profile_name = function
  | Plain -> "none"
  | Cp_loss -> "cp-loss"
  | Spoof -> "attack-spoof"
  | Flood_capped -> "glean-cap+attack-flood"
  | Pce_crash -> "pce-crash"

let tally_cps =
  [| Core.Scenario.Cp_pull_drop; Core.Scenario.Cp_pull_queue 4;
     Core.Scenario.Cp_nerd;
     Core.Scenario.Cp_pce Core.Pce_control.default_options |]

let tally_profiles = [| Plain; Cp_loss; Spoof; Flood_capped; Pce_crash |]

let tally_config ~seed ~cp ~profile ~telemetry =
  let c =
    { Core.Scenario.default_config with
      Core.Scenario.seed; cp;
      telemetry = (if telemetry then Some (config ()) else None) }
  in
  match profile with
  | Plain -> c
  | Cp_loss ->
      { c with
        Core.Scenario.cp_faults =
          Some { Core.Scenario.default_cp_faults with Core.Scenario.cp_loss = 0.3 }
      }
  | Spoof ->
      { c with
        Core.Scenario.attack =
          Some { Core.Scenario.default_attack with Core.Scenario.atk_spoof = 1.0 }
      }
  | Flood_capped ->
      { c with
        Core.Scenario.attack =
          Some
            { Core.Scenario.default_attack with
              Core.Scenario.atk_flood_rate = 400.0; atk_flood_until = 0.5;
              atk_flood_victim = 1 };
        auth =
          Some
            { Core.Scenario.default_auth with
              Core.Scenario.auth_glean_cap = Some 4 } }
  | Pce_crash ->
      { c with
        Core.Scenario.node_faults =
          Some
            { Core.Scenario.default_node_faults with
              Core.Scenario.node_windows = [ (Netsim.Lifecycle.Pce 1, 0.0, 5.0) ]
            } }

(* Every sink a hub can carry: the walkthrough buffer, JSONL rendered into
   a buffer, a latency analyzer, and a buffer of the raw events. *)
let subscribe_all s =
  let hub = Core.Scenario.obs s in
  let (_ : unit -> Obs.Event.t list) = Core.Scenario.walkthrough s in
  let jsonl = Buffer.create 4096 in
  Obs.Hub.add_sink hub (fun e ->
      Buffer.add_string jsonl (Obs.Export.event_line e);
      Buffer.add_char jsonl '\n');
  Obs.Hub.add_sink hub (Obs.Latency.feed (Obs.Latency.create ()));
  let sink, events = Obs.Hub.memory_sink () in
  Obs.Hub.add_sink hub sink;
  events

type tally = {
  fingerprint : string;  (* DNS/setup times, drops, deliveries, events *)
  from_events : (string * int) list;  (* Packet_drop events by cause *)
  from_dataplane : (string * int) list;
  from_telemetry : (string * int) list;
      (* the plane's ledger, packet causes only: the same ledger
         [from_dataplane] reads *)
  dropped : int;
}

let count_causes causes =
  List.fold_left
    (fun acc cause ->
      let n = Option.value ~default:0 (List.assoc_opt cause acc) in
      (cause, n + 1) :: List.remove_assoc cause acc)
    [] causes
  |> List.sort compare

(* Three Figure-1 connections, both directions. *)
let open_three s =
  let internet = Core.Scenario.internet s in
  let eid d h =
    Topology.Domain.host_eid internet.Topology.Builder.domains.(d) h
  in
  List.map
    (fun (src, dst, port) ->
      let flow = Nettypes.Flow.create ~src ~dst ~src_port:port () in
      Core.Scenario.open_connection s ~flow ~data_packets:3 ())
    [ (eid 0 0, eid 1 0, 7001); (eid 0 1, eid 1 1, 7002);
      (eid 1 0, eid 0 1, 7003) ]

(* A small Figure-1 run: three connections, both directions. *)
let tally_run config ~hub =
  let s = Core.Scenario.build config in
  let events = if hub then subscribe_all s else fun () -> [] in
  let conns = open_three s in
  Core.Scenario.run s;
  let dp = Core.Scenario.dataplane s in
  let counters = Lispdp.Dataplane.counters dp in
  let times c =
    Printf.sprintf "%.12g/%.12g"
      (Option.value ~default:(-1.0) c.Core.Scenario.dns_time)
      (Option.value ~default:(-1.0) (Core.Scenario.total_setup_time c))
  in
  { fingerprint =
      Printf.sprintf "%s dropped=%d delivered=%d events=%d"
        (String.concat " " (List.map times conns))
        counters.Lispdp.Dataplane.dropped counters.Lispdp.Dataplane.delivered
        (Netsim.Engine.events_processed (Core.Scenario.engine s));
    from_events =
      List.filter_map
        (fun e ->
          match e.Obs.Event.kind with
          | Obs.Event.Packet_drop { cause } -> Some cause
          | _ -> None)
        (events ())
      |> count_causes;
    from_dataplane = List.sort compare (Lispdp.Dataplane.drop_causes dp);
    from_telemetry =
      (match Core.Scenario.telemetry s with
      | Some tm -> Netsim.Drop.totals (Netsim.Telemetry.ledger tm)
      | None -> [])
      |> List.filter_map (fun (cause, n) ->
             if Netsim.Drop.is_packet cause then
               Some (Netsim.Drop.label cause, n)
             else None)
      |> List.sort compare;
    dropped = counters.Lispdp.Dataplane.dropped }

let show_causes causes =
  String.concat ", " (List.map (fun (c, n) -> Printf.sprintf "%s=%d" c n) causes)

let prop_hub_and_drop_tallies =
  QCheck.Test.make ~count:100
    ~name:"hub on/off: identical simulation, per-cause drop tallies agree"
    QCheck.(
      triple (int_range 1 1_000)
        (int_bound (Array.length tally_cps - 1))
        (int_bound (Array.length tally_profiles - 1)))
    (fun (seed, cp_i, profile_i) ->
      let cp = tally_cps.(cp_i) and profile = tally_profiles.(profile_i) in
      let label =
        Printf.sprintf "seed %d, %s, %s" seed (Core.Scenario.cp_label cp)
          (profile_name profile)
      in
      let config = tally_config ~seed ~cp ~profile in
      let off = tally_run (config ~telemetry:false) ~hub:false in
      let on = tally_run (config ~telemetry:false) ~hub:true in
      if off.fingerprint <> on.fingerprint then
        QCheck.Test.fail_reportf
          "%s: the hub changed the run\n off: %s\n on:  %s" label
          off.fingerprint on.fingerprint;
      let t = tally_run (config ~telemetry:true) ~hub:true in
      let total = List.fold_left (fun acc (_, n) -> acc + n) 0 t.from_events in
      if
        t.from_events <> t.from_dataplane
        || t.from_events <> t.from_telemetry
        || total <> t.dropped
      then
        QCheck.Test.fail_reportf
          "%s: drop tallies disagree\n events: %s\n dataplane: %s\n \
           telemetry: %s\n dropped: %d"
          label (show_causes t.from_events) (show_causes t.from_dataplane)
          (show_causes t.from_telemetry) t.dropped;
      true)

(* With telemetry on, the dataplane's drop list and the plane's drop
   totals (both read off the scenario's one ledger) agree cause for
   cause. *)
let test_scenario_drop_agreement () =
  let s =
    Core.Scenario.build
      { Core.Scenario.default_config with
        Core.Scenario.cp = Core.Scenario.Cp_pull_drop;
        Core.Scenario.telemetry = Some (config ()) }
  in
  let internet = Core.Scenario.internet s in
  let flow =
    Nettypes.Flow.create
      ~src:(Topology.Domain.host_eid internet.Topology.Builder.domains.(0) 0)
      ~dst:(Topology.Domain.host_eid internet.Topology.Builder.domains.(1) 0)
      ~src_port:1 ()
  in
  ignore (Core.Scenario.open_connection s ~flow ~data_packets:4 ());
  Core.Scenario.run s;
  let legacy = Lispdp.Dataplane.drop_causes (Core.Scenario.dataplane s) in
  let typed =
    List.map
      (fun (cause, n) -> (Netsim.Drop.label cause, n))
      (Netsim.Drop.totals
         (Netsim.Telemetry.ledger (Option.get (Core.Scenario.telemetry s))))
  in
  Alcotest.(check (list (pair string int)))
    "legacy string table and typed counters agree" legacy typed

(* ------------------------------------------------------------------ *)
(* The drop ledger against every counter it shadows                    *)
(* ------------------------------------------------------------------ *)

(* One random small scenario: a 3-5 domain internet under pull-queue,
   PCE or NERD, with any mix of control-plane loss, forged and replayed
   replies refused by the nonce check, a glean-capped EID-scan flood, a
   PCE crash window and a DNS-server outage window. *)
type shadow_case = {
  sh_seed : int;
  sh_domains : int;
  sh_cp : Core.Scenario.cp_kind;
  sh_loss : bool;
  sh_attack : bool;
  sh_flood : bool;
  sh_pce_crash : bool;
  sh_dns_outage : int option;  (* the domain whose DNS server is down *)
}

let shadow_cps =
  [| Core.Scenario.Cp_pull_queue 4;
     Core.Scenario.Cp_pce Core.Pce_control.default_options;
     Core.Scenario.Cp_nerd |]

let shadow_case_gen =
  QCheck.Gen.(
    let* sh_seed = int_range 1 1_000 in
    let* sh_domains = int_range 3 5 in
    let* cp = int_bound (Array.length shadow_cps - 1) in
    let* sh_loss = bool and* sh_attack = bool and* sh_flood = bool in
    let* sh_pce_crash = bool in
    let+ sh_dns_outage = opt (int_bound (sh_domains - 1)) in
    { sh_seed; sh_domains; sh_cp = shadow_cps.(cp); sh_loss; sh_attack;
      sh_flood; sh_pce_crash; sh_dns_outage })

let show_shadow_case c =
  Printf.sprintf
    "seed %d, %d domains, %s, loss %b, spoof/replay %b, flood %b, pce crash \
     %b, dns outage %s"
    c.sh_seed c.sh_domains (Core.Scenario.cp_label c.sh_cp) c.sh_loss
    c.sh_attack c.sh_flood c.sh_pce_crash
    (match c.sh_dns_outage with Some d -> string_of_int d | None -> "none")

let shadow_config c ~telemetry =
  let module S = Core.Scenario in
  let windows =
    (if c.sh_pce_crash then [ (Netsim.Lifecycle.Pce 1, 0.0, 1.5) ] else [])
    @
    match c.sh_dns_outage with
    | Some d -> [ (Netsim.Lifecycle.Dns_server d, 0.1, 0.6) ]
    | None -> []
  in
  let armed = c.sh_attack || c.sh_flood in
  { S.default_config with
    S.seed = c.sh_seed;
    topology =
      `Random
        { Topology.Builder.default_params with
          Topology.Builder.domain_count = c.sh_domains; provider_count = 3;
          borders_per_domain = 2; hosts_per_domain = 2 };
    cp = c.sh_cp;
    telemetry = (if telemetry then Some (config ()) else None);
    cp_faults =
      (if c.sh_loss then Some { S.default_cp_faults with S.cp_loss = 0.2 }
       else None);
    node_faults =
      (if windows = [] then None
       else Some { S.default_node_faults with S.node_windows = windows });
    attack =
      (if armed then
         Some
           { S.default_attack with
             S.atk_spoof = (if c.sh_attack then 0.5 else 0.0);
             atk_replay = (if c.sh_attack then 0.5 else 0.0);
             atk_flood_rate = (if c.sh_flood then 300.0 else 0.0);
             atk_flood_until = 0.5; atk_flood_victim = 1 }
       else None);
    auth =
      (if armed then
         Some
           { S.default_auth with
             S.auth_nonce = c.sh_attack;
             auth_glean_cap = (if c.sh_flood then Some 4 else None) }
       else None) }

(* Twelve flows between random hosts, 50 ms apart. *)
let shadow_run c ~telemetry ~hub =
  let s = Core.Scenario.build (shadow_config c ~telemetry) in
  let events =
    if hub then begin
      let sink, events = Obs.Hub.memory_sink () in
      Obs.Hub.add_sink (Core.Scenario.obs s) sink;
      Obs.Hub.set_enabled (Core.Scenario.obs s) true;
      events
    end
    else fun () -> []
  in
  let traffic =
    Workload.Traffic.create
      ~rng:(Netsim.Rng.split (Core.Scenario.rng s))
      ~internet:(Core.Scenario.internet s) ()
  in
  for i = 0 to 11 do
    ignore
      (Netsim.Engine.schedule_at (Core.Scenario.engine s)
         ~time:(float_of_int i *. 0.05) (fun () ->
           let flow = Workload.Traffic.random_flow traffic () in
           ignore (Core.Scenario.open_connection s ~flow ~data_packets:4 ())))
  done;
  Core.Scenario.run s;
  (s, events ())

(* Each rejection cause against the domain counter bumped at the same
   site, the packet causes against the dataplane's [dropped], and (with
   the hub on) the [Packet_drop] events against [drop_causes].  Returns
   the first disagreement. *)
let scenario_drops s =
  Topology.Graph.drops (Core.Scenario.internet s).Topology.Builder.graph

let shadow_violations s events =
  let count = Netsim.Drop.count (scenario_drops s) in
  let dp = Core.Scenario.dataplane s in
  let pulls =
    Core.Scenario.cp_stats s
    :: Option.to_list
         (Option.map Mapsys.Pull.stats (Core.Scenario.fallback_pull s))
  in
  let sum f = List.fold_left (fun acc st -> acc + f st) 0 pulls in
  let laws =
    [ ( "cp-message-loss = Faults.losses",
        count Netsim.Drop.Cp_message_loss,
        Option.fold ~none:0 ~some:Netsim.Faults.losses
          (Core.Scenario.faults s) );
      ( "outage-failure = outage_failures",
        count Netsim.Drop.Outage_failure,
        (Dnssim.System.counters (Core.Scenario.dns s))
          .Dnssim.System.outage_failures );
      ( "spoofed-reply-rejected = spoofed_rejected",
        count Netsim.Drop.Spoofed_reply_rejected,
        sum (fun st -> st.Mapsys.Cp_stats.spoofed_rejected) );
      ( "replayed-reply-rejected = replayed_rejected",
        count Netsim.Drop.Replayed_reply_rejected,
        sum (fun st -> st.Mapsys.Cp_stats.replayed_rejected) );
      ( "glean-admission-rejected = glean_rejections",
        count Netsim.Drop.Glean_admission_rejected,
        (Lispdp.Dataplane.cache_stats_totals dp)
          .Lispdp.Map_cache.glean_rejections );
      ( "packet causes = dropped",
        List.fold_left
          (fun acc c -> if Netsim.Drop.is_packet c then acc + count c else acc)
          0 Netsim.Drop.all,
        (Lispdp.Dataplane.counters dp).Lispdp.Dataplane.dropped ) ]
  in
  let events_ok =
    events = []
    || List.sort compare (Lispdp.Dataplane.drop_causes dp)
       = count_causes
           (List.filter_map
              (fun e ->
                match e.Obs.Event.kind with
                | Obs.Event.Packet_drop { cause } -> Some cause
                | _ -> None)
              events)
  in
  List.filter (fun (_, got, want) -> got <> want) laws
  @ if events_ok then [] else [ ("Packet_drop events = drop_causes", 0, 0) ]

let prop_ledger_shadows_counters =
  QCheck.Test.make ~count:40 ~name:"drop ledger = every counter it shadows"
    (QCheck.make ~print:show_shadow_case shadow_case_gen)
    (fun c ->
      let off, _ = shadow_run c ~telemetry:false ~hub:false in
      let on, events = shadow_run c ~telemetry:true ~hub:true in
      List.iter
        (fun (s, events, mode) ->
          match shadow_violations s events with
          | [] -> ()
          | (law, got, want) :: _ ->
              QCheck.Test.fail_reportf "%s, telemetry %s: %s: ledger %d, \
                                        counter %d"
                (show_shadow_case c) mode law got want)
        [ (off, [], "off"); (on, events, "on") ];
      let ledger s = Netsim.Drop.by_node (scenario_drops s) in
      if ledger off <> ledger on then
        QCheck.Test.fail_reportf "%s: telemetry changed the ledger"
          (show_shadow_case c);
      true)

(* ------------------------------------------------------------------ *)
(* Telemetry and security rows: BENCH.json round-trip                  *)
(* ------------------------------------------------------------------ *)

(* Record [rows] under [block] as the TE1 / SEC experiments do, emit the
   block as the runner does, and parse the JSON text back. *)
let check_block_round_trip block rows =
  Experiments.Bench_row.reset ();
  List.iter (Experiments.Bench_row.record block) rows;
  let recorded = Experiments.Bench_row.blocks () in
  Experiments.Bench_row.reset ();
  Alcotest.(check (list string)) "one block" [ block ] (List.map fst recorded);
  let rows_back = List.assoc block recorded in
  let json = Obs.Json.List (List.map Experiments.Bench_row.to_json rows_back) in
  match Obs.Json.of_string (Obs.Json.to_string json) with
  | Error msg -> Alcotest.failf "round-trip parse failed: %s" msg
  | Ok (Obs.Json.List items) ->
      Alcotest.(check bool) "rows survive the JSON round-trip" true
        (List.map Experiments.Bench_row.of_json items
        = List.map Option.some rows)
  | Ok _ -> Alcotest.fail "block is not a JSON list"

let test_record_round_trip () =
  let f x = Obs.Json.Float x in
  let shares l = Obs.Json.List (List.map f l) in
  check_block_round_trip "telemetry"
    [ { Experiments.Bench_row.run = "pce/s21"; ok = true;
        fields =
          [ ("cp", Obs.Json.String "pce"); ("providers", Obs.Json.Int 4);
            ("in_share", shares [ 0.30; 0.23; 0.23; 0.24 ]);
            ("jain_in", f 0.986); ("jain_out", f 0.805);
            ("ratio_in", f 1.322); ("drops", Obs.Json.Int 0);
            ("threshold", f 0.8) ] };
      (* ratio_in omitted: the least-loaded provider carried nothing. *)
      { Experiments.Bench_row.run = "symmetric/s21"; ok = true;
        fields =
          [ ("cp", Obs.Json.String "symmetric"); ("providers", Obs.Json.Int 4);
            ("in_share", shares [ 0.53; 0.15; 0.15; 0.17 ]);
            ("jain_in", f 0.698); ("jain_out", f 0.821);
            ("drops", Obs.Json.Int 3); ("threshold", f 0.0) ] } ]

let test_security_record_round_trip () =
  let security ~run ~cp ~attempted ~accepted ~success ~gleaned
      ~glean_rejected ~pollution ~setup_mean ~gate =
    { Experiments.Bench_row.run; ok = true;
      fields =
        [ ("cp", Obs.Json.String cp); ("attempted", Obs.Json.Int attempted);
          ("accepted", Obs.Json.Int accepted);
          ("success", Obs.Json.Float success);
          ("gleaned", Obs.Json.Int gleaned);
          ("glean_rejected", Obs.Json.Int glean_rejected);
          ("pollution", Obs.Json.Float pollution);
          ("setup_mean", Obs.Json.Float setup_mean);
          ("gate", Obs.Json.String gate) ] }
  in
  check_block_round_trip "security"
    [ security ~run:"pull/s41" ~cp:"pull-queue" ~attempted:210 ~accepted:210
        ~success:1.0 ~gleaned:12 ~glean_rejected:0 ~pollution:0.25
        ~setup_mean:0.35129 ~gate:"success >= 0.90";
      security ~run:"flood-cap/s43" ~cp:"pull-drop" ~attempted:13075
        ~accepted:12 ~success:0.0 ~gleaned:16 ~glean_rejected:15298
        ~pollution:0.353 ~setup_mean:0.21993 ~gate:"-" ]

(* json_snapshot must always be printable and re-parseable, including
   the degenerate zero-traffic balance (infinite ratios become null). *)
let test_json_snapshot_well_formed () =
  let tm = plane () in
  Netsim.Telemetry.register_uplink tm ~link:0 ~provider:0 ~egress_dir:0;
  Netsim.Telemetry.touch tm ~now:0.2;
  Netsim.Telemetry.on_link tm ~link:0 ~dir:1 ~bytes:100;
  Netsim.Drop.record (Netsim.Telemetry.ledger tm) ~node:2
    Netsim.Drop.No_receiver;
  let text = Obs.Json.to_string (Obs.Telemetry.json_snapshot ~series:true tm) in
  (match Obs.Json.of_string text with
  | Error msg -> Alcotest.failf "snapshot does not re-parse: %s" msg
  | Ok json ->
      Alcotest.(check (option int)) "drop count present" (Some 1)
        (Option.bind (Obs.Json.member "dropped" json) Obs.Json.to_int_opt))

(* ------------------------------------------------------------------ *)
(* Conservation laws                                                   *)
(* ------------------------------------------------------------------ *)

(* A small internet in pce-flap's shape: PCE with rebalancing
   monitors, border 0 of domain [k mod domains] failing for 0.5 s every
   second, and [flows] flows arriving at 20/s. *)
let flap_run ~seed ~domains ~flows =
  let s =
    Core.Scenario.build
      { Core.Scenario.default_config with
        Core.Scenario.seed;
        topology =
          `Random
            { Topology.Builder.default_params with
              Topology.Builder.domain_count = domains; provider_count = 4;
              borders_per_domain = 3; hosts_per_domain = 3 };
        cp = Core.Scenario.Cp_pce Core.Pce_control.default_options;
        telemetry = Some (config ()) }
  in
  let engine = Core.Scenario.engine s in
  let at time f = ignore (Netsim.Engine.schedule_at engine ~time f) in
  let duration = float_of_int flows /. 20.0 in
  Option.iter
    (fun pce ->
      Core.Pce_control.run_monitoring pce ~interval:0.5
        ~until:(duration +. 5.0) ~rebalance:true)
    (Core.Scenario.pce s);
  for k = 1 to int_of_float duration do
    let domain = k mod domains and time = float_of_int k in
    at time (fun () -> Core.Scenario.fail_uplink s ~domain ~border:0);
    at (time +. 0.5) (fun () ->
        Core.Scenario.restore_uplink s ~domain ~border:0)
  done;
  let traffic =
    Workload.Traffic.create
      ~rng:(Netsim.Rng.split (Core.Scenario.rng s))
      ~internet:(Core.Scenario.internet s) ()
  in
  for i = 0 to flows - 1 do
    at (float_of_int i /. 20.0) (fun () ->
        let flow = Workload.Traffic.random_flow traffic () in
        ignore (Core.Scenario.open_connection s ~flow ~data_packets:8 ()))
  done;
  Core.Scenario.run s;
  s

(* The laws that tie the plane to the counters it shadows.  Each
   returns the first violation found. *)
let conservation_violations s =
  let tm = Option.get (Core.Scenario.telemetry s) in
  let internet = Core.Scenario.internet s in
  let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l in
  let links =
    List.concat_map
      (fun l ->
        let open Topology.Link in
        [ (Printf.sprintf "link %d a->b" (id l),
           (Netsim.Telemetry.link_stat tm ~link:(id l) ~dir:0).st_bytes,
           bytes_from l (a l));
          (Printf.sprintf "link %d b->a" (id l),
           (Netsim.Telemetry.link_stat tm ~link:(id l) ~dir:1).st_bytes,
           bytes_from l (b l)) ])
      (Topology.Graph.links internet.Topology.Builder.graph)
  in
  let borders =
    Array.to_list internet.Topology.Builder.domains
    |> List.concat_map (fun d -> Array.to_list d.Topology.Domain.borders)
  in
  let provider_ids =
    List.sort_uniq compare
      (List.map (fun b -> b.Topology.Domain.provider) borders)
  in
  let uplink_bytes p ~egress =
    sum
      (fun b ->
        let uplink = b.Topology.Domain.uplink
        and router = b.Topology.Domain.router in
        Topology.Link.bytes_from uplink
          (if egress then router else Topology.Link.other_end uplink router))
      (List.filter (fun b -> b.Topology.Domain.provider = p) borders)
  in
  let provider_laws =
    List.concat_map
      (fun p ->
        [ (Printf.sprintf "provider %d in" p,
           (Netsim.Telemetry.provider_stat tm ~provider:p `In).st_bytes,
           uplink_bytes p ~egress:false);
          (Printf.sprintf "provider %d out" p,
           (Netsim.Telemetry.provider_stat tm ~provider:p `Out).st_bytes,
           uplink_bytes p ~egress:true) ])
      provider_ids
  in
  let dp = Lispdp.Dataplane.counters (Core.Scenario.dataplane s) in
  let node kind f =
    sum (fun n -> f (Netsim.Telemetry.node_stat tm ~node:n kind))
      (Netsim.Telemetry.nodes tm)
  in
  let observed = Netsim.Telemetry.flow_packets_observed tm in
  let node_laws =
    Netsim.Telemetry.
      [ ("node tx pkts = flow packets", node `Tx (fun st -> st.st_pkts),
         observed);
        ("flow packets = sent", observed, dp.Lispdp.Dataplane.sent);
        ("node rx pkts = delivered", node `Rx (fun st -> st.st_pkts),
         dp.Lispdp.Dataplane.delivered);
        ("node rx bytes = delivered bytes", node `Rx (fun st -> st.st_bytes),
         dp.Lispdp.Dataplane.delivered_bytes);
        ("providers registered", List.length (providers tm),
         List.length provider_ids) ]
  in
  List.filter (fun (_, got, want) -> got <> want)
    (links @ provider_laws @ node_laws)

let prop_conservation =
  QCheck.Test.make ~count:12
    ~name:"plane conserves link, provider and node bytes under flaps"
    QCheck.(pair (int_range 1 1_000) (int_range 3 6))
    (fun (seed, domains) ->
      let s = flap_run ~seed ~domains ~flows:40 in
      let dp = Lispdp.Dataplane.counters (Core.Scenario.dataplane s) in
      if dp.Lispdp.Dataplane.delivered = 0 then
        QCheck.Test.fail_reportf "seed %d: nothing delivered" seed;
      match conservation_violations s with
      | [] -> true
      | (law, got, want) :: _ ->
          QCheck.Test.fail_reportf "seed %d, %d domains: %s: plane %d, \
                                    counter %d" seed domains law got want)

(* ------------------------------------------------------------------ *)
(* One plane per scenario                                              *)
(* ------------------------------------------------------------------ *)

(* Figure-1 PCE with three connections. *)
let figure1_pce () =
  let s =
    Core.Scenario.build
      { Core.Scenario.default_config with
        Core.Scenario.telemetry = Some (config ()) }
  in
  ignore (open_three s);
  s

(* A 6-domain random internet under pull-queue, with border 0 of
   domain 1 down from 0.3 s to 0.8 s. *)
let random_pull_flap () =
  let s =
    Core.Scenario.build
      { Core.Scenario.default_config with
        Core.Scenario.seed = 7;
        topology =
          `Random
            { Topology.Builder.default_params with
              Topology.Builder.domain_count = 6; hosts_per_domain = 2 };
        cp = Core.Scenario.Cp_pull_queue 8;
        telemetry = Some (config ()) }
  in
  let engine = Core.Scenario.engine s in
  let at time f = ignore (Netsim.Engine.schedule_at engine ~time f) in
  at 0.3 (fun () -> Core.Scenario.fail_uplink s ~domain:1 ~border:0);
  at 0.8 (fun () -> Core.Scenario.restore_uplink s ~domain:1 ~border:0);
  let traffic =
    Workload.Traffic.create
      ~rng:(Netsim.Rng.split (Core.Scenario.rng s))
      ~internet:(Core.Scenario.internet s) ()
  in
  for i = 0 to 19 do
    at (float_of_int i *. 0.05) (fun () ->
        let flow = Workload.Traffic.random_flow traffic () in
        ignore (Core.Scenario.open_connection s ~flow ~data_packets:4 ()))
  done;
  s

(* Run [scenarios] in alternating 50 ms steps until all drain, then
   render each one's series snapshot. *)
let run_in_steps scenarios =
  let drained s = Netsim.Engine.pending (Core.Scenario.engine s) = 0 in
  let rec step k =
    if not (List.for_all drained scenarios) then begin
      let until = 0.05 *. float_of_int k in
      List.iter (fun s -> Core.Scenario.run ~until s) scenarios;
      step (k + 1)
    end
  in
  step 1;
  List.map
    (fun s ->
      Obs.Json.to_string
        (Obs.Telemetry.json_snapshot ~series:true
           (Option.get (Core.Scenario.telemetry s))))
    scenarios

let test_planes_independent () =
  let solo make = List.hd (run_in_steps [ make () ]) in
  let fig_first = solo figure1_pce and rand_first = solo random_pull_flap in
  let together = run_in_steps [ figure1_pce (); random_pull_flap () ] in
  let fig_last = solo figure1_pce and rand_last = solo random_pull_flap in
  Alcotest.(check string) "figure-1 interleaved = solo first" fig_first
    (List.nth together 0);
  Alcotest.(check string) "random interleaved = solo first" rand_first
    (List.nth together 1);
  Alcotest.(check string) "figure-1 solo last = solo first" fig_first fig_last;
  Alcotest.(check string) "random solo last = solo first" rand_first rand_last

(* A plane is sized by its own graph: the 200th build of one config
   costs the major heap what the 10th did.  A build's major-heap words
   are what it allocates there directly plus what survives into the
   collection right after it. *)
let test_build_cost_flat () =
  let config =
    { Core.Scenario.default_config with
      Core.Scenario.topology =
        `Random
          { Topology.Builder.default_params with
            Topology.Builder.domain_count = 8; borders_per_domain = 3 };
      telemetry = Some Netsim.Telemetry.default_config }
  in
  let major_words () =
    let _, _, major = Gc.counters () in
    major
  in
  let words =
    Array.init 200 (fun _ ->
        Gc.minor ();
        let w0 = major_words () in
        let s = Core.Scenario.build config in
        Gc.minor ();
        let w = major_words () -. w0 in
        ignore (Sys.opaque_identity s);
        w)
  in
  let w10 = words.(9) and w200 = words.(199) in
  Alcotest.(check bool)
    (Printf.sprintf "build 200 (%.0f words) within 5%% of build 10 (%.0f)"
       w200 w10)
    true
    (Float.abs (w200 -. w10) <= 0.05 *. w10)

let () =
  Alcotest.run "telemetry"
    [
      ( "windows",
        [
          Alcotest.test_case "rotation" `Quick test_window_rotation;
          Alcotest.test_case "series ascending" `Quick test_series_ascending;
        ] );
      ( "sketch",
        [
          Alcotest.test_case "error bounds" `Quick test_sketch_error_bounds;
          Alcotest.test_case "exact under capacity" `Quick
            test_sketch_exact_under_capacity;
        ] );
      ( "drops",
        [
          Alcotest.test_case "label round-trip" `Quick
            test_drop_label_round_trip;
          Alcotest.test_case "labels pinned" `Quick test_drop_labels_pinned;
          Alcotest.test_case "per-node attribution" `Quick
            test_drop_attribution;
          Alcotest.test_case "scenario agreement" `Quick
            test_scenario_drop_agreement;
        ] );
      ( "balance",
        [ Alcotest.test_case "TE metrics" `Quick test_balance_metrics ] );
      ( "runtime",
        [
          Alcotest.test_case "disabled path allocation-free" `Quick
            test_disabled_path_allocation_free;
          Alcotest.test_case "planes independent" `Quick
            test_planes_independent;
          Alcotest.test_case "build cost flat" `Quick test_build_cost_flat;
        ] );
      ( "serialisation",
        [
          Alcotest.test_case "record round-trip" `Quick test_record_round_trip;
          Alcotest.test_case "security record round-trip" `Quick
            test_security_record_round_trip;
          Alcotest.test_case "snapshot well-formed" `Quick
            test_json_snapshot_well_formed;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_telemetry_preserves_output;
            prop_disarmed_adversary_preserves_output;
            prop_hub_and_drop_tallies; prop_ledger_shadows_counters;
            prop_conservation ] );
    ]
