(* SEC2 — graceful degradation under a cache-flooding EID scan.

   An off-path attacker sprays spoofed data packets over hundreds of
   forged source EIDs at the victim domain's border routers.  Each scan
   packet gleans a host route, and with bounded caches (LRU, 48 entries
   per router here) the scan churns the victim's map-caches: the
   attacker's forged EIDs crowd out genuine mappings.  Pollution is
   measured honestly — the fraction of the victim's live cache entries
   owned by the attacker (probing for the scan's {!Scenario.flood_eid}
   identities), not the gleaned share, since reverse-path gleaning
   legitimately fills these caches even in the clean cell.

   The countermeasure is the gleaned-entry admission cap: gleaned
   provenance may hold at most [glean_cap] live slots per cache, so the
   scan saturates its quota and bounces off (counted and telemetered as
   glean-admission-rejected), so the attacker can never hold more cache
   lines than the summed per-router quota.  The cap is not free:
   genuine reverse-path gleans beyond the quota are refused too,
   forcing the victim's ETRs to pull-resolve return mappings — the
   T_setup tax the capped cell must (and does) show over the clean
   reference.  Bounded state, paid for in latency: graceful degradation
   rather than open-ended pollution.

   Each cell records a "security" {!Bench_row}; `bench --check` enforces
   the gates and determinism. *)

open Core

let id = "sec2"
let title = "SEC2: cache pollution and setup tax under an EID-scan flood"

let seed = 43
let victim = 0
let cache_capacity = 48
let glean_cap = 8
let flood_eids = 512
let params = Topology.Builder.default_params

let flood_attack =
  { Scenario.default_attack with
    Scenario.atk_flood_rate = 2000.0; atk_flood_eids = flood_eids;
    atk_flood_from = 0.5; atk_flood_until = 7.0; atk_flood_victim = victim }

let capped_auth =
  { Scenario.default_auth with Scenario.auth_glean_cap = Some glean_cap }

type cfg = {
  label : string;
  attack : Scenario.attack_profile option;
  auth : Scenario.auth_profile;
}

let cfgs =
  [ { label = "clean"; attack = None; auth = Scenario.default_auth };
    { label = "flood"; attack = Some flood_attack; auth = Scenario.default_auth };
    { label = "flood-cap"; attack = Some flood_attack; auth = capped_auth } ]

type cell = {
  c_attempted : int;  (* scan packets the adversary sprayed *)
  c_gleaned : int;  (* live gleaned entries in the victim's caches *)
  c_glean_rejected : int;
  c_attacker : int;  (* live entries for the scan's forged EIDs *)
  c_pollution : float;  (* attacker-owned fraction of the victim's caches *)
  c_setup_mean : float;
}

(* Pollution is measured where the scan lands: the victim domain's
   border caches, not the whole internet's. *)
let victim_caches scenario =
  let dp = Scenario.dataplane scenario in
  let internet = Scenario.internet scenario in
  Array.map
    (fun r -> r.Lispdp.Dataplane.cache)
    (Lispdp.Dataplane.routers_of_domain dp
       internet.Topology.Builder.domains.(victim))

let attacker_entries ~now caches =
  let count = ref 0 in
  Array.iter
    (fun cache ->
      for idx = 0 to flood_eids - 1 do
        if Lispdp.Map_cache.contains cache ~now (Scenario.flood_eid idx) then
          incr count
      done)
    caches;
  !count

let measure cfg =
  let config =
    { Scenario.default_config with
      Scenario.cp = Scenario.Cp_pull_drop; topology = `Random params; seed;
      cache_capacity; attack = cfg.attack; auth = cfg.auth;
      run_label = Some (Printf.sprintf "sec2-%s" cfg.label) }
  in
  let spec =
    { (Harness.default_spec config) with
      Harness.flows = 300; rate = 50.0; hotspots = Some [ (victim, 1.0) ];
      sources = Some [ 1; 2; 3; 4; 5; 6; 7; 8; 9 ] }
  in
  let r = Harness.run ~label:cfg.label spec in
  let scenario = r.Harness.scenario in
  let now = Netsim.Engine.now (Scenario.engine scenario) in
  let caches = victim_caches scenario in
  let attacker = attacker_entries ~now caches in
  let gleaned =
    Array.fold_left (fun a c -> a + Lispdp.Map_cache.gleaned c) 0 caches
  in
  let entries =
    Array.fold_left (fun a c -> a + Lispdp.Map_cache.length c) 0 caches
  in
  let rejected =
    Array.fold_left
      (fun a c -> a + (Lispdp.Map_cache.stats c).Lispdp.Map_cache.glean_rejections)
      0 caches
  in
  { c_attempted =
      (match Scenario.adversary scenario with
      | Some adv -> Netsim.Adversary.flood_packets adv
      | None -> 0);
    c_gleaned = gleaned; c_glean_rejected = rejected; c_attacker = attacker;
    c_pollution =
      (if entries = 0 then 0.0
       else float_of_int attacker /. float_of_int entries);
    c_setup_mean = Harness.mean r.Harness.setups }

let pollution_floor = 0.5  (* the uncapped flood must dominate the caches *)

(* The cap's bound is absolute: at most [glean_cap] gleaned slots per
   victim border cache, so the attacker can never hold more lines than
   the summed quota — however long or fast the scan runs. *)
let cap_total = glean_cap * params.Topology.Builder.borders_per_domain

let gate_of cells cfg (c : cell) =
  let clean = List.assoc_opt "clean" cells in
  match cfg.label with
  | "flood" ->
      ( Printf.sprintf "pollution >= %.2f" pollution_floor,
        c.c_pollution >= pollution_floor )
  | "flood-cap" ->
      ( Printf.sprintf "attacker <= %d & rejects > 0 & setup > clean"
          cap_total,
        c.c_attacker <= cap_total
        && c.c_glean_rejected > 0
        && (match clean with
           | Some (cl : cell) -> c.c_setup_mean > cl.c_setup_mean
           | None -> false) )
  | _ -> ("-", true)

let tables () =
  let cells = List.map (fun cfg -> (cfg.label, measure cfg)) cfgs in
  let table =
    Metrics.Table.create ~title
      ~columns:
        [ "cell"; "scan pkts"; "gleaned"; "rejected"; "attacker";
          "pollution"; "T_setup mean"; "gate" ]
  in
  List.iter2
    (fun cfg (_, c) ->
      let gate, ok = gate_of cells cfg c in
      Bench_row.record "security"
        { Bench_row.run = Printf.sprintf "%s/s%d" cfg.label seed; ok;
          fields =
            [ ("cp", Obs.Json.String "pull-drop");
              ("attempted", Obs.Json.Int c.c_attempted);
              (* "accepted" for a scan: forged identities that actually
                 hold a victim cache line at the end of the run. *)
              ("accepted", Obs.Json.Int c.c_attacker);
              ("success", Obs.Json.Float 0.0);
              ("gleaned", Obs.Json.Int c.c_gleaned);
              ("glean_rejected", Obs.Json.Int c.c_glean_rejected);
              ("pollution", Obs.Json.Float c.c_pollution);
              ("setup_mean", Obs.Json.Float c.c_setup_mean);
              ("gate", Obs.Json.String gate) ] };
      Metrics.Table.add_row table
        [ cfg.label; string_of_int c.c_attempted; string_of_int c.c_gleaned;
          string_of_int c.c_glean_rejected; string_of_int c.c_attacker;
          Metrics.Table.cell_float c.c_pollution;
          Metrics.Table.cell_ms c.c_setup_mean;
          (gate ^ if ok then "" else "  FAILED") ])
    cfgs cells;
  [ table ]

let print () = List.iter Metrics.Table.print (tables ())
