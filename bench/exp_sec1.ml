(* SEC1 — mapping-poisoning success under an off-path attacker: plain
   pull vs nonce+signature-armed pull vs PCE push.

   Every map-request of the pull cells is raced by a forged Map-Reply
   and a replayed stale reply (spoof and replay rates 1.0).  Without
   countermeasures every race is lost: the attacker's RLOC lands in the
   ITR's cache and the poisoning success rate is 1.  With the
   unpredictable-nonce echo and signature verification armed the blind
   off-path forgeries are all refused.  The PCE cell pushes mappings
   over its own channel — there is no pull resolution to race, so the
   attacker never even attempts, the structural advantage the paper's
   control-plane split buys.

   Two attack-free cells measure the price of the signature
   countermeasure: the per-reply verification cost must surface as a
   strictly larger mean connection setup (the T_map_resol tax — the
   per-cell [run_label]s also split the BENCH.json latency block so the
   t_map_resol delta is gated byte-for-byte against the baseline).

   Each cell records a "security" {!Bench_row}; `bench --check` enforces
   every gate and the determinism of the measured rates. *)

open Core

let id = "sec1"
let title = "SEC1: mapping-poisoning success, pull vs authenticated pull vs PCE push"

let seed = 41
let params = Topology.Builder.default_params

(* The full map-plane attack: every resolution raced by a forged reply
   and a replayed stale reply.  (DNS poisoning is SEC-tested at the
   unit level; keeping it out of SEC1 keeps the cell a pure map-plane
   comparison — the PCE's piggybacked channel would otherwise mix the
   two planes' verdicts.) *)
let armed_attack =
  { Scenario.default_attack with Scenario.atk_spoof = 1.0; atk_replay = 1.0 }

let armed_auth =
  { Scenario.default_auth with Scenario.auth_nonce = true; auth_sig = true }

let sig_only_auth = { Scenario.default_auth with Scenario.auth_sig = true }

type cfg = {
  label : string;
  cp_label : string;
  cp : Scenario.cp_kind;
  attack : Scenario.attack_profile option;
  auth : Scenario.auth_profile;
}

(* Pull cells run in queue mode (hold the first packet while the
   mapping resolves) so resolution latency — and therefore both the
   poisoning damage and the signature verification cost — lands
   directly in T_setup instead of hiding behind drop-mode's 1 s SYN
   retransmission. *)
let pull = Scenario.Cp_pull_queue 32

let cfgs =
  [ { label = "pull"; cp_label = "pull-queue"; cp = pull;
      attack = Some armed_attack; auth = Scenario.default_auth };
    { label = "pull-auth"; cp_label = "pull-queue"; cp = pull;
      attack = Some armed_attack; auth = armed_auth };
    { label = "pce"; cp_label = "pce";
      cp = Scenario.Cp_pce Pce_control.default_options;
      attack = Some armed_attack; auth = Scenario.default_auth };
    { label = "pull-clean"; cp_label = "pull-queue"; cp = pull;
      attack = None; auth = Scenario.default_auth };
    { label = "pull-sig"; cp_label = "pull-queue"; cp = pull;
      attack = None; auth = sig_only_auth } ]

type cell = {
  c_attempted : int;
  c_accepted : int;
  c_success : float;
  c_gleaned : int;
  c_glean_rejected : int;
  c_pollution : float;
  c_setup_mean : float;
}

let measure cfg =
  let config =
    { Scenario.default_config with
      Scenario.cp = cfg.cp; topology = `Random params; seed;
      attack = cfg.attack; auth = cfg.auth;
      run_label = Some (Printf.sprintf "sec1-%s" cfg.label) }
  in
  let spec =
    { (Harness.default_spec config) with Harness.flows = 400; rate = 50.0 }
  in
  let r = Harness.run ~label:cfg.label spec in
  let scenario = r.Harness.scenario in
  let cp = Harness.cp_stats r in
  let dnsc = Dnssim.System.counters (Scenario.dns scenario) in
  let attempted =
    match Scenario.adversary scenario with
    | Some adv ->
        Netsim.Adversary.forged_replies adv
        + Netsim.Adversary.replayed_replies adv
        + Netsim.Adversary.poisoned_answers adv
    | None -> 0
  in
  let accepted =
    cp.Mapsys.Cp_stats.spoofed_accepted
    + cp.Mapsys.Cp_stats.replayed_accepted
    + dnsc.Dnssim.System.poisoned_accepted
  in
  let dp = Scenario.dataplane scenario in
  let gleaned = Lispdp.Dataplane.gleaned_total dp in
  let entries = Lispdp.Dataplane.cache_entries_total dp in
  { c_attempted = attempted; c_accepted = accepted;
    c_success =
      (if attempted = 0 then 0.0
       else float_of_int accepted /. float_of_int attempted);
    c_gleaned = gleaned;
    c_glean_rejected =
      (Lispdp.Dataplane.cache_stats_totals dp).Lispdp.Map_cache.glean_rejections;
    c_pollution =
      (if entries = 0 then 0.0
       else float_of_int gleaned /. float_of_int entries);
    c_setup_mean = Harness.mean r.Harness.setups }

(* Gates.  The ordering claim — plain pull > armed pull >= PCE push —
   falls out of the per-cell bounds: the unarmed cell must lose at
   least 90% of the races it faces, while a blind forgery has no
   business beating a 2^32 nonce plus a signature (and the PCE faces
   no race at all), so both armed cells must sit at exactly zero. *)
let plain_floor = 0.9
let zero = 1e-12

let gate_of cells cfg (c : cell) =
  match cfg.label with
  | "pull" ->
      (Printf.sprintf "success >= %.2f" plain_floor, c.c_success >= plain_floor)
  | "pull-auth" | "pce" -> ("success = 0", c.c_success <= zero)
  | "pull-sig" -> (
      (* The signature tax: strictly slower than the identical
         attack-free run without verification. *)
      match List.assoc_opt "pull-clean" cells with
      | Some (clean : cell) ->
          ("setup > clean", c.c_setup_mean > clean.c_setup_mean)
      | None -> ("setup > clean", false))
  | _ -> ("-", true)

let tables () =
  let cells = List.map (fun cfg -> (cfg.label, measure cfg)) cfgs in
  let table =
    Metrics.Table.create ~title
      ~columns:
        [ "cell"; "cp"; "attempts"; "accepted"; "success"; "T_setup mean";
          "gate" ]
  in
  List.iter2
    (fun cfg (_, c) ->
      let gate, ok = gate_of cells cfg c in
      Bench_row.record "security"
        { Bench_row.run = Printf.sprintf "%s/s%d" cfg.label seed; ok;
          fields =
            [ ("cp", Obs.Json.String cfg.cp_label);
              ("attempted", Obs.Json.Int c.c_attempted);
              ("accepted", Obs.Json.Int c.c_accepted);
              ("success", Obs.Json.Float c.c_success);
              ("gleaned", Obs.Json.Int c.c_gleaned);
              ("glean_rejected", Obs.Json.Int c.c_glean_rejected);
              ("pollution", Obs.Json.Float c.c_pollution);
              ("setup_mean", Obs.Json.Float c.c_setup_mean);
              ("gate", Obs.Json.String gate) ] };
      Metrics.Table.add_row table
        [ cfg.label; cfg.cp_label; string_of_int c.c_attempted;
          string_of_int c.c_accepted;
          Metrics.Table.cell_float c.c_success;
          Metrics.Table.cell_ms c.c_setup_mean;
          (gate ^ if ok then "" else "  FAILED") ])
    cfgs cells;
  [ table ]

let print () = List.iter Metrics.Table.print (tables ())
