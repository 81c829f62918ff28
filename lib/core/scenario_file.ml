type workload = {
  flows : int;
  rate : float;
  zipf_alpha : float;
  data_packets : int;
  data_bytes : int;
  hotspot : int option;
}

type t = { config : Scenario.config; workload : workload }

let random_params =
  { Topology.Builder.default_params with Topology.Builder.domain_count = 16 }

let default =
  { config =
      { Scenario.default_config with Scenario.topology = `Random random_params };
    workload =
      { flows = 500; rate = 50.0; zipf_alpha = 0.9; data_packets = 8;
        data_bytes = 1200; hotspot = None } }

(* Where a value came from: error messages name its line and key. *)
type at = { line : int; key : string }

(* A parse in progress.  Every key that stands alone writes straight
   into [t]; the keys that combine are staged beside it and resolved by
   [finish]: the topology shape, crash windows still waiting for their
   pce-recover-at, and the domain ids, which can only be checked once
   the domain count is known. *)
type staged = {
  t : t;
  figure1 : bool;
  params : Topology.Builder.params;
  tier1 : (at * int) option;
  open_crashes : (int * float) list;  (* domain, crashed at *)
  domain_ids : (at * int) list;
}

exception Bad_line of int * string

let fail at message = raise (Bad_line (at.line, message))

(* ------------------------------------------------------------------ *)
(* Value readers                                                       *)
(* ------------------------------------------------------------------ *)

let int_in ~min ~max at value =
  match int_of_string_opt value with
  | Some v when v >= min && v <= max -> v
  | Some _ -> fail at (Printf.sprintf "%s out of [%d, %d]" at.key min max)
  | None ->
      fail at (Printf.sprintf "%s expects an integer, got %S" at.key value)

let float_min ?(finite = false) min at value =
  match float_of_string_opt value with
  | Some v when finite && v = infinity -> fail at (at.key ^ " must be finite")
  | Some v when v >= min -> v
  | Some _ -> fail at (Printf.sprintf "%s must be at least %g" at.key min)
  | None -> fail at (Printf.sprintf "%s expects a number, got %S" at.key value)

let probability at value =
  match float_of_string_opt value with
  | Some v when v >= 0.0 && v <= 1.0 -> v
  | Some _ -> fail at (at.key ^ " must be in [0, 1]")
  | None -> fail at (Printf.sprintf "%s expects a number, got %S" at.key value)

let on_off at = function
  | "on" | "true" | "1" -> true
  | "off" | "false" | "0" -> false
  | value -> fail at (Printf.sprintf "%s expects on/off, got %S" at.key value)

let domain at value st =
  let d = int_in ~min:0 ~max:9_999 at value in
  (d, { st with domain_ids = (at, d) :: st.domain_ids })

(* The space-separated fields of a multi-field value; [parse] has
   already checked that there are as many as the key's syntax names. *)
let fields value =
  String.split_on_char ' ' value
  |> List.filter (fun s -> s <> "")
  |> Array.of_list

let window at from_ until =
  let from_ = float_min 0.0 at from_ and until = float_min 0.0 at until in
  if until < from_ then fail at (at.key ^ " window ends before it starts");
  (from_, until)

let control_plane at = function
  | "pce" -> Scenario.Cp_pce Pce_control.default_options
  | "pull-drop" -> Scenario.Cp_pull_drop
  | "pull-queue" -> Scenario.Cp_pull_queue 32
  | "pull-smr" -> Scenario.Cp_pull_smr 32
  | "pull-detour" -> Scenario.Cp_pull_detour
  | "cons" -> Scenario.Cp_cons
  | "msmr" -> Scenario.Cp_msmr
  | "nerd" -> Scenario.Cp_nerd
  | other -> fail at (Printf.sprintf "unknown control plane %S" other)

let cache_policy at value =
  match Lispdp.Map_cache.policy_of_string value with
  | Some p -> p
  | None ->
      fail at (Printf.sprintf "unknown cache policy %S (lru, lfu, ttl-hybrid)" value)

(* ------------------------------------------------------------------ *)
(* Setters                                                             *)
(* ------------------------------------------------------------------ *)

let config f st = { st with t = { st.t with config = f st.t.config } }
let workload f st = { st with t = { st.t with workload = f st.t.workload } }
let params f st = { st with params = f st.params }

(* The cp-*, pce-* and attack-* keys each fill one optional profile,
   created from its default on first use; without any of its keys the
   profile stays [None] and the layer does not exist.  The auth-* keys
   edit the always-present countermeasure profile. *)
let some default f profile = Some (f (Option.value profile ~default))

let cp_faults f =
  config (fun c ->
      { c with cp_faults = some Scenario.default_cp_faults f c.cp_faults })

let node_faults f =
  config (fun c ->
      { c with node_faults = some Scenario.default_node_faults f c.node_faults })

let attack f =
  config (fun c -> { c with attack = some Scenario.default_attack f c.attack })

let auth f = config (fun c -> { c with auth = f c.auth })

(* The setter of a key that stands alone: [read] its value and [set] it
   into the record that [into] updates. *)
let field into read set at value = into (fun r -> set r (read at value))

let cp_script script =
  cp_faults (fun p -> { p with cp_scripts = p.cp_scripts @ [ script ] })

(* ------------------------------------------------------------------ *)
(* The key table                                                       *)
(* ------------------------------------------------------------------ *)

type key = {
  name : string;
  syntax : string;  (* the value, as help shows it; one word per field *)
  doc : string;
  set : at -> string -> staged -> staged;
}

let key name syntax doc set = { name; syntax; doc; set }

let table =
  [ key "seed" "<n>" "RNG seed; every random stream of the run derives from it"
      (field config (int_in ~min:0 ~max:max_int) (fun r v -> { r with seed = v }));
    key "topology" "figure1|random"
      "the paper's two-domain Figure 1, or a generated internet"
      (fun at v st ->
        match v with
        | "figure1" -> { st with figure1 = true }
        | "random" -> { st with figure1 = false }
        | other -> fail at (Printf.sprintf "unknown topology %S" other));
    key "domains" "<n>" "LISP domains of the random topology"
      (field params (int_in ~min:2 ~max:10_000) (fun r v -> { r with domain_count = v }));
    key "providers" "<n>" "transit providers of the random topology"
      (field params (int_in ~min:1 ~max:100) (fun r v -> { r with provider_count = v }));
    key "borders" "<n>" "border routers per domain (at most one per provider)"
      (field params (int_in ~min:1 ~max:100) (fun r v ->
           { r with borders_per_domain = v }));
    key "hosts" "<n>" "hosts per domain"
      (field params (int_in ~min:1 ~max:254) (fun r v ->
           { r with hosts_per_domain = v }));
    key "tier1" "<n>"
      "tier-1 providers of a two-tier provider core, at most 'providers' \
       (default: a full mesh)"
      (fun at v st -> { st with tier1 = Some (at, int_in ~min:2 ~max:100 at v) });
    key "cp" "pce|pull-drop|pull-queue|pull-smr|pull-detour|cons|msmr|nerd"
      "the control plane"
      (field config control_plane (fun r v -> { r with cp = v }));
    key "mapping-ttl" "<s>" "TTL of registry mappings (map-cache entry life)"
      (field config (float_min 0.001) (fun r v -> { r with mapping_ttl = v }));
    key "dns-ttl" "<s>" "TTL of DNS records"
      (field config (float_min 0.001) (fun r v -> { r with dns_record_ttl = v }));
    key "cache-capacity" "<n>" "map-cache entries per border router"
      (field config (int_in ~min:1 ~max:1_000_000) (fun r v ->
           { r with cache_capacity = v }));
    key "cache-policy" "lru|lfu|ttl-hybrid" "map-cache eviction policy"
      (field config cache_policy (fun r v -> { r with cache_policy = v }));
    key "cp-loss" "<p>" "control-message loss probability"
      (field cp_faults probability (fun r v -> { r with cp_loss = v }));
    key "cp-jitter" "<s>" "control-message delay jitter"
      (field cp_faults (float_min 0.0) (fun r v -> { r with cp_jitter = v }));
    key "cp-rto" "<s>" "initial map-request retransmission timeout"
      (field cp_faults (float_min 0.001) (fun r v -> { r with cp_rto = v }));
    key "cp-backoff" "<factor>" "RTO multiplier per retransmission"
      (field cp_faults (float_min 1.0) (fun r v -> { r with cp_backoff = v }));
    key "cp-retries" "<n>" "map-request retransmissions before giving up"
      (field cp_faults (int_in ~min:0 ~max:100) (fun r v -> { r with cp_retries = v }));
    key "cp-flap" "<domain> <at> <duration>"
      "cut the domain's control plane for <duration> s from <at>"
      (fun at v st ->
        let f = fields v in
        let domain, st = domain at f.(0) st in
        let duration = float_min 0.0 at f.(2) in
        cp_script (Scenario.Flap { domain; at = float_min 0.0 at f.(1); duration }) st);
    key "cp-partition" "<domain-a> <domain-b> <from> <until>"
      "cut control messages between two domains during [<from>, <until>)"
      (fun at v st ->
        let f = fields v in
        let a, st = domain at f.(0) st in
        let b, st = domain at f.(1) st in
        let from_, until = window at f.(2) f.(3) in
        cp_script (Scenario.Partition { from_; until; a; b }) st);
    key "pce-crash-at" "<domain> <time>"
      "crash the domain's PCE; without a later pce-recover-at it never restarts"
      (fun at v st ->
        let f = fields v in
        let d, st = domain at f.(0) st in
        let from_ = float_min ~finite:true 0.0 at f.(1) in
        if List.mem_assoc d st.open_crashes then
          fail at
            (Printf.sprintf
               "pce-crash-at: domain %d already has an open crash window" d);
        { st with open_crashes = (d, from_) :: st.open_crashes });
    key "pce-recover-at" "<domain> <time>"
      "restart the PCE that the domain's open pce-crash-at took down"
      (fun at v st ->
        let f = fields v in
        let d, st = domain at f.(0) st in
        let until = float_min 0.0 at f.(1) in
        match List.assoc_opt d st.open_crashes with
        | None ->
            fail at (Printf.sprintf "pce-recover-at: no pce-crash-at for domain %d" d)
        | Some from_ when until <= from_ ->
            fail at
              (Printf.sprintf
                 "pce-recover-at: inverted window for domain %d (recovers at %g, \
                  crashed at %g)"
                 d until from_)
        | Some from_ ->
            node_faults
              (fun p ->
                { p with
                  node_windows =
                    p.node_windows @ [ (Netsim.Lifecycle.Pce d, from_, until) ] })
              { st with open_crashes = List.remove_assoc d st.open_crashes });
    key "pce-watchdog" "<s>" "seconds DNS waits on a dead PCE before bypassing it"
      (field node_faults (float_min 0.001) (fun r v -> { r with pce_watchdog = v }));
    key "attack-spoof" "<p>" "probability a map-request is raced by a forged reply"
      (field attack probability (fun r v -> { r with atk_spoof = v }));
    key "attack-spoof-head-start" "<s>"
      "seconds by which a forged reply beats the legitimate one"
      (field attack (float_min 0.0) (fun r v -> { r with atk_spoof_head_start = v }));
    key "attack-replay" "<p>"
      "probability a stale captured map-reply is replayed at a resolution"
      (field attack probability (fun r v -> { r with atk_replay = v }));
    key "attack-dns-poison" "<p>"
      "probability a final DNS answer is raced by a forged record"
      (field attack probability (fun r v -> { r with atk_dns_poison = v }));
    key "attack-flood" "<rate> <eids> <from> <until> <victim-domain>"
      "EID-scan flood: <rate> spoofed packets/s from <eids> forged sources at \
       the victim's ETRs during [<from>, <until>)"
      (fun at v st ->
        let f = fields v in
        let victim, st = domain at f.(4) st in
        let from_, until = window at f.(2) f.(3) in
        attack
          (fun a ->
            { a with
              atk_flood_rate = float_min ~finite:true 0.0 at f.(0);
              atk_flood_eids = int_in ~min:1 ~max:1_000_000 at f.(1);
              atk_flood_from = from_; atk_flood_until = until;
              atk_flood_victim = victim })
          st);
    key "auth-nonce" "on|off" "verify the map-reply nonce echo"
      (field auth on_off (fun r v -> { r with auth_nonce = v }));
    key "auth-sig" "on|off" "require signed map-replies"
      (field auth on_off (fun r v -> { r with auth_sig = v }));
    key "auth-sig-cpu" "<s>" "signature verification cost per reply"
      (field auth (float_min 0.0) (fun r v -> { r with auth_sig_cpu = v }));
    key "auth-dnssec" "on|off" "validate DNS answers"
      (field auth on_off (fun r v -> { r with auth_dnssec = v }));
    key "glean-cap" "<n>"
      "bound the gleaned entries per map-cache and pull glean table"
      (field auth (int_in ~min:1 ~max:1_000_000) (fun r v ->
           { r with auth_glean_cap = Some v }));
    key "flows" "<n>" "connections to open"
      (field workload (int_in ~min:1 ~max:1_000_000) (fun r v -> { r with flows = v }));
    key "rate" "<per-s>" "Poisson arrival rate, flows per second"
      (field workload (float_min ~finite:true 0.001) (fun r v -> { r with rate = v }));
    key "zipf" "<alpha>" "Zipf exponent of destination popularity"
      (field workload (float_min 0.0) (fun r v -> { r with zipf_alpha = v }));
    key "data-packets" "<n>" "data packets per flow"
      (field workload (int_in ~min:0 ~max:1_000_000) (fun r v ->
           { r with data_packets = v }));
    key "data-bytes" "<n>" "bytes per data packet"
      (field workload (int_in ~min:0 ~max:65_000) (fun r v -> { r with data_bytes = v }));
    key "hotspot" "<domain>" "aim all traffic at one domain"
      (fun at v st ->
        let d, st = domain at v st in
        workload (fun w -> { w with hotspot = Some d }) st) ]

let keys = List.map (fun k -> (k.name, k.syntax, k.doc)) table

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

let apply st (line, text) =
  if text = "" then st
  else
    match String.index_opt text ' ' with
    | None ->
        raise (Bad_line (line, Printf.sprintf "expected 'key value', got %S" text))
    | Some i -> (
        let name = String.sub text 0 i in
        let value = String.trim (String.sub text i (String.length text - i)) in
        let at = { line; key = name } in
        match List.find_opt (fun k -> k.name = name) table with
        | None -> fail at (Printf.sprintf "unknown key %S" name)
        | Some k ->
            let wanted = Array.length (fields k.syntax) in
            if wanted > 1 && Array.length (fields value) <> wanted then
              fail at (Printf.sprintf "%s expects '%s'" name k.syntax);
            k.set at value st)

let finish st =
  let domain_count, topology =
    if st.figure1 then (2, `Figure1)
    else
      let params =
        match st.tier1 with
        | None -> st.params
        | Some (at, n) ->
            if n > st.params.provider_count then
              fail at
                (Printf.sprintf "tier1 %d exceeds providers (%d)" n
                   st.params.provider_count);
            { st.params with core_shape = Topology.Builder.Two_tier n }
      in
      (params.domain_count, `Random params)
  in
  List.iter
    (fun (at, d) ->
      if d >= domain_count then
        fail at (Printf.sprintf "%s: domain %d does not exist" at.key d))
    (List.rev st.domain_ids);
  (* Unclosed crash windows mean the PCE never restarts. *)
  let st =
    match st.open_crashes with
    | [] -> st
    | open_ ->
        node_faults
          (fun p ->
            { p with
              node_windows =
                p.node_windows
                @ List.rev_map
                    (fun (d, from_) -> (Netsim.Lifecycle.Pce d, from_, infinity))
                    open_ })
          st
  in
  { st.t with config = { st.t.config with topology } }

let parse ?(figure1 = false) contents =
  let start =
    { t = default; figure1; params = random_params; tier1 = None;
      open_crashes = []; domain_ids = [] }
  in
  match
    String.split_on_char '\n' contents
    |> List.mapi (fun i raw ->
           (i + 1, String.trim (List.hd (String.split_on_char '#' raw))))
    |> List.fold_left apply start
    |> finish
  with
  | t -> Ok t
  | exception Bad_line (line, message) ->
      Error (Printf.sprintf "line %d: %s" line message)

let load path =
  match In_channel.with_open_text path In_channel.input_all with
  | contents -> parse contents
  | exception Sys_error m -> Error m
