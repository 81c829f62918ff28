(** End-to-end experiment scenarios.

    A scenario assembles one complete simulated world — internet
    topology, DNS hierarchy, a chosen control plane, the LISP data plane
    and the TCP host model — and exposes the operation every experiment
    is built from: {!open_connection}, which performs the paper's full
    client behaviour (resolve the destination's name, then connect),
    measuring T_DNS and the TCP handshake separately.

    The same scenario code runs all six control planes, so every
    reported difference comes from the control plane alone. *)

type cp_kind =
  | Cp_pull_drop  (** map-request over ALT, drop while pending *)
  | Cp_pull_queue of int  (** buffer up to N packets per resolution *)
  | Cp_pull_smr of int
      (** like [Cp_pull_queue], plus Solicit-Map-Request: mapping changes
          actively evict stale remote cache entries *)
  | Cp_pull_detour  (** data over the mapping overlay while pending *)
  | Cp_nerd  (** full-database push *)
  | Cp_cons  (** hierarchical resolution with in-tree caching *)
  | Cp_msmr  (** map-server/map-resolver front end with proxy replies *)
  | Cp_pce of Pce_control.options  (** the paper's control plane *)

val cp_label : cp_kind -> string

(** Scheduled control-plane outages, applied to the scenario's
    {!Netsim.Faults} model (endpoints are domain ids). *)
type fault_script =
  | Flap of { at : float; duration : float; domain : int }
      (** the domain's control-plane reachability drops for [duration]
          seconds starting at [at] *)
  | Partition of { from_ : float; until : float; a : int; b : int }
      (** control messages between the two domains are cut for the
          window *)

(** Control-plane robustness model.  When a profile is present, control
    messages (map-requests/replies, PCE pushes, NERD updates) are
    subject to Bernoulli loss [cp_loss] and delay jitter [cp_jitter],
    retransmission runs with initial RTO [cp_rto], exponential backoff
    [cp_backoff] and at most [cp_retries] retransmissions, and
    [cp_scripts] schedules deterministic outages.  The fault RNG is
    derived from the config seed independently of the workload streams,
    so enabling faults never changes which flows arrive when. *)
type cp_fault_profile = {
  cp_loss : float;
  cp_jitter : float;
  cp_rto : float;
  cp_backoff : float;
  cp_retries : int;
  cp_scripts : fault_script list;
}

val default_cp_faults : cp_fault_profile
(** No loss, no jitter, 0.5 s RTO, factor-2 backoff, 3 retransmissions,
    no scripts — a starting point for [{ default_cp_faults with ... }]. *)

type node_fault_profile = {
  node_windows : (Netsim.Lifecycle.role * float * float) list;
      (** crash windows [(role, from, until)]; [until] may be [infinity] *)
  pce_watchdog : float;
      (** seconds a DNS server waits on a dead PCE before bypassing it *)
  fallback_queue : int;
      (** held-packet queue depth of the PCE's pull fallback *)
}

val default_node_faults : node_fault_profile
(** No windows, 0.25 s watchdog, 32-packet fallback queue — a starting
    point for [{ default_node_faults with ... }]. *)

(** Adversarial-injection profile (see {!Netsim.Adversary}).  Rates are
    probabilities per opportunity: [atk_spoof]/[atk_replay] per
    map-request transmission, [atk_dns_poison] per final DNS answer.
    [atk_flood_rate] > 0 schedules an EID-scan flood — spoofed packets
    at that rate (per simulated second, Poisson) claiming
    [atk_flood_eids] distinct forged source EIDs, arriving at the
    borders of domain [atk_flood_victim] during
    [atk_flood_from, atk_flood_until).  The adversary draws from its own
    seed-derived stream, so an all-zero profile is byte-identical to no
    profile at all. *)
type attack_profile = {
  atk_spoof : float;
  atk_spoof_head_start : float;
      (** seconds by which a forged reply beats the legitimate one *)
  atk_replay : float;
  atk_dns_poison : float;
  atk_flood_rate : float;
  atk_flood_eids : int;
  atk_flood_from : float;
  atk_flood_until : float;
  atk_flood_victim : int;  (** domain id whose ETRs the flood hits *)
}

val default_attack : attack_profile
(** All rates zero, 2 ms head start, 1024 flood EIDs, unbounded window,
    victim domain 0 — a starting point for
    [{ default_attack with ... }]. *)

val flood_eid : int -> Nettypes.Ipv4.addr
(** Forged source EID of the [idx]-th scan identity (unallocated
    200.0.0.0/8 space) — lets experiments probe end-of-run caches for
    attacker-owned entries. *)

(** Countermeasure profile.  [auth_nonce] turns on the map-reply nonce
    echo, [auth_sig] requires signed replies (each legitimate reply then
    pays [auth_sig_cpu] seconds of verification, visible in
    T_map_resol, plus {!Wire.Auth.signature_bytes} on the wire),
    [auth_dnssec] validates DNS answers, and [auth_glean_cap] bounds
    both the per-router gleaned map-cache population and the pull
    control planes' glean tables. *)
type auth_profile = {
  auth_nonce : bool;
  auth_sig : bool;
  auth_sig_cpu : float;
  auth_dnssec : bool;
  auth_glean_cap : int option;
}

val default_auth : auth_profile
(** Everything off, [auth_sig_cpu = Wire.Auth.default_sig_cpu_cost],
    no glean cap. *)

type config = {
  seed : int;
  topology :
    [ `Figure1 | `Figure1_scaled of float | `Random of Topology.Builder.params ];
  cp : cp_kind;
  mapping_ttl : float;  (** TTL of registry mappings (map-cache life) *)
  dns_record_ttl : float;
  cache_capacity : int;  (** map-cache entries per border router *)
  cache_policy : Lispdp.Map_cache.policy;
      (** map-cache eviction policy (default LRU) *)
  data_gap : float;
  nerd_propagation : float;  (** NERD database-update propagation delay *)
  cp_faults : cp_fault_profile option;
      (** control-plane loss/retry model; [None] (the default) keeps the
          control plane lossless and bit-identical to the legacy
          behaviour *)
  node_faults : node_fault_profile option;
      (** node crash/restart schedule; [None] (the default) keeps every
          node permanently up and behaviour bit-identical to the legacy
          runs.  With a profile, a [Cp_pce] scenario additionally gets a
          pull fallback for degraded misses and the bypass watchdog on
          every DNS tap, and crash/restart transitions are scheduled as
          engine events. *)
  telemetry : Netsim.Telemetry.config option;
      (** give the scenario a {!Netsim.Telemetry} plane: {!build}
          creates it on the scenario's graph ({!telemetry}), registers
          every domain's provider access links, names nodes by their
          graph labels, and exports the [telemetry.*] and [flows.*]
          gauge families through the scenario registry.  [None] (the
          default) creates no plane — one [None] test per hook. *)
  attack : attack_profile option;
      (** adversarial control-plane injection; [None] (the default)
          creates no adversary and keeps every run byte-identical to the
          pre-adversary behaviour *)
  auth : auth_profile option;
      (** mapping/DNS authentication countermeasures; [None] (the
          default) keeps the legacy unauthenticated behaviour *)
  run_label : string option;
      (** exporter run label override (default {!cp_label}); lets one
          sweep report several differently-armed cells of the same
          control plane under distinct latency labels *)
}

val default_config : config
(** Figure-1 topology, PCE control plane with default options, 60 s
    mapping TTL, 3600 s DNS TTL, 30 s NERD propagation, no
    control-plane faults.  Every scenario resolves through an ALT of
    fanout 2 at 20 ms/hop ({!Mapsys.Alt.create}'s defaults) and opens
    TCP with a 1 s initial SYN RTO and 6 retries
    ({!Workload.Tcp.create}). *)

type connection = {
  flow : Nettypes.Flow.t;
  opened_at : float;  (** when the client issued the DNS query *)
  mutable dns_time : float option;  (** measured T_DNS *)
  mutable resolution_failed : bool;
  mutable tcp : Workload.Tcp.conn option;  (** set once the DNS answer arrives *)
}

val total_setup_time : connection -> float option
(** DNS resolution plus TCP handshake — the paper's
    [T_DNS + T_map + 2·OWD + OWD] quantity.  [None] until established. *)

type t

val build : config -> t

val engine : t -> Netsim.Engine.t
val internet : t -> Topology.Builder.t
val dns : t -> Dnssim.System.t
val dataplane : t -> Lispdp.Dataplane.t
val tcp : t -> Workload.Tcp.t
val registry : t -> Mapsys.Registry.t
val rng : t -> Netsim.Rng.t

val faults : t -> Netsim.Faults.t option
(** The scenario's control-plane fault model, when [config.cp_faults]
    is set — exposes the loss/blocked counters and allows experiments to
    script additional windows or change the loss rate mid-run. *)

val lifecycle : t -> Netsim.Lifecycle.t option
(** The node-lifecycle schedule, when [config.node_faults] is set. *)

val adversary : t -> Netsim.Adversary.t option
(** The attack-injection layer, when [config.attack] is set — exposes
    the attacker-side attempt counters (forged/replayed/poisoned/flood)
    the security experiments divide acceptance counts by. *)

val fallback_pull : t -> Mapsys.Pull.t option
(** The PCE scenario's pull fallback (its stats count the degraded
    resolutions), when [config.node_faults] is set and [config.cp] is
    [Cp_pce]. *)

val telemetry : t -> Netsim.Telemetry.t option
(** The scenario's own telemetry plane, when [config.telemetry] is
    set.  No other scenario shares or resets it. *)

val config : t -> config

val obs : t -> Obs.Hub.t
(** The scenario's event hub, threaded through every layer (DNS, map
    systems, PCE, data plane).  Disabled by default; enable it and add
    sinks ({!Obs.Hub.add_sink}) to observe the run.  When an
    {!Obs.Runtime} is installed (CLI export flags) the hub arrives
    already enabled and wired. *)

val walkthrough : t -> unit -> Obs.Event.t list
(** Subscribe a fresh {!Obs.Hub.memory_sink} to the scenario's hub
    (enabling it) and return its accessor: as the scenario runs, every
    typed event lands in the buffer, and [Obs.Event.pp_log] prints them
    as the step-by-step walkthrough of the paper's Figure 1.  Events
    become strings only when printed. *)

val obs_registry : t -> Obs.Registry.t
(** The scenario's metrics registry.  Pre-registered at build time:
    [engine.*] internals, [dp.*] dataplane counters and [dp.drop.*]
    per-cause drops, [cache.*] aggregate map-cache statistics
    (including [cache.invalidations] and [cache.entries]), [cp.*]
    control-plane statistics (including [cp.retransmissions] /
    [cp.timeouts]), [dns.*] resolver counters, the [conn.dns_time] /
    [conn.setup_time] histograms, and — when a fault profile is
    configured — [faults.losses] / [faults.blocked].  With
    [config.telemetry] set, additionally the [telemetry.*] family
    ({!Obs.Telemetry.register_gauges}) and [flows.*] flow-table
    occupancy. *)

val cache_gauge_rows : Lispdp.Dataplane.t -> (string * float) list
(** The rows behind the [cache.*] gauge family — exposed so report code
    samples the same computation the registry exports. *)

val flow_gauge_rows : Lispdp.Dataplane.t -> (string * float) list
(** Likewise for [flows.*] (live flow-table entries). *)

val cp_stats : t -> Mapsys.Cp_stats.t

val pce : t -> Pce_control.t option
(** The PCE control plane, when [config.cp] is [Cp_pce]. *)

val open_connection :
  t ->
  flow:Nettypes.Flow.t ->
  ?data_packets:int ->
  ?data_bytes:int ->
  ?on_established:(connection -> unit) ->
  ?on_complete:(connection -> unit) ->
  unit ->
  connection
(** Schedule the client behaviour at the current simulated instant:
    resolve the destination host's name through the local resolver, then
    open the TCP connection the moment the answer arrives. *)

val connections : t -> connection list
(** All connections opened so far, oldest first. *)

val run : ?until:float -> t -> unit
(** Drive the engine (see {!Netsim.Engine.run}). *)

val uplink_utilisation :
  t -> Topology.Domain.t -> direction:[ `Inbound | `Outbound ] ->
  duration:float -> float array
(** Average utilisation of each border uplink of a domain over
    [duration], in border order — the quantity experiment T4 balances. *)

val reset_uplink_counters : t -> unit
(** Zero every link byte counter (e.g. after a warm-up phase). *)

val reregister : t -> domain:int -> Nettypes.Mapping.t -> unit
(** Replace a domain's registered mapping and propagate the change the
    way the active control plane would: NERD pushes the update (with
    its propagation delay), SMR-enabled pull solicits every remote ITR
    holding the old mapping.  TE churn experiments drive this
    directly. *)

val fail_uplink : t -> domain:int -> border:int -> unit
(** Failure injection: take the given border's access link down, have
    the domain re-register its mapping without the dead locator, and —
    for the NERD control plane — push the update (with its propagation
    delay).  The pull control planes recover when cached mappings expire
    and are re-fetched; the PCE control plane recovers through its
    monitoring loop and PCE-to-PCE updates. *)

val restore_uplink : t -> domain:int -> border:int -> unit
(** Bring a failed access link back and re-register the full mapping. *)
