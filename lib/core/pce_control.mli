(** The PCE-based control plane (the paper's proposal, steps 1–8).

    Wires one {!Pce} per domain into the DNS simulation and the LISP
    data plane:

    - a {e query observer} on every resolver implements step 1 (PCE_S
      learns E_S by IPC and picks RLOC_S for the reverse direction);
    - a {e response tap} on every authoritative server implements step 6
      (PCE_D catches the final answer carrying E_D, stamps the
      precomputed (E_D, RLOC_D) mapping on it and sends the encapsulated
      UDP message to the querying resolver's wire on port P);
    - on arrival, steps 7a/7b run: the answer is forwarded to DNS_S
      while the flow tuple [(E_S, E_D, RLOC_S, RLOC_D)] is configured
      into the ITRs;
    - the first tunneled packet reaching an ETR triggers the
      reverse-mapping multicast to the sibling ETRs and the PCE_D
      database update (the two-way completion of §2).

    Two knobs expose the paper's design choices for the ablation
    studies: {!push_scope} (push to all ITRs versus only the flow's
    egress ITR) and {!reverse_scope} (multicast to all ETRs versus only
    the receiving one). *)

type push_scope = Push_all_itrs | Push_egress_only
type reverse_scope = Reverse_multicast | Reverse_receiving_only

type options = {
  policy : Irc.Policy.t;  (** IRC objective for ingress/egress choices *)
  push_scope : push_scope;
  reverse_scope : reverse_scope;
  ipc_latency : float;  (** PCE <-> co-located DNS server (step 1/7a) *)
  flow_ttl : float;  (** lifetime of installed flow entries *)
}
(** The PCE_S -> ITR mapping configuration (step 7b) takes 1 ms and the
    ETR -> sibling ETRs reverse push 0.5 ms, whatever the options. *)

val default_options : options
(** min-load policy, push-all, multicast, 0.1 ms IPC, 300 s flow TTL. *)

type t

val create :
  engine:Netsim.Engine.t ->
  internet:Topology.Builder.t ->
  dns:Dnssim.System.t ->
  ?options:options ->
  ?faults:Netsim.Faults.t ->
  ?push_retry:Netsim.Faults.retry ->
  ?lifecycle:Netsim.Lifecycle.t ->
  ?fallback:Mapsys.Pull.t ->
  ?watchdog:float ->
  ?registry:Mapsys.Registry.t ->
  ?obs:Obs.Hub.t ->
  unit ->
  t
(** Installs the DNS observers and taps.  {!attach} must follow before
    any traffic flows.  [obs] (default: a fresh disabled hub) receives
    one typed event per paper step — [Ipc_query] (1),
    [Answer_intercept] (6), [Answer_decap] (7), [Tuple_push] (7b) and
    [Reverse_learn] at the ETR — plus flow-scoped [Irc_decision] events
    each time the IRC engine picks an egress border.

    [faults] makes step-7b pushes unreliable: each per-target
    transmission draws against the loss model.  With [push_retry] the
    push is acknowledged — a lost configuration is retransmitted with
    exponential backoff up to the retry budget (counted in the stats as
    retransmissions/timeouts and visible as [Cp_loss]/[Cp_retry]/
    [Cp_timeout] events); without it a lost push is simply gone and the
    affected ITR misses until the flow entry is pushed again.

    [lifecycle] enables crash-recovery semantics (strictly opt-in;
    without it, or with an empty schedule, behaviour is byte-identical
    to before): while a domain's PCE is inside a crash window its
    step-1 observer is deaf, its response tap is bypassed by the DNS
    server after [watchdog] seconds (default 0.25 s, counted in
    [bypasses] and visible as [Pce_bypass] events), and an
    encapsulated answer arriving at a crashed PCE_S is likewise
    recovered by DNS_S after the watchdog — resolutions complete but
    no mapping is configured.  Call {!schedule_lifecycle} after
    [create] to arm the crash/restart transitions.

    [fallback] makes ITR cache misses degrade gracefully to the pull
    mapping system (emitting flow-scoped [Degraded_to_pull] events)
    instead of dropping; [registry] lets a restarting PCE re-register
    its domain mapping during warm recovery. *)

val control_plane : t -> Lispdp.Dataplane.control_plane
val attach : t -> Lispdp.Dataplane.t -> unit

val stats : t -> Mapsys.Cp_stats.t
val options : t -> options
val pce_of_domain : t -> int -> Pce.t

val run_monitoring : t -> interval:float -> until:float -> rebalance:bool -> unit
(** Schedule the background IRC loop of every PCE: sample uplink loads
    every [interval] seconds until [until], optionally running the TE
    {!Irc.Selector.rebalance} step after each observation.  The loop
    also performs edge-triggered uplink-failure detection, invoking
    {!handle_uplink_failure} when an access link goes down. *)

val handle_uplink_failure :
  t -> domain_id:int -> border:Topology.Domain.border -> unit
(** Repair every mapping that names the failed border's RLOC: affected
    peers receive a direct PCE-to-PCE update with a freshly chosen
    ingress locator and re-push the tuples to their ITRs; local tuples
    whose reverse locator died are re-homed.  Normally triggered by the
    monitoring loop; exposed for failure-injection tests. *)

val failovers : t -> int
(** Uplink failures handled so far. *)

val reroutes : t -> int
(** Flow assignments moved by TE rebalancing across all domains. *)

val handle_node_crash : t -> domain_id:int -> unit
(** The domain's PCE process dies: its pending-query table, flow
    database, learned names and advertisement bookkeeping are lost
    ({!Pce.reset}); a [Node_crash] event is emitted.  While the
    lifecycle window is open the hooks stay silent via the window
    check, so this only performs the state loss. *)

val handle_node_restart : t -> domain_id:int -> unit
(** Warm recovery: re-query the domain's ITR flow tables (one
    map-request per ITR, [itr_config_size] bytes per recovered entry),
    repopulate the PCE database, and re-register the domain mapping
    with the pull registry when one was given.  Counted in
    [recoveries]; emits [Node_restart] plus a summary [Note]. *)

val schedule_lifecycle : t -> unit
(** Schedule {!handle_node_crash}/{!handle_node_restart} engine events
    for every [Pce] window of the lifecycle passed to [create] (windows
    ending at [infinity] never restart).  No-op without a lifecycle. *)
