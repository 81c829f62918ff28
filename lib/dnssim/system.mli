(** The simulated DNS: servers, resolvers and the wire between them.

    [create] instantiates the full hierarchy for an internet built by
    {!Topology.Builder}: a root zone, the [net.] TLD zone, one
    authoritative zone per domain (served by the domain's local DNS
    node, which doubles as the domain's recursive resolver — the
    DNS_S / DNS_D of the paper), and host A records mapping
    ["h<i>.as<d>.net."] to host EIDs.

    Two hook points expose exactly what the paper's PCEs see:
    - a {e query observer} on a resolver fires when a local client's
      query reaches DNS_S (step 1: PCE_S learns E_S by IPC);
    - a {e response tap} on an authoritative server intercepts final
      address answers on the wire (step 6: PCE_D catches the reply
      carrying E_D and may deliver it through its own path).  The tap
      owns delivery: it must eventually call [tap_complete]. *)

type t

val create :
  engine:Netsim.Engine.t ->
  internet:Topology.Builder.t ->
  ?record_ttl:float ->
  ?obs:Obs.Hub.t ->
  unit ->
  t
(** [record_ttl] defaults to 3600 s.  Each server spends
    {!server_processing} on a query, and a querier waits 2 s on a
    crashed node before giving up (see {!set_server_outage}).  [obs]
    (default: a fresh disabled hub) receives typed [Dns_query]
    (step 1), [Dns_iterate] (steps 2-5), [Dns_reply] (step 8) and
    [Poisoned_answer] events when enabled. *)

val server_processing : float
(** Seconds a DNS server spends on one query (0.5 ms); the closed-form
    T_DNS of the validation experiment adds it once per iterative
    leg. *)

type tap_context = {
  tap_qname : Name.t;
  tap_answer : Nettypes.Ipv4.addr;  (** the address in the intercepted reply *)
  tap_server : Topology.Node.id;  (** authoritative server (DNS_D) *)
  tap_resolver : Topology.Node.id;  (** querying resolver (DNS_S) *)
  tap_wire_latency : float;  (** server->resolver latency the reply would take *)
  tap_complete : unit -> unit;
      (** deliver the answer into the resolver, to be called once, after
          any tap-added delays *)
}

val set_response_tap : t -> server:Topology.Node.id -> (tap_context -> unit) option -> unit
(** Install/remove the tap for final answers emitted by a server.
    Referrals and errors are never tapped. *)

type tap_guard = {
  guard_down : unit -> bool;
      (** is the tap's owner (the PCE) currently crashed? *)
  guard_watchdog : float;
      (** seconds the server waits on a dead tap before bypassing it *)
  guard_on_bypass : (qname:Name.t -> unit) option;
      (** notification hook fired (at watchdog expiry decision time)
          for each bypassed answer *)
}

val set_tap_guard : t -> server:Topology.Node.id -> tap_guard option -> unit
(** Guard the server's response tap with a liveness check: when
    [guard_down ()] holds at interception time, the answer is {e not}
    handed to the tap — after [guard_watchdog] seconds it is sent to
    the resolver on the ordinary wire path, un-piggybacked (the
    resolution completes; whatever the tap would have added does not
    happen).  Without a guard, tap behaviour is byte-identical to
    before.  [set_response_tap ... None] does not remove the guard. *)

val set_server_outage :
  t -> server:Topology.Node.id -> (unit -> bool) option -> unit
(** Declare a liveness predicate for a DNS node (authoritative server
    or resolver).  While the predicate holds, queries reaching the node
    die: the querier observes a failed resolution after 2 s (counted
    in [outage_failures]).  Without a predicate the node is
    permanently up and behaviour is untouched. *)

val set_poisoner :
  t -> (qname:Name.t -> Nettypes.Ipv4.addr option) option -> unit
(** Install/remove the off-path answer forger: consulted once per final
    address answer at the instant it completes at the resolver (tapped,
    bypassed or direct); returning [Some forged] races the genuine
    record.  Unless {!set_authenticated} is on, the forged address wins
    — it is cached and answered to the client (counted in
    [poisoned_accepted], emitted as [Poisoned_answer]).  Referrals and
    name errors are never forged.  Without a poisoner, behaviour is
    byte-identical to before. *)

val set_authenticated : t -> bool -> unit
(** DNSSEC-style origin authentication: when on, forged answers are
    detected and discarded (counted in [poisoned_rejected]) and the
    genuine record proceeds.  Off by default. *)

val set_query_observer :
  t ->
  resolver:Topology.Node.id ->
  (client_eid:Nettypes.Ipv4.addr -> qname:Name.t -> unit) option ->
  unit

val resolve :
  t ->
  resolver:Topology.Node.id ->
  client:Topology.Node.id ->
  client_eid:Nettypes.Ipv4.addr ->
  ?flow:int ->
  Name.t ->
  callback:(Nettypes.Ipv4.addr option -> unit) ->
  unit
(** Full client-side resolution: client-to-resolver wire, cache lookup,
    iterative resolution from the deepest cached referral, wire back.
    [callback] fires at the simulated instant the client holds the
    answer ([None] on name error).  [flow] tags the emitted observability
    events with the id of the connection this resolution belongs to, so
    DNS events correlate with the flow's later packets. *)

val flush_caches : t -> unit
(** Empty every resolver cache — cold-start experiments. *)

type counters = {
  mutable client_queries : int;
  mutable iterative_queries : int;
  mutable responses : int;
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable wire_bytes : int;
  mutable tap_bypasses : int;
      (** final answers delivered past a dead tap by a {!tap_guard} *)
  mutable outage_failures : int;
      (** resolutions failed because a crashed node never answered *)
  mutable poisoned_accepted : int;
      (** forged answers cached and delivered (see {!set_poisoner}) *)
  mutable poisoned_rejected : int;
      (** forged answers discarded by authentication *)
}

val counters : t -> counters
(** Live counters (mutated as the simulation runs). *)
