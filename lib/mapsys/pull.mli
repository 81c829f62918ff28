(** Pull-based LISP control planes (map-request / map-reply).

    On a map-cache miss the ITR issues a map-request that travels the
    ALT overlay to the destination's authoritative ETR; the map-reply
    returns directly over the underlay and is installed in the
    requesting ITR's cache.  What happens to data packets while the
    resolution is in flight is the {!mode}:

    - {!Drop_while_pending} — the base LISP behaviour the paper's
      weakness (i) describes;
    - {!Queue_while_pending} — buffer up to [limit] packets per pending
      resolution and release them on the reply;
    - {!Detour_via_cp} — forward data packets over the mapping overlay
      itself (the "undesirable" palliative of mixing control and data
      planes).

    Reverse traffic is symmetric: ETRs glean host mappings from the
    tunnel headers and the reverse flow exits through the border that
    received the forward traffic.

    With [~smr:true] the control plane additionally implements
    Solicit-Map-Request: ETRs remember which remote ITRs hold their
    domain's mapping (from the tunnel headers), and
    {!notify_mapping_change} pokes each of them to drop the stale entry
    and re-resolve — LISP's reactive answer to mapping churn. *)

type mode =
  | Drop_while_pending
  | Queue_while_pending of int  (** per-resolution packet limit *)
  | Detour_via_cp

type auth = {
  nonce_check : bool;
      (** accept a reply only if it echoes the request's nonce — defeats
          blind off-path forgery and replay of stale replies *)
  signatures : bool;
      (** require a valid signature on replies — defeats forgery outright
          (the attacker holds no key) at a per-reply CPU and byte cost *)
  sig_cpu_cost : float;
      (** seconds of verifier CPU per signed reply (only charged when
          [signatures]); flows into the map-resolution latency *)
}
(** Countermeasure profile for the map-reply channel. *)

val no_auth : auth
(** Everything off; [sig_cpu_cost = Wire.Auth.default_sig_cpu_cost]. *)

type t

val create :
  engine:Netsim.Engine.t ->
  internet:Topology.Builder.t ->
  registry:Registry.t ->
  alt:Alt.t ->
  mode:mode ->
  ?name:string ->
  ?latency_of:(src:int -> dst:int -> float) ->
  ?resolution_latency:
    (router:Lispdp.Dataplane.router -> dst_domain:Topology.Domain.t -> float) ->
  ?smr:bool ->
  ?faults:Netsim.Faults.t ->
  ?retry:Netsim.Faults.retry ->
  ?lifecycle:Netsim.Lifecycle.t ->
  ?nonce_rng:Netsim.Rng.t ->
  ?adversary:Netsim.Adversary.t ->
  ?auth:auth ->
  ?glean_cap:int ->
  ?obs:Obs.Hub.t ->
  unit ->
  t
(** [latency_of] overrides the map-request transport latency between two
    domain ids (default: the ALT model); [resolution_latency], when
    given, replaces the whole request+reply timing computation (used by
    the MS/MR front end, whose reply is proxied rather than sent by the
    authoritative ETR).  Either way the answering server adds 0.5 ms of
    processing, and a gleaned host route lives 60 s.  [obs]
    receives typed [Map_request]/[Map_reply] events when enabled,
    flow-scoped with the id of the packet that triggered the miss.

    [faults], when given, is consulted once per request leg and once per
    reply leg of every transmission; lost messages never produce a
    reply.  [retry] enables map-request retransmission: after each
    transmission an RTO timer ({!Netsim.Faults.retry_delay}) is armed;
    when it fires with the resolution still pending the request is
    retransmitted (recomputing the path, so requests succeed once a
    partition heals) up to [budget] times, after which the resolution
    times out and any queued packets are dropped under cause
    [Resolution_timeout].  Without [retry], an unreachable destination
    abandons the resolution immediately and queued packets drop under
    [Resolution_abandoned].  With neither option the behaviour (and
    event-for-event timing) of the lossless control plane is
    unchanged.

    [lifecycle], when given, is consulted (before any fault draw, so an
    empty schedule perturbs nothing) for the {!Netsim.Lifecycle.Map_server}
    role at each transmission: while the map-server is down the attempt
    is lost outright (emitted as [Cp_loss "map-server-down"]) and the
    normal retry machinery carries the resolution across the outage.

    [nonce_rng] is the stream map-request nonces are drawn from
    (scenarios derive it from the seed; defaults to a private
    fixed-seed stream).  [adversary], when given, races each
    transmission with forged and/or replayed replies per its rates:
    a forged reply carries an unroutable attacker RLOC and a guessed
    nonce; a replayed one carries the genuine mapping under a stale
    nonce.  [auth] decides whether they are accepted — acceptance
    installs the attacker's mapping (and completes the resolution),
    rejection counts in {!Cp_stats} and in the drop ledger under
    [Spoofed_reply_rejected]/[Replayed_reply_rejected].  With
    [auth.signatures] every {e legitimate} reply also
    pays [auth.sig_cpu_cost] seconds of verification (visible in
    T_map_resol) and [Wire.Auth.signature_bytes] extra control bytes.
    [glean_cap] bounds the symmetric-return glean table
    ({!Glean.create}). *)

val control_plane : t -> Lispdp.Dataplane.control_plane

val handle_miss :
  t -> Lispdp.Dataplane.router -> Nettypes.Packet.t -> Lispdp.Dataplane.miss_decision
(** The miss path of {!control_plane}, exposed so a degraded PCE
    control plane can delegate unresolvable misses to a pull
    fallback. *)

val attach : t -> Lispdp.Dataplane.t -> unit
(** Must be called once, with the dataplane built over
    {!control_plane}. *)

val stats : t -> Cp_stats.t

val pending_resolutions : t -> int
(** Resolutions currently in flight. *)

val notify_mapping_change : t -> domain:int -> unit
(** The domain's registered mapping changed (failover, TE re-homing):
    when SMR is enabled, send a solicit to every remote ITR known to
    cache it, which evicts the stale entry so the next packet
    re-resolves against the updated registry.  No-op without [~smr]. *)
