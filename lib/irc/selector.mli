(** The per-domain Intelligent Route Control engine.

    One selector runs inside each domain's PCE (the "online IRC engine
    running in background" of the paper's step 6).  It keeps an EWMA
    estimate of each provider uplink's utilisation in both directions,
    refreshed by {!observe}, and answers two questions:

    - {!choose_egress}: through which border should this outbound flow
      leave (the ITR and outbound uplink)?
    - {!choose_ingress}: through which border should the {e reverse}
      traffic of this flow come back in (the RLOC_S of step 1)?

    Selections are sticky per flow: once a flow is assigned a border it
    keeps it unless {!rebalance} moves it, so load estimates are not
    churned by per-packet flapping. *)

type t

type direction = Outbound | Inbound

val create :
  domain:Topology.Domain.t -> graph:Topology.Graph.t -> policy:Policy.t -> t
(** The load estimate is an EWMA with smoothing factor 0.3.  A
    candidate must improve on an existing assignment's score by more
    than 0.05 (the hysteresis) before {!rebalance} moves it.  Each
    assignment made since the last observation adds 0.02 to its
    uplink's score, which keeps bursts from herding onto one uplink
    while the load estimate is stale. *)

val observe : t -> now:float -> unit
(** Sample the uplink byte counters and fold the interval utilisation
    into the EWMA estimates.  Call periodically (the PCE's background
    monitoring loop). *)

val load_estimate : t -> direction -> Topology.Domain.border -> float
(** Current EWMA utilisation estimate of a border's uplink in the given
    direction (0 before any observation). *)

val choose_egress :
  t -> flow:Nettypes.Flow.t -> ?remote:Topology.Node.id -> unit ->
  Topology.Domain.border
(** Border for the flow's outbound packets.  [remote] (the far-end
    router node, when already known) lets latency-aware policies measure
    the actual remote path; otherwise latency is taken to the border's
    provider core. *)

val choose_ingress : t -> flow:Nettypes.Flow.t -> Topology.Domain.border
(** Border whose RLOC the reverse mapping should carry (inbound TE).
    Latency is taken to each border's provider core. *)

val assignment : t -> direction -> Nettypes.Flow.t -> Topology.Domain.border option
(** The sticky assignment of a flow, if one was made. *)

val rebalance : t -> unit
(** Re-evaluate sticky assignments against current load estimates and
    move those whose score improves by more than the hysteresis.  The
    PCE triggers this as its TE optimisation step; with the paper's
    push-to-all-ITRs it is safe because every ITR already has the flow
    entry. *)

val moved_flows : t -> int
(** Total assignments moved by {!rebalance} calls so far. *)

val forget_flow : t -> Nettypes.Flow.t -> unit
(** Drop the sticky assignments of a finished flow. *)
