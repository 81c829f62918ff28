(** The per-domain Intelligent Route Control engine.

    One selector runs inside each domain's PCE (the "online IRC engine
    running in background" of the paper's step 6).  It keeps an EWMA
    estimate of each provider uplink's utilisation in both directions,
    refreshed by {!observe}, and answers two questions:

    - {!choose_egress}: through which border should this outbound flow
      leave (the ITR and outbound uplink)?
    - {!choose_ingress}: through which border should the {e reverse}
      traffic of this flow come back in (the RLOC_S of step 1)?

    Selections are sticky per (src, dst) pair: once a pair is assigned
    a border it keeps it unless its uplink dies or {!rebalance} moves
    it, so load estimates are not churned by per-packet flapping.  The
    PCE keys its choices by EID pair (mappings are per EID pair, not
    per transport connection); a pair may be any two addresses, and
    PCE_D pairs an EID with the querying resolver's node id. *)

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
(** Test oracle: the current EWMA utilisation estimate of a border's
    uplink in the given direction (0 before any observation).
    @raise Invalid_argument for a border of another domain. *)

val choose_egress :
  t -> src:Nettypes.Ipv4.addr -> dst:Nettypes.Ipv4.addr ->
  ?remote:Topology.Node.id -> unit -> Topology.Domain.border
(** Border for the pair's outbound packets: its live sticky assignment,
    or a new pick.  [remote] (the far-end router node, when already
    known) lets latency-aware policies measure the actual remote path;
    otherwise latency is taken to the border's provider core.  Only a
    pick reads it. *)

val live_egress :
  t -> src:Nettypes.Ipv4.addr -> dst:Nettypes.Ipv4.addr ->
  Topology.Domain.border option
(** The pair's live sticky egress border, the answer {!choose_egress}
    gives without picking; [None] when it would pick.  One probe of
    the assignment table; the [Some] is made once per border, so this
    allocates nothing. *)

val choose_ingress :
  t -> src:Nettypes.Ipv4.addr -> dst:Nettypes.Ipv4.addr ->
  Topology.Domain.border
(** Border whose RLOC the reverse mapping should carry (inbound TE).
    Latency is taken to each border's provider core. *)

val rebalance : t -> unit
(** Re-evaluate sticky assignments against current load estimates and
    move those whose score improves by more than the hysteresis.  Pairs
    are visited in ascending (src, dst) order, since each move counts
    as an assignment and shifts the scores later pairs see.  The PCE
    triggers this as its TE optimisation step; with the paper's
    push-to-all-ITRs it is safe because every ITR already has the flow
    entry. *)

val moved_flows : t -> int
(** Total assignments moved by {!rebalance} calls so far. *)
