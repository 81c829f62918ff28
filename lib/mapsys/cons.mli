(** CONS-like hierarchical control plane.

    CONS resolves mappings through a content-distribution hierarchy that
    caches answers at intermediate servers: the first resolution of a
    destination anywhere in the internet pays the full hierarchy
    traversal, later resolutions (by anyone) find the answer cached at
    mid-level and pay roughly half.  Data packets are dropped while a
    resolution is pending, as in the CONS draft.

    Implemented as a {!Pull} instance with a popularity-aware latency
    model, so the data-plane behaviour and statistics are directly
    comparable with the other pull variants. *)

type t

val create :
  engine:Netsim.Engine.t ->
  internet:Topology.Builder.t ->
  registry:Registry.t ->
  alt:Alt.t ->
  ?faults:Netsim.Faults.t ->
  ?retry:Netsim.Faults.retry ->
  ?nonce_rng:Netsim.Rng.t ->
  ?adversary:Netsim.Adversary.t ->
  ?auth:Pull.auth ->
  ?glean_cap:int ->
  ?obs:Obs.Hub.t ->
  unit ->
  t
(** [alt] provides the hierarchy geometry (CONS and ALT share the
    aggregation-tree shape).  Once a destination's mapping is warm
    anywhere in the hierarchy, its resolution latency is halved.
    [faults]/[retry]/[nonce_rng]/[adversary]/[auth]/[glean_cap] behave
    as in {!Pull.create}. *)

val control_plane : t -> Lispdp.Dataplane.control_plane
val attach : t -> Lispdp.Dataplane.t -> unit
val stats : t -> Cp_stats.t

val warm_destinations : t -> int
(** Destination domains whose mapping the hierarchy has cached. *)
