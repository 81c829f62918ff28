(** Map-Server / Map-Resolver front end (draft-ietf-lisp-ms style).

    The mapping-system interface that eventually became LISP's standard:
    ITRs send map-requests to a nearby {e map-resolver}; the resolver
    finds the {e map-server} the destination site registered with
    (modelled as a DDT-style delegation walk of [Alt.depth] hops) and
    the map-server proxy-replies directly to the ITR.  Data packets are
    dropped while the resolution is pending, as on the LISP beta
    network.

    Sites must register: {!attach} performs the initial map-register
    from every border router (counted in the stats), and
    {!refresh_registrations} models the periodic re-registration cost.

    Implemented as a {!Pull} instance with a proxied-reply timing model,
    so data-plane behaviour and statistics remain directly comparable
    with the other pull variants. *)

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
(** The MR/MS complex sits in the first provider's core, and each
    delegation hop inside the mapping system costs 10 ms.
    [faults]/[retry]/[nonce_rng]/[adversary]/[auth]/[glean_cap] behave
    as in {!Pull.create} (the MR front end inherits the same loss,
    retransmission and attack model). *)

val control_plane : t -> Lispdp.Dataplane.control_plane

val attach : t -> Lispdp.Dataplane.t -> unit
(** Attaches the data plane and performs the initial site
    registrations. *)

val stats : t -> Cp_stats.t

val refresh_registrations : t -> unit
(** One round of map-registers from every border router (cost
    accounting only; registration state is implicit in the registry). *)
