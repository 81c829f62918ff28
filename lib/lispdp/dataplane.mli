(** The LISP data plane.

    One [t] simulates every ITR/ETR of an internet: hosts hand packets to
    {!send_from_host}; the data plane picks the egress border (via the
    control plane), looks the destination EID up in the border's per-flow
    table and map-cache, encapsulates, moves bytes across the topology
    (charging link counters), decapsulates at the remote border and
    delivers to the destination host's receiver callback.

    The control plane is injected as a record of closures
    ({!control_plane}); the five implementations (pull-drop, pull-queue,
    pull-detour, NERD push, PCE) live in the [mapsys] and [core]
    libraries and call back into {!install_mapping},
    {!install_flow_entry}, {!transmit_from_itr} and {!deliver_via}. *)

type t

type router = {
  border : Topology.Domain.border;
  router_domain : Topology.Domain.t;
  cache : Map_cache.t;  (** this border's LISP map-cache *)
  flows : Flow_table.t;  (** PCE-installed per-flow tuples *)
}

type miss_decision =
  | Miss_drop of Netsim.Drop.cause
      (** drop the packet now, counted under the given typed cause *)
  | Miss_hold
      (** the control plane took custody of the packet and will either
          re-send it via {!transmit_from_itr} or abandon it *)

type control_plane = {
  cp_name : string;
  cp_choose_egress :
    src_domain:Topology.Domain.t -> Nettypes.Flow.t -> Topology.Domain.border;
      (** which border router a flow leaves its domain through *)
  cp_handle_miss : router -> Nettypes.Packet.t -> miss_decision;
      (** the border has no mapping for the packet's destination EID *)
  cp_note_etr_packet :
    router -> outer_src:Nettypes.Ipv4.addr option -> Nettypes.Packet.t -> unit;
      (** a packet arrived at this border from the core (after decap);
          [outer_src] is the tunnel source RLOC when it was tunneled —
          the hook LISP gleaning and the paper's ETR reverse-mapping
          multicast build on *)
}

val create :
  engine:Netsim.Engine.t ->
  internet:Topology.Builder.t ->
  control_plane:control_plane ->
  ?cache_capacity:int ->
  ?cache_policy:Map_cache.policy ->
  ?glean_cap:int ->
  ?flow_ttl:float ->
  ?obs:Obs.Hub.t ->
  unit ->
  t
(** [obs] is the structured-event hub (default: a fresh disabled one):
    when enabled the data plane emits [Encap]/[Decap], [Cache_hit]/
    [Cache_miss]/[Cache_evict] and [Packet_drop] events, flow-scoped
    where a packet is in hand.  A disabled hub costs one boolean test
    per site.
    [glean_cap] bounds the gleaned-entry population of every border's
    map-cache (see {!Map_cache.create}); admission rejections emit
    [Glean_rejected] events and go to the drop ledger as
    [Glean_admission_rejected] (but are {e not} packet drops). *)

val internet : t -> Topology.Builder.t
val control_plane : t -> control_plane

val routers_of_domain : t -> Topology.Domain.t -> router array
(** One router per border, in border order. *)

val router_of_rloc : t -> Nettypes.Ipv4.addr -> router option
val router_for_border : t -> Topology.Domain.border -> router

val install_mapping :
  t -> router -> ?provenance:Map_cache.provenance -> Nettypes.Mapping.t -> unit
(** Put a mapping in one border's map-cache (stamped at current time).
    [provenance] defaults to {!Map_cache.Verified}. *)

val install_mapping_all : t -> Topology.Domain.t -> Nettypes.Mapping.t -> unit
(** Same mapping into every border of the domain, as
    {!Map_cache.Verified}. *)

val install_flow_entry : t -> router -> Nettypes.Mapping.flow_entry -> unit

val install_flow_entry_all : t -> Topology.Domain.t -> Nettypes.Mapping.flow_entry -> unit
(** The paper's step 7b: push the per-flow tuple to {e all} ITRs of the
    domain. *)

val set_host_receiver :
  t -> Nettypes.Ipv4.addr -> (Nettypes.Packet.t -> unit) option -> unit
(** Register the callback invoked when a packet reaches the host owning
    the given EID. *)

val send_from_host : t -> Nettypes.Packet.t -> unit
(** Entry point for host-originated packets.  The packet's flow source
    EID must belong to a known domain. *)

val transmit_from_itr : t -> router -> Nettypes.Packet.t -> unit
(** Re-run the lookup-and-tunnel step for a packet the control plane
    held; a second miss drops it under [Post_resolution_miss]. *)

val deliver_via : t -> router -> Nettypes.Packet.t -> extra_delay:float -> unit
(** Control-plane detour: the packet appears at the given (remote)
    border after [extra_delay] seconds and is forwarded to its host —
    models mapping systems that carry data packets over the control
    plane while the mapping resolves. *)

type counters = {
  mutable sent : int;
  mutable delivered : int;
  mutable dropped : int;
  mutable held : int;  (** packets handed to the control plane on a miss *)
  mutable encapsulated : int;
  mutable decapsulated : int;
  mutable intra_domain : int;  (** delivered without LISP *)
  mutable delivered_bytes : int;
}

val counters : t -> counters

val drop_causes : t -> (string * int) list
(** The packet causes ({!Netsim.Drop.is_packet}) of the graph's drop
    ledger, labelled ({!Netsim.Drop.label}) when called, by descending
    count with ties in {!Netsim.Drop.all} order.  Rejections are in the
    ledger but not here.  Each drop is also a [Packet_drop] event on the
    hub: drop timelines are a sink that keeps those. *)

val drop_held :
  t -> ?node:int -> Nettypes.Packet.t -> cause:Netsim.Drop.cause -> unit
(** A control plane abandons a packet it had answered [Miss_hold] for
    (resolution timeout, unreachable destination): the packet is counted
    as a regular drop under [cause], with the usual counter, ledger and
    event side effects.  [node] is the router it was held at, for the
    ledger's per-node attribution. *)

val cache_stats_totals : t -> Map_cache.stats
(** Aggregate map-cache statistics over all routers. *)

val cache_entries_total : t -> int
(** Live map-cache entries summed over all routers. *)

val gleaned_total : t -> int
(** Live gleaned-provenance cache entries summed over all routers — the
    cache-pollution count an EID-scan flood drives up. *)

val flow_entries_total : t -> int
(** Live per-flow table entries summed over all routers (evaluated at
    the engine's current time, so expired entries do not count). *)
