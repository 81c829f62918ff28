(** Per-domain Path Computation Element.

    Each domain runs one PCE sitting on its DNS server's wire.  The PCE
    plays two roles:

    - {b PCE_S} (source side): learns E_S when a local client queries
      the resolver (step 1), chooses the ingress locator RLOC_S for the
      flow's {e reverse} traffic with its IRC engine, and — when the
      encapsulated answer arrives from the remote PCE — pushes the
      per-flow tuple to the domain's ITRs (step 7b);
    - {b PCE_D} (destination side): keeps, per local EID, the
      currently-best ingress locator RLOC_D (refreshed in the background
      by the same IRC engine) so it can stamp mappings onto outgoing DNS
      answers at line rate (step 6).

    This module is the PCE's {e state}; the wiring into DNS taps and the
    data plane lives in {!Pce_control}. *)

type t

type pending = {
  client_eid : Nettypes.Ipv4.addr;  (** E_S *)
  ingress_rloc : Nettypes.Ipv4.addr;  (** RLOC_S chosen at step 1 *)
  query_time : float;  (** when step 1 happened *)
}

val create :
  domain:Topology.Domain.t ->
  graph:Topology.Graph.t ->
  policy:Irc.Policy.t ->
  t

val domain : t -> Topology.Domain.t
val selector : t -> Irc.Selector.t

val reset : t -> unit
(** Crash state-loss: empty the pending-query table, the flow database,
    the learned-name cache and the advertisement bookkeeping, as if the
    PCE process restarted with a cold in-memory image.  The IRC
    selector's load estimate is kept (it is re-observed immediately on
    restart). *)

val note_client_query :
  t -> now:float -> client_eid:Nettypes.Ipv4.addr -> qname:Dnssim.Name.t -> unit
(** Step 1: record that [client_eid] asked for [qname] and pick RLOC_S
    for the reverse direction. *)

val take_pending : t -> qname:Dnssim.Name.t -> pending list
(** Step 7: consume every pending query for a name (oldest first).
    Subsequent calls return []. *)

val pending_count : t -> int

val ingress_rloc_for_eid :
  t -> eid:Nettypes.Ipv4.addr -> ?peer:Nettypes.Ipv4.addr -> unit ->
  Nettypes.Ipv4.addr
(** PCE_D role: the current-best ingress locator for a local EID.
    [peer] identifies the querying side (e.g. the remote resolver), so
    stickiness is per (EID, peer) pair and the background IRC engine can
    spread different peers' traffic over different uplinks. *)

val remember_entry : t -> Nettypes.Mapping.flow_entry -> unit
(** Keep a pushed tuple in the PCE database ("updates the PCE_D
    database" on reverse-mapping completion, and the PCE_S bookkeeping
    for egress decisions). *)

val find_entry :
  t -> src_eid:Nettypes.Ipv4.addr -> dst_eid:Nettypes.Ipv4.addr ->
  Nettypes.Mapping.flow_entry option

val entry_count : t -> int

val learn_name_mapping :
  t -> qname:Dnssim.Name.t -> dst_eid:Nettypes.Ipv4.addr ->
  dst_rloc:Nettypes.Ipv4.addr -> now:float -> ttl:float -> unit
(** Remember what a name resolved to and which ingress locator the
    remote PCE advertised.  Required because the local resolver caches
    DNS answers: a cache-served query never reaches PCE_D, so PCE_S must
    be able to configure ITRs for new local clients from its own
    database (the "PCE_S learns the address of PCE_D / retrieves the
    mapping" bookkeeping of step 7). *)

val known_name :
  t -> qname:Dnssim.Name.t -> now:float ->
  (Nettypes.Ipv4.addr * Nettypes.Ipv4.addr) option
(** [(dst_eid, dst_rloc)] if the name's mapping is still fresh. *)

type advertisement = {
  adv_qname : Dnssim.Name.t;
  adv_eid : Nettypes.Ipv4.addr;  (** the local EID advertised *)
  adv_peer : Nettypes.Ipv4.addr;  (** the remote resolver we answered *)
  mutable adv_rloc : Nettypes.Ipv4.addr;  (** RLOC_D we handed out *)
}

val record_advertisement :
  t -> qname:Dnssim.Name.t -> eid:Nettypes.Ipv4.addr ->
  peer:Nettypes.Ipv4.addr -> rloc:Nettypes.Ipv4.addr -> unit
(** PCE_D bookkeeping of step 6: remember which ingress locator each
    peer was given for each local EID, so the locator can be
    re-advertised when its uplink fails. *)

val advertisements_via : t -> rloc:Nettypes.Ipv4.addr -> advertisement list
(** Advertisements currently pointing at the given locator. *)

val entries_toward : t -> dst_eid:Nettypes.Ipv4.addr -> Nettypes.Mapping.flow_entry list
(** Database entries whose destination is the given EID (the tuples a
    peer update must refresh). *)

val entries_with_src_rloc : t -> rloc:Nettypes.Ipv4.addr -> Nettypes.Mapping.flow_entry list
(** Database entries whose reverse locator (RLOC_S) is the given one —
    the tuples to re-home when a local uplink fails. *)
