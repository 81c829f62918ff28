(** Per-flow mapping entries installed by the PCE control plane.

    Step 7b of the paper pushes the tuple [(E_S, E_D, RLOC_S, RLOC_D)] to
    the ITRs; this table stores those tuples keyed by the (source EID,
    destination EID) pair.  Unlike the map-cache, entries are exact-match
    on the EID pair, which is what allows two flows between the same
    domains to use different ingress/egress locators. *)

type t

val create : ?ttl:float -> unit -> t
(** [ttl] (default 300 s) bounds the lifetime of installed entries. *)

val install : t -> now:float -> Nettypes.Mapping.flow_entry -> unit
(** Insert or refresh the entry for the entry's EID pair. *)

val lookup :
  t -> now:float -> src_eid:Nettypes.Ipv4.addr -> dst_eid:Nettypes.Ipv4.addr ->
  Nettypes.Mapping.flow_entry option
(** Exact match on the EID pair; expired entries are absent.  A hit
    returns the option made when the entry was installed, so lookups
    allocate nothing. *)

val length : t -> now:float -> int
(** Number of live entries at [now].  Expired slots encountered during
    the count are reaped, so occupancy gauges report only entries a
    lookup could still return. *)

val iter : t -> now:float -> f:(Nettypes.Mapping.flow_entry -> unit) -> unit
(** Visit live entries; expired slots encountered are reaped. *)
