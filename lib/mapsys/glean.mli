(** Symmetric-return bookkeeping (LISP gleaning).

    Plain LISP reuses a flow's forward ETR as the reverse-direction ITR
    to avoid a second mapping resolution — the inbound-TE limitation the
    paper attacks.  This table records, per domain, which border received
    traffic from a remote EID, so the baseline control planes can route
    the reverse flow out through that same border.

    Because the table is populated from unauthenticated data-packet
    source fields, an EID-scan flood can grow it without bound; [cap]
    bounds the population with oldest-first (FIFO) eviction. *)

type t

val create : ?cap:int -> unit -> t
(** [cap], when given, must be positive and bounds the number of live
    entries: a note for a brand-new key beyond the cap evicts the
    oldest-noted live key first.  Unbounded by default. *)

val note :
  t -> domain:int -> remote_eid:Nettypes.Ipv4.addr -> border:Topology.Domain.border -> unit
(** Remember that [domain] last heard from [remote_eid] through
    [border].  Re-noting an existing key replaces the border without
    changing its eviction age. *)

val lookup :
  t -> domain:int -> remote_eid:Nettypes.Ipv4.addr -> Topology.Domain.border option

val entries : t -> int

val cap : t -> int option

val evictions : t -> int
(** Entries dropped by the cap since creation. *)
