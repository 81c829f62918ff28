(** EID-to-RLOC mappings.

    A mapping binds an EID prefix to the set of RLOCs (border-router
    locators) through which the prefix is reachable, with LISP's
    priority/weight selection semantics and a time-to-live.  The
    PCE control plane additionally installs {!flow_entry} records — the
    per-flow tuple [(E_S, E_D, RLOC_S, RLOC_D)] of the paper's step 7b,
    which supports two independent one-way tunnels. *)

type rloc = {
  rloc_addr : Ipv4.addr;  (** globally routable locator *)
  priority : int;  (** lower is preferred, per draft-farinacci-lisp *)
  weight : int;  (** load-share among equal-priority RLOCs *)
}

val rloc : ?priority:int -> ?weight:int -> Ipv4.addr -> rloc
(** Defaults: [priority = 1], [weight = 100]. *)

type t = {
  eid_prefix : Ipv4.prefix;  (** the EIDs this record covers *)
  rlocs : rloc list;  (** candidate locators, never empty *)
  ttl : float;  (** seconds of validity once cached *)
}

val create : eid_prefix:Ipv4.prefix -> rlocs:rloc list -> ttl:float -> t
(** Raises [Invalid_argument] on an empty RLOC list or non-positive
    TTL. *)

val pp : Format.formatter -> t -> unit

val covers : t -> Ipv4.addr -> bool
(** Does the mapping's EID prefix contain the address? *)

val best_rlocs : t -> rloc list
(** The RLOCs of minimal priority (the LISP selection set). *)

val select_rloc : t -> hash:int -> rloc
(** Deterministic weighted choice among {!best_rlocs}, keyed by a flow
    hash so a given flow always picks the same locator. *)

val wire_size : t -> int
(** Bytes of a map-reply record carrying this mapping (approximation of
    the LISP record format: 12-byte header + 12 bytes per RLOC). *)

type flow_entry = {
  src_eid : Ipv4.addr;  (** E_S *)
  dst_eid : Ipv4.addr;  (** E_D *)
  src_rloc : Ipv4.addr;  (** RLOC_S chosen by the local IRC for *inbound* traffic *)
  dst_rloc : Ipv4.addr;  (** RLOC_D toward the destination domain *)
}
(** The paper's per-flow mapping tuple: an ITR encapsulating for this
    flow uses [src_rloc] as the outer source even when that differs from
    its own address, directing the reverse tunnel through a different
    border router. *)

val pp_flow_entry : Format.formatter -> flow_entry -> unit
