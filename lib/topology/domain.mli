(** A LISP-capable domain (autonomous system).

    A domain owns an EID prefix (not globally routable), a set of hosts,
    a local recursive DNS server, a PCE node, and one or more border
    routers.  Each border router attaches to a transit provider and
    carries an RLOC from that provider's address space — the multihoming
    that makes the paper's TE claim meaningful. *)

type border = {
  router : Node.id;  (** the ITR/ETR node *)
  rloc : Nettypes.Ipv4.addr;  (** globally routable locator *)
  provider : int;  (** index of the provider it attaches to *)
  uplink : Link.t;  (** access link whose load TE balances *)
}

type t = {
  id : int;
  name : string;  (** DNS label, e.g. ["as3"]; FQDN is [as3.net.] *)
  eid_prefix : Nettypes.Ipv4.prefix;
  hosts : Node.id array;
  borders : border array;  (** never empty *)
  hub : Node.id;  (** internal switch joining hosts, borders, DNS *)
  dns : Node.id;  (** local recursive resolver *)
  pce : Node.id;  (** PCE co-located with the DNS path *)
}

val pp : Format.formatter -> t -> unit

val host_eid : t -> int -> Nettypes.Ipv4.addr
(** EID of the [i]-th host (offset [i + 1] inside the EID prefix, leaving
    the network address unused). *)

val host_index : t -> Nettypes.Ipv4.addr -> int
(** Inverse of {!host_eid}: the host's index, or [-1] for an address
    that is not a host EID of this domain.  Arithmetic, and it
    allocates nothing. *)

val owns_eid : t -> Nettypes.Ipv4.addr -> bool

val rlocs : t -> Nettypes.Ipv4.addr list
(** All border RLOCs, in border order. *)

val advertised_mapping : t -> ttl:float -> Nettypes.Mapping.t
(** The EID-to-RLOC mapping this domain registers in a mapping system:
    its EID prefix bound to the RLOCs of every border whose uplink is
    alive, at equal priority, weights proportional to uplink capacity.
    (All borders are included if every uplink is down, so the mapping
    stays well-formed.) *)

val fqdn : t -> string
(** Fully qualified DNS zone name, e.g. ["as3.net."]. *)

val host_name : t -> int -> string
(** ["h<i>.as<d>.net."] — the name end-systems resolve. *)
