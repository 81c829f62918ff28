(** Internet builders.

    An {!t} is a complete simulated internetwork: transit providers in a
    core mesh, multihomed LISP domains hanging off them, and the shared
    DNS infrastructure (root and TLD server nodes).  {!figure1} rebuilds
    the exact two-domain scenario of the paper's Figure 1; {!generate}
    grows parameterised random internets for the scaling experiments. *)

type provider = {
  core : Node.id;  (** the provider's point of presence *)
  prefix : Nettypes.Ipv4.prefix;  (** RLOC space, e.g. 10.0.0.0/8 *)
  provider_name : string;
}

type index
(** The identity index behind {!domain_of_eid} and {!border_of_rloc},
    built with the internet. *)

type t = {
  graph : Graph.t;
  providers : provider array;
  domains : Domain.t array;  (** indexed by {!Domain.t.id} *)
  root_dns : Node.id;  (** DNS root server *)
  tld_dns : Node.id;  (** server authoritative for [net.] *)
  index : index;
}

type core_shape =
  | Full_mesh  (** every provider core peers with every other *)
  | Two_tier of int
      (** the first [n] providers form a full-mesh tier 1; every other
          provider (tier 2) buys transit from two tier-1 providers and
          has no lateral links — hierarchical paths like the real
          transit market *)

type params = {
  domain_count : int;
      (** at most 65 536: domain [i] owns the EID prefix
          100.(i / 256).(i mod 256).0/24 *)
  provider_count : int;  (** at most 100 *)
  borders_per_domain : int;  (** clamped to [provider_count] *)
  hosts_per_domain : int;  (** at most 254 *)
  core_shape : core_shape;
  core_latency : float * float;  (** uniform range, seconds *)
  access_latency : float * float;
  internal_latency : float;
  access_capacity_bps : float;
  core_capacity_bps : float;
}

val default_params : params
(** 10 domains, 4 providers (full-mesh core), 2 borders and 4 hosts per
    domain, core latencies U[15 ms, 40 ms], access U[2 ms, 8 ms],
    internal 1 ms, 1 Gbit/s access, 100 Gbit/s core. *)

val generate : Netsim.Rng.t -> params -> t
(** Random internet: providers in a full mesh; each domain attaches its
    borders to distinct random providers. *)

val figure1 : ?scale:float -> unit -> t
(** The paper's Figure 1: AS_S multihomed to providers A (10/8) and
    B (11/8) through two border routers; AS_D multihomed to X (12/8) and
    Y (13/8); two hosts on each side; deterministic latencies.  [scale]
    (default 1.0) multiplies every core and access latency — the OWD
    sweep of experiment F7. *)

val domain_of_eid : t -> Nettypes.Ipv4.addr -> Domain.t option
(** The domain whose EID prefix holds the address.  O(1) and
    allocation-free: the address's middle 16 bits name the one
    candidate of the EID plan, whose prefix confirms it. *)

val border_of_rloc : t -> Nettypes.Ipv4.addr -> (Domain.t * int) option
(** The domain and border index of the border router that carries the
    RLOC.  O(1) and allocation-free: one hash-table probe. *)

val latency : t -> Node.id -> Node.id -> float
(** Shortest-path latency between any two nodes. *)
