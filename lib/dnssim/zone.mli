(** Authoritative DNS zones.

    A zone lives on one server node and holds A records plus delegations
    to child zones.  {!answer} implements the authoritative lookup an
    iterative resolver drives: final answer, referral toward a child
    zone, or name error. *)

type t

val create : apex:Name.t -> server:Topology.Node.id -> ttl:float -> t
(** [ttl] (seconds) applies to every record served from the zone. *)

val apex : t -> Name.t
val server : t -> Topology.Node.id
val ttl : t -> float

val add_a : t -> Name.t -> Nettypes.Ipv4.addr -> unit
(** Bind an A record.  The name must be inside the zone.  Re-adding
    replaces. *)

val delegate : t -> child_apex:Name.t -> child_server:Topology.Node.id -> unit
(** Delegate a child zone.  The child apex must be strictly below this
    zone's apex. *)

val record_count : t -> int

type answer =
  | Address of Nettypes.Ipv4.addr  (** authoritative A answer *)
  | Referral of Name.t * Topology.Node.id  (** ask the child zone's server *)
  | Name_error  (** no such name in this zone *)

val answer : t -> Name.t -> answer
(** Authoritative response for a query name.  Names outside the zone get
    [Name_error] (the simulator never misdirects queries, but the case
    must be total). *)

val answer_wire_size : Name.t -> answer -> int
(** Approximate response message size in bytes. *)
