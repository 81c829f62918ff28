(** Flow identities.

    A flow is one transport connection between two end-hosts, identified
    by the classic five-tuple.  [hash] gives the stable value used for
    deterministic RLOC load-sharing and round-robin tie-breaking. *)

type proto = Tcp | Udp

type t = {
  src : Ipv4.addr;  (** source EID *)
  dst : Ipv4.addr;  (** destination EID *)
  src_port : int;
  dst_port : int;
  proto : proto;
}

val create :
  src:Ipv4.addr -> dst:Ipv4.addr -> ?src_port:int -> ?dst_port:int ->
  ?proto:proto -> unit -> t
(** Defaults: [src_port = 0], [dst_port = 80], [proto = Tcp]. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int

val hash_fields :
  src:Ipv4.addr -> dst:Ipv4.addr -> src_port:int -> dst_port:int -> proto -> int
(** [hash] of the flow with these fields, without building the record. *)

val reverse : t -> t
(** The same connection seen from the responder's side. *)

val pp : Format.formatter -> t -> unit

module Set : Set.S with type elt = t
