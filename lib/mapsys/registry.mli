(** The authoritative EID-to-RLOC database.

    Every domain registers its advertised mapping here; the mapping
    systems differ only in {e how} this ground truth reaches the ITRs
    (pulled over ALT, pushed NERD-style, piggybacked by the PCE), so one
    shared registry keeps the comparison honest. *)

type t

val create : internet:Topology.Builder.t -> ttl:float -> t
(** Registers the advertised mapping of every domain in the internet
    with the given mapping TTL. *)

val mapping_of_domain : t -> int -> Nettypes.Mapping.t
(** By domain id; raises [Invalid_argument] for an unknown id. *)

val update_mapping : t -> int -> Nettypes.Mapping.t -> unit
(** Replace a domain's registration (mapping churn experiments). *)

val authoritative_rloc : Nettypes.Mapping.t -> Nettypes.Ipv4.addr
(** The locator of the map-server-like ETR that answers map-requests for
    a mapping (its best RLOC, deterministically the first). *)

val size : t -> int
(** Number of registered mappings. *)

val total_wire_bytes : t -> int
(** Encoded size of a {!Wire.Codec.Database_push} carrying the full
    database — the cost of a NERD-style full push to one router. *)

val iter : t -> f:(int -> Nettypes.Mapping.t -> unit) -> unit
(** Visit registrations in ascending domain-id order. *)
