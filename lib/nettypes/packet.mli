(** Data-plane packets.

    A packet carries a TCP-model segment between two EIDs.  A LISP ITR
    wraps it in an outer locator header ({!encapsulate}); the ETR strips
    it ({!decapsulate}).  Sizes follow the usual header accounting so the
    byte counters feeding link utilisation are realistic. *)

type segment =
  | Syn
  | Syn_ack
  | Ack
  | Data of int  (** payload bytes *)
  | Fin

val pp_segment : Format.formatter -> segment -> unit
val segment_bytes : segment -> int
(** Payload bytes carried by the segment (0 except for [Data]). *)

type encap = { outer_src : Ipv4.addr; outer_dst : Ipv4.addr }
(** LISP outer header: RLOC-to-RLOC. *)

type t = {
  flow : Flow.t;
  segment : segment;
  sent_at : float;  (** emission time at the source host *)
  encap : encap option;  (** present between ITR and ETR *)
}

val make : flow:Flow.t -> segment:segment -> sent_at:float -> t
(** Fresh packet with no encapsulation. *)

val encapsulate : t -> outer_src:Ipv4.addr -> outer_dst:Ipv4.addr -> t
(** Raises [Invalid_argument] if the packet is already encapsulated. *)

val decapsulate : t -> t
(** Raises [Invalid_argument] if the packet is not encapsulated. *)

val is_encapsulated : t -> bool

val size : t -> int
(** On-wire bytes: 20 (IP) + 20 (TCP) + payload, plus 36 bytes of
    IP + UDP + LISP outer headers when encapsulated. *)

val pp : Format.formatter -> t -> unit
