(** Control-plane cost accounting, shared by every mapping-system
    implementation so experiment T5 can compare them on equal terms. *)

type t = {
  mutable map_requests : int;
  mutable map_replies : int;
  mutable push_messages : int;  (** database/flow-entry push messages *)
  mutable control_bytes : int;  (** bytes of all control messages *)
  mutable detoured_packets : int;  (** data packets carried over the CP *)
  mutable resolutions : int;  (** completed EID-to-RLOC resolutions *)
  mutable retransmissions : int;
      (** control messages re-sent after a retry timer fired *)
  mutable timeouts : int;
      (** resolutions/pushes abandoned after the retry budget ran out *)
  mutable bypasses : int;
      (** DNS answers delivered past a crashed PCE (un-piggybacked) *)
  mutable recoveries : int;
      (** warm recoveries performed by restarting PCEs *)
  mutable spoofed_accepted : int;
      (** forged map-replies that beat verification and were installed *)
  mutable spoofed_rejected : int;
      (** forged map-replies refused by nonce/signature checks *)
  mutable replayed_accepted : int;
      (** replayed stale replies accepted (no nonce echo in force) *)
  mutable replayed_rejected : int;
      (** replayed stale replies refused by the nonce echo *)
}

val create : unit -> t

val message_total : t -> int
(** Requests + replies + pushes. *)

val pp : Format.formatter -> t -> unit
