(** TCP end-host model.

    The paper's latency claim is about TCP connection establishment:
    [T_DNS + 2·OWD(S,D) + OWD(D,S)] without LISP versus an extra
    [T_map_resol] with it.  This driver models exactly the parts that
    matter for that claim: the three-way handshake, RFC-style
    exponential SYN retransmission (initial RTO 1 s, doubling, bounded
    retries), and a one-way data phase whose per-packet delivery is
    tracked so drop experiments can count losses.

    One driver instance owns all hosts of an internet: it registers
    itself as the dataplane receiver for every host EID and multiplexes
    connections by flow. *)

type t

val create :
  engine:Netsim.Engine.t ->
  dataplane:Lispdp.Dataplane.t ->
  ?data_gap:float ->
  ?obs:Obs.Hub.t ->
  unit ->
  t
(** The SYN timer starts at 1 s and doubles on each of at most 6
    retransmissions (RFC 6298 style).  [data_gap] (pacing between data
    packets) defaults to 2 ms.
    On an enabled [?obs] hub (default: a fresh disabled one), handshake
    milestones ([Syn_sent], [Syn_received], [Conn_established],
    [Conn_failed]) are emitted for the span layer; a disabled hub costs
    one boolean test per site. *)

type conn = {
  flow : Nettypes.Flow.t;
  started_at : float;  (** first SYN emission time *)
  mutable established_at : float option;  (** SYN/ACK received back *)
  mutable failed : bool;  (** SYN retries exhausted *)
  mutable syn_transmissions : int;  (** total SYNs sent (>= 1) *)
  mutable first_syn_arrival : float option;
      (** when the {e first-emitted} SYN (or a retry) first reached the
          responder — the first-packet delivery delay of experiment F2 *)
  mutable data_sent : int;
  mutable data_delivered : int;
  mutable completed_at : float option;  (** all data packets arrived *)
}

val handshake_time : conn -> float option
(** [established_at - started_at], when established. *)

val start_connection :
  t ->
  flow:Nettypes.Flow.t ->
  ?data_packets:int ->
  ?data_bytes:int ->
  ?on_established:(conn -> unit) ->
  ?on_complete:(conn -> unit) ->
  unit ->
  conn
(** Open a connection; [data_packets] (default 10) segments of
    [data_bytes] (default 1200) follow the handshake from the initiator
    to the responder.  [on_complete] fires when the responder has
    received every data segment; it never fires for failed or lossy
    connections. *)

val connections : t -> conn list
(** All connections ever started, oldest first. *)

val summary :
  t -> established:int ref -> failed:int ref -> retransmissions:int ref -> unit
(** Fold headline counts into the given refs (convenience for
    experiment code). *)
