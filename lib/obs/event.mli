(** Structured, flow-scoped simulation events.

    Every observable step of a run — DNS resolution, mapping
    resolution, cache behaviour, tunnelling, TE decisions, failures —
    is one typed event carrying the simulated time, the emitting actor
    and, when the step belongs to a flow, a direction-insensitive flow
    id.  Events reach the outside world through {!Hub} sinks. *)

open Nettypes

type kind =
  | Dns_query of { qname : string }
  | Dns_reply of { qname : string; answered : bool }
  | Map_request of { eid : Ipv4.addr }
  | Map_reply of { eid : Ipv4.addr }
  | Cache_hit of { eid : Ipv4.addr }
  | Cache_miss of { eid : Ipv4.addr }
  | Cache_evict of { prefix : Ipv4.prefix }
  | Mapping_push of { targets : int }
      (** NERD pushed a database update to [targets] routers *)
  | Packet_drop of { cause : string }
  | Encap of { outer_src : Ipv4.addr; outer_dst : Ipv4.addr }
  | Decap of { outer_src : Ipv4.addr }
  | Irc_decision of { rloc : Ipv4.addr }
  | Link_up of { rloc : Ipv4.addr }
  | Link_down of { rloc : Ipv4.addr }
  | Cp_loss of { message : string }
      (** a control message ("map-request", "map-reply", "pce-push",
          "nerd-push") was lost to the fault model *)
  | Cp_retry of { eid : Ipv4.addr; attempt : int; message : string }
      (** retry timer fired; [attempt] numbers the retransmission (1 =
          first retransmit) and [message] names the originating control
          message ("map-request", "pce-push", ...) *)
  | Cp_timeout of { eid : Ipv4.addr; message : string }
      (** retry budget exhausted; the resolution/push was abandoned *)
  | Conn_open of { dst : Ipv4.addr }
      (** a workload flow starts connection setup (DNS lookup begins) *)
  | Conn_established  (** three-way handshake completed at the initiator *)
  | Conn_failed of { reason : string }
      (** connection setup abandoned ("resolution-failed",
          "syn-retries-exhausted") *)
  | Syn_sent of { attempt : int }
      (** initiator (re)transmitted its SYN; [attempt] is 1-based *)
  | Syn_received  (** the first SYN copy reached the responder *)
  | Run_start of { label : string }
      (** stream marker separating runs in a multi-run JSONL trace *)
  | Note of string  (** free-form text (e.g. a warm-recovery summary) *)
  | Node_crash of { role : string }
      (** a node went down per the lifecycle schedule; [role] is
          {!Netsim.Lifecycle.role_label} output ("pce(1)", "dns(0)",
          "map-server") *)
  | Node_restart of { role : string }
      (** the node came back up (warm recovery begins for PCEs) *)
  | Pce_bypass of { qname : string }
      (** a DNS server's watchdog expired waiting on its dead PCE; the
          answer for [qname] was delivered un-piggybacked *)
  | Degraded_to_pull of { eid : Ipv4.addr }
      (** an ITR cache miss could not be served by PCE push and fell
          back to the pull mapping system *)
  | Spoofed_reply of { eid : Ipv4.addr; accepted : bool }
      (** an adversary's forged map-reply raced the resolution of [eid];
          [accepted] tells whether it beat the verification in force *)
  | Replayed_reply of { eid : Ipv4.addr; accepted : bool }
      (** a captured stale map-reply was replayed at a live resolution *)
  | Poisoned_answer of { qname : string; accepted : bool }
      (** the resolver-bound DNS answer for [qname] was raced by a
          forged one *)
  | Glean_rejected of { eid : Ipv4.addr }
      (** the cache admission policy refused a gleaned mapping *)
  | Ipc_query of { qname : string; client : Ipv4.addr }
      (** step 1: PCE_S learns a local client's query by IPC with DNS_S *)
  | Dns_iterate of { qname : string; server : string }
      (** steps 2-5: the resolver sends an iterative query to [server]
          (a node label) *)
  | Answer_intercept of { qname : string; eid : Ipv4.addr; rloc : Ipv4.addr }
      (** step 6: PCE_D intercepts the authoritative answer on DNS_D's
          wire and piggybacks the mapping [eid -> rloc] on it *)
  | Answer_decap of { qname : string; pending : int }
      (** step 7: PCE_S decapsulates the port-P message; [pending] local
          clients wait for their tuples *)
  | Tuple_push of { entry : Mapping.flow_entry; targets : int }
      (** step 7b: a PCE pushes one per-flow tuple to [targets] ITRs of
          its domain (NERD's database pushes are [Mapping_push]) *)
  | Reverse_learn of { entry : Mapping.flow_entry }
      (** a tunneled packet taught an ETR (at [entry.src_rloc]) the
          reverse mapping of its flow *)

type t = { time : float; actor : string; flow : int option; kind : kind }

val flow_id : Flow.t -> int
(** Stable flow identifier; a flow and its reverse (the SYN/ACK
    direction) map to the same id so both tunnel directions correlate. *)

val kind_name : kind -> string
(** Snake-case tag, also the JSON ["kind"] field. *)

val describe : t -> string
(** Human-readable one-liner, the single renderer of events: the
    walkthrough ring ({!Hub.trace_sink}) shows exactly this text. *)

val to_json : t -> Json.t
(** Flat object with [time], [actor], [kind], optional [flow], and
    kind-specific payload fields. *)

val of_json : Json.t -> (t, string) result
(** Inverse of {!to_json}; [Error] on unknown kinds or missing fields. *)
