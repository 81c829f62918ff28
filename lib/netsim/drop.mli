(** Drop causes and the drop ledger.

    Every packet death and every control-plane rejection in a run has
    one typed {!cause}.  A scenario's ledger ({!t}) counts them per
    (node, cause): [Topology.Graph.create] makes one per graph, so each
    scenario has its own, and it is always on.  Each drop or rejection
    site makes one {!record} call; the dataplane's per-cause list, the
    telemetry plane's drop reports and the [dropped] gauge all read the
    ledger, and make labels only when they print.  The ledger counts
    simulated quantities and never schedules events or draws
    randomness. *)

(** {1 Causes} *)

type cause =
  | No_route  (** link failures disconnected the endpoints *)
  | No_such_eid  (** destination EID is in no domain *)
  | No_receiver  (** destination host has no receiver installed *)
  | No_such_rloc  (** encap target RLOC is not a border router *)
  | Rloc_unreachable  (** RLOC's access link is down *)
  | Post_resolution_miss  (** resolution completed but installed nothing *)
  | Mapping_resolution_drop  (** mapping system answered negatively *)
  | Resolution_abandoned  (** retry budget exhausted while held *)
  | Resolution_timeout  (** resolution outlived its deadline *)
  | Resolution_queue_overflow  (** per-EID hold queue was full *)
  | Nerd_database_miss  (** EID absent from the pushed NERD database *)
  | No_such_eid_domain  (** resolver found no owning domain *)
  | Pce_no_mapping_forward  (** PCE push lost the race, forward path *)
  | Pce_no_mapping_reverse  (** PCE push lost the race, reverse path *)
  | Cp_message_loss  (** control-plane message eaten by {!Faults} *)
  | Outage_failure  (** query failed against a crashed node *)
  | Spoofed_reply_rejected
      (** forged map-reply failed nonce/signature verification *)
  | Replayed_reply_rejected  (** stale replayed reply failed the nonce echo *)
  | Glean_admission_rejected
      (** gleaned mapping refused by the cache admission policy *)

val all : cause list
(** Every cause, in declaration order: the order ties break in. *)

val label : cause -> string
(** Stable report label: the constructor name in lower case, with
    dashes for underscores.  Tables, JSON snapshots, registry gauges
    and [Packet_drop] events carry it. *)

val of_label : string -> cause option
(** Inverse of {!label}; [None] for a string no cause labels. *)

(** {1 Classes} *)

val is_packet : cause -> bool
(** A packet died: the dataplane counted it in its [dropped] counter.
    Otherwise the cause is a rejection ([Cp_message_loss],
    [Outage_failure] and the three [*_rejected] causes): a control
    message, query or mapping was refused and no data packet was
    lost. *)

val is_wait : cause -> bool
(** The held or unmapped first packet died while the control plane
    worked: the paper's weakness (i).  These are the three
    [Resolution_*] causes, [Mapping_resolution_drop] and the
    no-resolution causes. *)

val is_no_resolution : cause -> bool
(** A wait drop after which no resolution is or will be in flight: the
    mapping does not exist ([Nerd_database_miss] and both
    [Pce_no_mapping_*] causes). *)

(** {1 The ledger} *)

type t

val create : unit -> t
(** An empty ledger. *)

val record : t -> node:int -> cause -> unit
(** One drop or rejection at [node]; pass [node = -1] when no single
    node is attributable.  Allocates only when a new node row first
    appears. *)

val count : t -> cause -> int
val total : t -> int
(** All causes, rejections included. *)

val totals : t -> (cause * int) list
(** Causes with a nonzero count, by descending count, ties in {!all}
    order. *)

val by_node : t -> (int * (cause * int) list) list
(** Per-node cause counts, ascending node, causes in {!all} order; node
    [-1] collects the drops recorded without an attributable node. *)
