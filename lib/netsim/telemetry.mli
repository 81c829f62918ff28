(** Network telemetry plane: who carries the traffic, and where does it
    die?

    The simulator's links and counters know cumulative totals, but
    nothing in the stack can answer windowed questions — how much of the
    last second's inbound traffic entered through provider 2, which EIDs
    are hot right now, which node is shedding packets and why.  A plane
    maintains that view: cumulative and sliding-window per-link /
    per-node / per-provider packet+byte counters backed by ring buffers,
    bounded-memory Space-Saving top-k sketches for EIDs and flows, and
    derived traffic-engineering balance metrics (per-provider shares,
    Jain's fairness index, max/min load ratio).  Where packets die, and
    why, is the scenario's {!Drop} ledger: it is always on, and the
    plane's drop reports read it ({!ledger}).

    A plane ({!t}) belongs to one scenario: [Scenario.build] creates it
    from the scenario's config and hands it to the scenario's graph,
    where every hook site reads it.  Two scenarios in one process never
    share counters.  There is no global switch: "disabled" means the
    call site holds no plane, so every hook on the dataplane hot path
    costs one [None] test — no allocation, no clock read
    ([bench/bench_micro.ml] pins the cost, [test/test_telemetry.ml]
    asserts the no-plane path allocates nothing).  A plane observes
    only simulated quantities against the simulated clock and never
    schedules events or draws randomness, so a run with a plane is
    byte-identical to one without.

    All keys are small non-negative ints: {!Topology.Link.id} values
    (dense per graph), {!Topology.Node.id} values, and provider indexes
    from [Topology.Domain.border.provider]. *)

(** {1 Configuration} *)

type config = {
  window_s : float;  (** sliding-window slot length, simulated seconds *)
  slots : int;  (** ring size: the window covers [slots * window_s] *)
  topk : int;  (** Space-Saving sketch capacity *)
}

val default_config : config
(** 60 slots of 1 simulated second, top-32 sketches. *)

(** {1 The plane} *)

type t

val create :
  ?config:config -> node_name:(int -> string) -> drops:Drop.t -> now:float ->
  unit -> t
(** A fresh plane with every counter at zero and its window origin at
    [now] (simulated time).  [node_name] names nodes in reports; a
    scenario passes its graph's labels.  [drops] is the scenario's drop
    ledger (its graph's), which the plane's drop reports read. *)

val config : t -> config

val ledger : t -> Drop.t
(** The drop ledger given to {!create}. *)

val current_slot : t -> int

val node_name : t -> int -> string
(** [node_name] given to {!create}; ["(unattributed)"] for [-1]. *)

(** {1 Registration}

    One-off, off the hot path. *)

val register_uplink : t -> link:int -> provider:int -> egress_dir:int -> unit
(** Tag a provider access link so its traffic aggregates into the
    per-provider stores.  [egress_dir] is the {!on_link} direction that
    leaves the customer domain (0 = a→b, 1 = b→a); the other direction
    counts as provider ingress. *)

(** {1 Hot-path hooks}

    Each does its work unconditionally; a call site without a plane
    skips it with one [None] test. *)

val touch : t -> now:float -> unit
(** Advance the window clock to simulated time [now].  Call sites that
    move packets call this once per packet; the rotation itself is a
    compare (lazy ring invalidation does the rest). *)

val on_link : t -> link:int -> dir:int -> bytes:int -> unit
(** One packet of [bytes] crossed link [link] in direction [dir]
    (0 = a→b, 1 = b→a).  Registered uplinks also feed the provider
    stores. *)

val on_node_tx : t -> node:int -> bytes:int -> unit
(** Packet originated at [node] (host transmit). *)

val on_node_rx : t -> node:int -> bytes:int -> unit
(** Packet delivered to [node] (host receive). *)

val on_node_fwd : t -> node:int -> bytes:int -> unit
(** Packet transited [node] (interior hop of a routed path). *)

val on_flow_packet : t -> eid:int -> flow:int -> unit
(** Feed the heavy-hitter sketches: one packet toward destination [eid]
    on flow [flow] (both as raw ints). *)

val on_select : t -> provider:int -> inbound:bool -> unit
(** The IRC engine assigned a flow to an uplink of [provider]. *)

(** {1 Counter results} *)

type stat = {
  st_pkts : int;  (** cumulative packets since {!create} *)
  st_bytes : int;
  st_win_pkts : int;  (** packets inside the sliding window *)
  st_win_bytes : int;
}

val link_stat : t -> link:int -> dir:int -> stat
val node_stat : t -> node:int -> [ `Tx | `Rx | `Fwd ] -> stat
val provider_stat : t -> provider:int -> [ `In | `Out ] -> stat
(** All return zeros for keys never seen. *)

val providers : t -> int list
(** Providers with registered uplinks or recorded traffic, ascending. *)

val nodes : t -> int list
val links : t -> int list

type slot_sample = {
  sl_slot : int;  (** absolute window index since {!create} *)
  sl_start : float;  (** simulated time the window opened *)
  sl_pkts : int;
  sl_bytes : int;
}

val link_series : t -> link:int -> dir:int -> slot_sample list
val provider_series : t -> provider:int -> [ `In | `Out ] -> slot_sample list
(** Retained windows in ascending slot order (empty slots omitted). *)

val selections : t -> (int * int * int) list
(** Per provider: (provider, outbound assignments, inbound assignments)
    made by the IRC engine since {!create}. *)

(** {1 Derived TE-balance metrics} *)

type balance = {
  bal_providers : int array;
  bal_in_bytes : int array;
  bal_out_bytes : int array;
  bal_in_share : float array;  (** fraction of total inbound bytes *)
  bal_out_share : float array;
  bal_jain_in : float;  (** Jain fairness of inbound provider loads *)
  bal_jain_out : float;
  bal_ratio_in : float;  (** max/min provider load; [infinity] if min 0 *)
  bal_ratio_out : float;
}

val balance : t -> window:bool -> balance
(** TE balance across providers, over the sliding window
    ([window:true]) or cumulatively. *)

(** {1 Heavy hitters} *)

type heavy_hitter = {
  hh_key : int;
  hh_count : int;  (** estimated count: true count <= this *)
  hh_error : int;  (** over-estimation bound: true >= count - error *)
}

val top_eids : t -> heavy_hitter list
val top_flows : t -> heavy_hitter list
(** Monitored keys, descending estimated count.  Any key whose true
    frequency exceeds [total/topk] is guaranteed present. *)

val flow_packets_observed : t -> int

(** {1 Sketch internals (exposed for tests)} *)

module Sketch : sig
  type t

  val create : cap:int -> t
  val observe : t -> int -> unit
  val entries : t -> (int * int * int) list
  (** (key, estimated count, error) descending by count. *)

  val total : t -> int
end
