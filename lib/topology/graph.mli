(** The topology graph.

    Nodes are added first, then links; shortest-path latencies (Dijkstra
    on link latency) are computed on demand and cached per source.  All
    message and packet delays in the simulator derive from
    {!latency_between}.

    Each source's shortest-path tree is two flat arrays over (node,
    phase) search states: a float array of distances, and an int array
    packing each state's incoming link id and its predecessor's phase
    (the predecessor node is that link's other end).  A binary heap of
    state ids settles states in (distance, state id) order, so ties
    break the same way on every run.  {!latency_between} reads one
    cell; {!path_between} and {!account_path} walk back from the
    destination, one step per hop, and a warm {!account_path}
    allocates nothing.  A dropped tree is rebuilt into its own arrays.
    A cold build runs in the profiler's [routing] phase; a warm lookup
    stays in its caller's phase.

    Routing is {e valley-free}: every path decomposes into an internal
    prefix (leaving the source domain over {!Link.Internal} links), an
    external middle (access and core links), and an internal suffix
    (entering the destination domain).  A domain's internal wiring can
    therefore never act as transit between two providers.  In addition,
    a border router is only reachable from outside through its own
    access link — traffic addressed to an RLOC enters via that RLOC's
    provider, as inter-domain routing would deliver it. *)

type t

val create : unit -> t

val add_node : t -> kind:Node.kind -> label:string -> Node.id
(** Allocates the next dense id. *)

val node : t -> Node.id -> Node.t
(** Raises [Invalid_argument] on an unknown id. *)

val node_count : t -> int

val connect :
  t -> Node.id -> Node.id -> latency:float -> ?capacity_bps:float ->
  ?kind:Link.kind -> unit ->
  Link.t
(** Add a bidirectional link with the next dense id (0, 1, ... per
    graph).  Raises [Invalid_argument] on unknown endpoints, a
    self-loop, or a duplicate link. *)

val link_between : t -> Node.id -> Node.id -> Link.t option
val links : t -> Link.t list
val neighbours : t -> Node.id -> (Node.id * Link.t) list

val latency_between : t -> Node.id -> Node.id -> float
(** Shortest-path latency in seconds.  0 for a node to itself.  Raises
    [Not_found] if the nodes are disconnected. *)

val path_between : t -> Node.id -> Node.id -> Node.id list
(** Shortest path as a node sequence including both endpoints.  Raises
    [Not_found] if disconnected. *)

val account_path : t -> src:Node.id -> dst:Node.id -> bytes:int -> unit
(** Charge [bytes] to every link along the shortest path from [src] to
    [dst] in the forward direction — how data-plane transmissions feed
    the utilisation counters.  With a telemetry plane, also feeds its
    per-link counters and the forwarding counters of interior nodes. *)

val telemetry : t -> Netsim.Telemetry.t option
(** The plane measuring this graph's traffic; [None] (the default)
    means telemetry is off.  Every hook site reads it here. *)

val set_telemetry : t -> Netsim.Telemetry.t -> unit
(** Attach the plane, once, before any traffic ([Scenario.build] does
    this right after building the internet). *)

val set_link_up : t -> Link.t -> bool -> unit
(** Fail or restore a link.  Down links are invisible to shortest-path
    computation.  Any change drops every cached tree ({!invalidate_cache}).
    Dropping only the trees a change affects would not save work: a
    border router's external state is reachable only over its own
    uplink, so every tree from outside its domain uses that uplink.  On
    a flapping internet such a rule dropped every cached tree at every
    flap anyway. *)

val invalidate_cache : t -> unit
(** Drop every cached tree; each is rebuilt, in place, on its source's
    next query.  {!connect}, {!add_node} and {!set_link_up} call it. *)
