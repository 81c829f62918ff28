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
    allocates nothing.  A cached tree is either current or dropped: a
    dropped tree is rebuilt into its own arrays at its source's next
    query, and {!set_link_up} repairs every current tree in place.  A
    cold build and a repair pass run in the profiler's [routing] phase;
    a warm lookup stays in its caller's phase.

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

val drops : t -> Netsim.Drop.t
(** The drop ledger of everything that runs on this graph, made by
    {!create} and always on: every drop and rejection site records in
    it, whether or not a telemetry plane is attached. *)

val set_link_up : t -> Link.t -> bool -> unit
(** Fail or restore a link.  Down links are invisible to shortest-path
    computation.  A change repairs every current tree in place, in one
    [routing] phase call, and leaves dropped trees dropped.  A repair
    re-settles only the states whose distance the change moves (below
    the link when it fails, what it shortens when it comes back), then
    gives every state it touched the predecessor a build would: among
    the in-neighbour states [u] with [dist u +. latency = dist s], the
    one with the smallest (dist u, u).  A repaired tree therefore
    equals a build bit for bit.  The first repair allocates the
    repair's scratch arrays; a repair allocates nothing after that. *)

val invalidate_cache : t -> unit
(** Drop every cached tree; each is rebuilt from scratch, in place, on
    its source's next query.  {!connect} and {!add_node} call it; a
    link change does not. *)
