(** Bidirectional links with per-direction byte accounting.

    Latency is symmetric; capacity applies to each direction
    independently.  The traffic-engineering experiments read the byte
    counters to compute per-direction utilisation of a domain's provider
    uplinks. *)

type t

type kind =
  | Internal  (** intra-domain wiring (hub spokes, DNS/PCE taps) *)
  | External  (** provider access links and the core mesh *)

val create :
  id:int -> a:Node.id -> b:Node.id -> latency:float -> ?capacity_bps:float ->
  ?kind:kind -> unit -> t
(** [id] is the link's number in its graph ({!Graph.connect} passes
    the next dense one).  [latency] in seconds, must be positive.
    [capacity_bps] defaults to 1 Gbit/s; [kind] to [External].
    Shortest-path computation uses the kind to keep inter-domain routes
    valley-free: a path may use internal links only while leaving its
    source domain or after entering its destination domain, never to
    transit through a third domain. *)

val id : t -> int
(** Dense per-graph id: a graph numbers its links 0..n-1 in creation
    order.  The key for the telemetry plane's per-link stores. *)

val a : t -> Node.id
val b : t -> Node.id
val latency : t -> float
val capacity_bps : t -> float
val kind : t -> kind

val other_end : t -> Node.id -> Node.id
(** The opposite endpoint; raises [Invalid_argument] if the node is not
    an endpoint of this link. *)

val is_up : t -> bool
(** Links start up; failure experiments flip them via
    {!Graph.set_link_up}, which also repairs the graph's cached
    shortest-path trees. *)

val set_up_internal : t -> bool -> unit
(** For [Graph.set_link_up] only.  The graph repairs its cached trees
    at each change it makes, so a change made here is never repaired:
    every cached tree stays wrong, not merely stale, until the graph
    drops it.  Always go through the graph. *)

val account : t -> src:Node.id -> bytes:int -> unit
(** Record [bytes] flowing from endpoint [src] toward the other end.
    A plain byte counter: {!Graph.account_path} also feeds the graph's
    telemetry plane, if it has one. *)

val bytes_from : t -> Node.id -> int
(** Cumulative bytes sent from the given endpoint over this link. *)

val utilisation_from : t -> Node.id -> duration:float -> float
(** Average utilisation (offered bits / capacity) of the direction
    leaving [src] over a window of [duration] seconds. *)

val reset_counters : t -> unit
