(** Route-control policies.

    The paper delegates ingress/egress locator selection to "the
    algorithms used today by Intelligent Route Control"; these are the
    standard objectives such engines offer.  A policy scores the
    candidate border routers of a domain for a flow; the selector picks
    the best score (with stickiness and hysteresis applied on top). *)

type t =
  | Min_latency  (** lowest path latency toward the flow's remote end *)
  | Min_load  (** least-utilised provider uplink (EWMA) *)
  | Weighted of { latency_weight : float; load_weight : float }
      (** convex blend of normalised latency and load *)
  | Round_robin  (** cycle through the borders per selection *)
  | Flow_hash  (** static hash of the flow five-tuple (ECMP-style) *)

val to_string : t -> string

val score :
  t ->
  latency:float ->
  load:float ->
  latency_scale:float ->
  float
(** [score p ~latency ~load ~latency_scale] is the cost of a candidate
    (lower is better) for the score-based policies.  [latency_scale]
    normalises latency into roughly [0, 1] (e.g. the max candidate
    latency).  [Round_robin] and [Flow_hash] are not score-based; they
    return 0 and are handled by the selector. *)
