(** Model of the LISP-ALT overlay.

    ALT routes map-requests over a GRE/BGP overlay organised as an
    aggregation hierarchy of the EID space.  We model the hierarchy as a
    complete [fanout]-ary tree with one leaf per domain: a request
    climbs from the source leaf to the lowest common ancestor and
    descends to the destination leaf, paying a per-hop overlay latency
    (each overlay hop is itself a tunnel across the internet, so the
    default 20 ms per hop is conservative).  The map-reply returns
    directly over the underlay, as the ALT draft specifies. *)

type t

val create : domains:int -> ?fanout:int -> ?hop_latency:float -> unit -> t
(** [fanout] defaults to 2, [hop_latency] to 20 ms.  [domains] must be
    positive. *)

val depth : t -> int
(** Leaf depth of the aggregation tree. *)

val request_hops : t -> src:int -> dst:int -> int
(** Overlay hops from the leaf of domain [src] to the leaf of domain
    [dst] (0 when [src = dst]). *)

val request_latency : t -> src:int -> dst:int -> float
(** Hops times per-hop latency. *)

val mean_request_latency : t -> float
(** Average over all ordered distinct leaf pairs — used for reporting
    expected resolution cost. *)

type usage = { mutable requests : int; mutable hops_total : int }

val usage : t -> usage
val note_request : t -> src:int -> dst:int -> unit
(** Record a request for the usage counters. *)
