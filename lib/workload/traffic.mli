(** Traffic generation over an internet.

    Draws flows whose destination-domain popularity is Zipf-distributed
    (cache-friendliness knob of experiments T1/F3).  Source ports are allocated sequentially within
    the ephemeral range [1024, 65535]; when they wrap (runs past ~64k
    flows) the destination port is stepped instead, so the full
    (src, dst, src_port, dst_port) tuple keeps every generated flow
    unique well past a billion flows. *)

type t

val create :
  rng:Netsim.Rng.t ->
  internet:Topology.Builder.t ->
  ?zipf_alpha:float ->
  ?hotspots:(int * float) list ->
  unit ->
  t
(** [zipf_alpha] (default 0.9) shapes destination-domain popularity.
    [hotspots] overrides popularity entirely: a list of
    [(domain id, weight)] from which destinations are drawn — used by
    the TE experiments to aim load at one multihomed victim domain. *)

val random_flow : t -> ?src_domain:int -> ?dst_domain:int -> unit -> Nettypes.Flow.t
(** Draw a flow: source domain uniform (unless fixed), destination by
    popularity (unless fixed), hosts uniform, fresh (src_port, dst_port)
    pair.  The destination domain always differs from the source
    domain. *)
