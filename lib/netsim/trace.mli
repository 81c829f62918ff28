(** Timeline recording for simulation walkthroughs.

    A trace is an append-only log of [(time, actor, event)] entries.
    Subscribed to a scenario's event hub ([Obs.Hub.trace_sink]) it
    holds the step-by-step walkthrough of the paper's Figure 1; tests
    use it to assert event ordering.

    Storage is a structure-of-arrays ring buffer (timestamps in an
    unboxed [float array]): recording writes three array cells and
    allocates no per-entry queue cell, and a [?capacity] bound
    overwrites the oldest slot in place. *)

type t

type entry = { time : float; actor : string; event : string }

val create : ?capacity:int -> unit -> t
(** [capacity] bounds the retained entries: once exceeded, recording a
    new entry discards the oldest one (a ring buffer), so production-
    scale runs cannot grow the log without bound.  [length] keeps
    counting every recorded entry; {!entries} returns the retained
    window.  Raises [Invalid_argument] when [capacity <= 0]. *)

val record : t -> time:float -> actor:string -> string -> unit
(** Append an entry. *)

val entries : t -> entry list
(** Retained entries in chronological (= insertion) order.  With a
    [?capacity] bound this is the most recent window only. *)

val length : t -> int
(** Total entries ever recorded, including any that a capacity bound
    has since discarded. *)

val retained : t -> int
(** Entries currently held (= [length] unless a capacity bound has
    discarded old ones). *)

val clear : t -> unit

val pp : Format.formatter -> t -> unit
(** Render as an aligned [t=...s  actor  event] listing. *)

val find : t -> f:(entry -> bool) -> entry option
(** First matching entry, if any. *)

val iter : t -> f:(float -> string -> string -> unit) -> unit
(** [iter t ~f] applies [f time actor event] to each retained entry in
    order, without materialising entry records. *)

val merge : t list -> t
(** Deterministic merge of per-shard traces: the retained entries of
    all inputs ordered by [(time, shard, per-shard order)], where
    [shard] is the trace's position in the list.  Because each shard's
    trace is deterministic in isolation and the key ignores wall-clock
    arrival, merging the traces of a [Engine.Shards] run yields
    byte-identical output whether the shards ran in parallel or
    sequentially. *)
