(** Causal span trees assembled from the flat {!Hub} event stream.

    A builder folds flow-scoped events into one tree per connection:

    {v
    connection_setup
    |- dns_resolution
    |- handshake
       |- map_resolution
          |- first_packet_wait
             |- attempt-1, attempt-2, ...
    v}

    The phases nest instead of forming flat siblings: the first packet
    waits {e while} the mapping resolves (and the resolution can
    outlive the wait — in drop mode the packet dies instantly while
    the exchange continues to warm the cache), and both run while the
    initiator's SYN timer counts.  Open spans form a per-flow stack;
    because simulated time is monotone, children are contained in
    their parents and siblings never overlap.

    Control-plane events with no flow context (PCE/NERD push retries)
    become zero-duration root spans so they still appear in traces. *)

type outcome = Ok | Lost | Timeout | Failed | Unfinished

val outcome_name : outcome -> string

type t = {
  name : string;
  actor : string;  (** actor of the event that opened the span *)
  flow : int option;
  t0 : float;
  mutable t1 : float;
  mutable outcome : outcome;
  mutable children_rev : t list;  (** reverse order; use {!children} *)
  mutable events : int;  (** events attributed to this span (not children) *)
}

val children : t -> t list
(** Children in open order. *)

val duration : t -> float

val iter : (t -> unit) -> t -> unit
(** Pre-order traversal of a tree. *)

val is_wait_drop : string -> bool
(** Does this {!Event.Packet_drop} cause label mean the flow's first
    packet died while the mapping system worked (the paper's weakness
    (i))?  It does when the label's cause is {!Netsim.Drop.is_wait}; a
    label no cause has is not a wait drop. *)

(** {1 Building} *)

type builder

val create_builder : ?on_root_close:(t -> unit) -> unit -> builder
(** With [on_root_close], finished trees are handed to the callback
    and not retained (bounded memory for 100k-flow runs); without it
    they accumulate and {!roots} returns them. *)

val feed : builder -> Event.t -> unit
(** Fold one event in.  Event times must be non-decreasing. *)

val finish : builder -> now:float -> unit
(** Close every still-open tree as [Unfinished] at [now] and deliver
    it (oldest first). *)

val roots : builder -> t list
(** Completed trees in delivery order; empty when a callback was given. *)

(** {1 Accounting}

    Every fed event is attributed to exactly one span or counted
    unattributed, so [fed = assigned + unattributed] and the sum of
    [events] over all delivered trees equals [assigned]. *)

val fed : builder -> int
val assigned : builder -> int
val unattributed : builder -> int

(** {1 Chrome trace_event export} *)

val trace_json : ?pid:int -> ?process_name:string -> t list -> Json.t list
(** Trace-event objects ([ph:"X"] complete events plus [ph:"M"]
    metadata): one thread per flow tree, thread 0 for the non-flow
    control-plane lane.  Simulated seconds become trace microseconds. *)

val write_chrome_trace : file:string -> (string * t list) list -> unit
(** Write [{"traceEvents": [...], "displayTimeUnit": "ms"}] with one
    process per [(label, roots)] segment.  The file opens directly in
    Perfetto / chrome://tracing. *)
