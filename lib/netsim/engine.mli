(** Discrete-event simulation engine.

    The engine owns a virtual clock and a priority queue of timestamped
    callbacks.  Events scheduled for the same instant fire in FIFO order
    (insertion order), which keeps simulations deterministic.  All
    simulated network latencies, timers and timeouts are expressed as
    events on one engine instance, and {!run} is the only way they
    fire: one sequential dispatch loop per run.

    Internally the queue is an implicit 4-ary min-heap on [(time, seq)]
    stored in parallel flat arrays (timestamps in an unboxed
    [float array]), with a recycled slot pool carrying cancellation
    state — scheduling allocates no per-event heap records and handles
    are immediate integers.  See doc/performance.md for the design. *)

type t
(** One simulation run: clock plus pending-event queue. *)

type handle
(** Identifies a scheduled event so it can be cancelled (e.g. a
    retransmission timer disarmed by an ACK).  Handles are immediate
    integers tagged with the owning engine and a slot generation:
    using one on a different engine raises, and a handle whose event
    already fired is simply stale. *)

val create : unit -> t
(** Fresh engine whose clock reads [0.0] seconds. *)

val now : t -> float
(** Current virtual time in seconds. *)

val schedule : t -> delay:float -> (unit -> unit) -> handle
(** [schedule t ~delay f] runs [f] at [now t +. delay].  [delay] must be
    non-negative; raises [Invalid_argument] otherwise. *)

val schedule_at : t -> time:float -> (unit -> unit) -> handle
(** [schedule_at t ~time f] runs [f] at absolute [time], which must not
    be in the simulated past. *)

val cancel : t -> handle -> unit
(** Cancel a pending event.  Cancelling an already-fired or
    already-cancelled event is a no-op.
    @raise Invalid_argument if the handle belongs to a different
    engine instance. *)

val pending : t -> int
(** Number of live (not cancelled, not yet fired) events. *)

val pending_hwm : t -> int
(** High-water mark of {!pending} since [create]: the deepest the event
    queue has ever been.  Sizes the heap pressure of a scenario. *)

val compactions : t -> int
(** Number of times the queue was compacted in place to purge cancelled
    events (beyond the lazy reap at the queue head). *)

val run : ?until:float -> t -> unit
(** Execute events in timestamp order.  With [?until], stop once the next
    event would fire strictly after [until] and advance the clock to
    [until]; otherwise run until the queue drains.  An exception raised
    by a callback propagates out of [run]; the events fired up to and
    including that callback still count. *)

val events_processed : t -> int
(** Total callbacks fired since [create] — a cheap progress/efficiency
    metric for benches. *)

val total_events_processed : unit -> int
(** Process-wide total of callbacks fired across every engine instance
    ever created.  The bench runner reads the delta around an experiment
    to report events/sec even when the experiment builds one engine per
    cell.  Each {!run} adds the events it fired once, when it returns
    or raises. *)
