(** In-engine self-profiler: where does the *simulator* spend wall
    time?

    The simulated clock says nothing about the cost of running the
    simulation itself; at millions of events per run the question
    "which subsystem burns the cycles" needs an answer before any hot
    path is rewritten.  This module provides phase timers with
    hierarchical self-time accounting and named counters, built on the
    monotonic clock (CLOCK_MONOTONIC via bechamel's stub — wall time
    under NTP steps stays sane).

    The profiler is process-global and **disabled by default**.  Every
    instrumented call site pays exactly one flag load and branch while
    disabled — no closure, no clock read, no allocation — so leaving
    the instrumentation compiled into the hot paths is free
    ([bench/bench_micro.ml] pins this, [test/test_prof.ml] asserts the
    disabled path allocates nothing).

    Accounting model: phases form a stack.  Time always accrues to the
    phase on top — entering a child stops the parent's self-time,
    leaving resumes it — so {e self} times of all phases partition the
    profiled wall time (minus whatever ran with an empty stack, which
    the report exposes as unattributed).  {e total} time is the
    conventional inclusive time; recursive re-entry of a phase is
    counted once (outermost activation only). *)

type phase
(** A registered phase.  Register once at module initialisation
    ([let ph_dns = Prof.phase "dns"]) and use the value on the hot
    path; registration itself allocates. *)

val phase : string -> phase
(** Get-or-create the phase with this name.  At most {!max_phases}
    distinct names; raises [Invalid_argument] beyond that. *)

val max_phases : int

(** {1 Switching} *)

val enabled : unit -> bool
val set_enabled : bool -> unit

val start : unit -> unit
(** Reset all accumulators, mark the wall-time origin and enable. *)

val stop : unit -> unit
(** Close any still-open phases at the current time and disable.
    Accumulated results remain readable via {!report}. *)

val pause : unit -> unit
(** Temporarily stop the clocks without touching the phase stack —
    used by the micro-benchmark harness so measured loops never pay
    profiler overhead.  No-op when not running. *)

val resume : unit -> unit
(** Undo {!pause}; the paused interval is charged to nobody. *)

(** {1 Instrumentation} *)

val enter : phase -> unit
val leave : phase -> unit
(** Hot-path pair.  [leave] must match the most recent unmatched
    [enter]; the profiler trusts call sites and attributes to the top
    of the stack.  Both are single-branch no-ops while disabled. *)

val with_phase : phase -> (unit -> 'a) -> 'a
(** [enter]/[leave] around a callback, exception-safe.  Allocates a
    closure at the call site; use off the per-event path. *)

val wrap : phase -> (unit -> unit) -> unit -> unit
(** [wrap ph k] is [k] itself when the profiler is disabled at wrap
    time (zero cost), else a thunk running [k] inside [ph].  Built for
    engine-scheduled callbacks: decide once at schedule time. *)

type counter

val counter : string -> counter
(** Get-or-create a named counter (same namespace budget as phases). *)

val incr : counter -> unit
val add : counter -> int -> unit
(** Count only while enabled (so reports reflect the profiled window). *)

val now_s : unit -> float
(** Monotonic clock reading in seconds (works even while disabled). *)

(** {1 Interval recording}

    Optional timeline capture for the Chrome-trace self-profile:
    every phase exit appends one (phase, start, duration, depth)
    interval, relative to the {!start} origin.  Bounded by [cap];
    overflow is counted, not stored. *)

val set_record_intervals : ?cap:int -> bool -> unit
(** Default cap 200_000 intervals.  Enabling also clears the buffer. *)

type interval = {
  iv_name : string;
  iv_start_s : float;  (** seconds since {!start} *)
  iv_dur_s : float;
  iv_depth : int;  (** stack depth at the interval's open, 0-based *)
}

val intervals : unit -> interval list
(** Recorded intervals in completion order. *)

val intervals_dropped : unit -> int

(** {1 Results} *)

type phase_stat = {
  ps_name : string;
  ps_self_s : float;  (** time on top of the stack *)
  ps_total_s : float;  (** inclusive time, outermost activations *)
  ps_calls : int;
}

type report = {
  r_wall_s : float;  (** {!start} to {!stop} (or to now if running) *)
  r_phases : phase_stat list;  (** phases with at least one call, by name *)
  r_counters : (string * int) list;
  r_unattributed_s : float;  (** wall minus the sum of self times *)
  r_intervals_dropped : int;
}

val report : unit -> report
(** Snapshot of the accumulators; callable while running or after
    {!stop}. *)

val coverage : report -> float
(** Fraction of the profiled wall time attributed to named phases
    ([1 - unattributed/wall]); 0 when no time elapsed. *)

(** {1 Testing} *)

val set_clock_for_testing : (unit -> float) option -> unit
(** Substitute a fake clock (seconds) so accumulation arithmetic can
    be pinned exactly; [None] restores the monotonic clock. *)
