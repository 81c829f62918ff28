(** Arrival processes.

    Schedule flow-start events on the engine.  Generators draw only from
    the provided RNG, so the schedule is reproducible regardless of what
    the started flows themselves draw.  [poisson] materialises the whole
    window up front (and can report its count); [poisson_stream] keeps
    the pending-event footprint O(1) for million-flow windows. *)

val poisson :
  engine:Netsim.Engine.t ->
  rng:Netsim.Rng.t ->
  rate:float ->
  duration:float ->
  f:(int -> unit) ->
  int
(** Poisson arrivals at [rate] per second over [duration] seconds
    starting now; [f] receives the arrival index.  Draws and schedules
    every arrival up front; returns the number of arrivals scheduled. *)

val poisson_stream :
  engine:Netsim.Engine.t ->
  rng:Netsim.Rng.t ->
  rate:float ->
  duration:float ->
  f:(int -> unit) ->
  unit
(** Same arrival process as {!poisson} — identical times for an
    identical RNG stream — but each arrival schedules the next, so at
    most one arrival event is pending at any instant and no per-arrival
    closure or gap list is allocated.  The generator count is unknown
    until the window closes; count inside [f] if needed. *)
