(** Periodic metrics sampler: snapshots a {!Registry} into
    interval-spaced rows of simulated time.

    Drive it by calling {!tick} with the current simulated time — most
    conveniently by attaching [fun e -> tick s ~now:e.Event.time] as a
    hub sink — and call {!finalise} once at end of run.  A sampler
    never schedules engine events, so it cannot keep a scenario's event
    loop from draining. *)

type t

type row = { at : float; values : (string * float) list }

val create : interval:float -> registry:Registry.t -> unit -> t
(** [interval] is in simulated seconds and must be positive.  At most
    100k rows are kept, which bounds memory on runaway runs; later
    samples are not stored. *)

val interval : t -> float

val tick : t -> now:float -> unit
(** Record a sample for every elapsed interval boundary up to [now].
    Values are read at tick time, so a sample's values may lag its
    nominal bucket time by up to one inter-event gap. *)

val finalise : t -> now:float -> unit
(** Record one closing sample at [now] if nothing was sampled there. *)

val rows : t -> row list
(** All samples in chronological order. *)

val row_count : t -> int

val series : t -> string -> (float * float) list
(** One metric's [(time, value)] points across all rows. *)
