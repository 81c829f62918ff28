(** Timeline recording for simulation walkthroughs.

    A trace is an append-only log of [(time, actor, event)] entries.
    Subscribed to a scenario's event hub ([Obs.Hub.trace_sink]) it
    holds the step-by-step walkthrough of the paper's Figure 1; tests
    use it to assert event ordering.

    Storage is a structure of arrays (timestamps in an unboxed
    [float array]): recording writes three array cells and allocates
    no per-entry record or list cell. *)

type t

type entry = { time : float; actor : string; event : string }

val create : unit -> t

val record : t -> time:float -> actor:string -> string -> unit
(** Append an entry. *)

val entries : t -> entry list
(** Every entry in chronological (= insertion) order. *)

val length : t -> int
(** Number of entries recorded. *)

val pp : Format.formatter -> t -> unit
(** Render as an aligned [t=...s  actor  event] listing. *)

val find : t -> f:(entry -> bool) -> entry option
(** First matching entry, if any. *)

val iter : t -> f:(float -> string -> string -> unit) -> unit
(** [iter t ~f] applies [f time actor event] to each entry in order,
    without materialising entry records. *)
