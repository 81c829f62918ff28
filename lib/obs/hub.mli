(** Event hub: the one instrumentation channel of the simulator.

    Each scenario owns one hub; instrumented layers emit typed events
    into it and any number of sinks (JSONL writer, in-memory buffer such
    as the Figure-1 walkthrough, latency analyzer, metrics sampler
    ticks) consume them.  The hub holds the simulation clock, so an
    emit site names only the actor and the payload.

    The disabled path must be free: each call site tests {!enabled}
    once before building its payload, so a disabled run does not even
    allocate the [kind] variant. *)

type sink = Event.t -> unit

type t

val create : ?enabled:bool -> clock:(unit -> float) -> unit -> t
(** [clock] stamps every event (a scenario passes its engine's
    [Netsim.Engine.now]).  Hubs start disabled by default. *)

val or_disabled : engine:Netsim.Engine.t -> t option -> t
(** The given hub, or a fresh disabled one on the engine's clock: what
    a component holds when its creator passes no [?obs]. *)

val enabled : t -> bool
val set_enabled : t -> bool -> unit

val add_sink : t -> sink -> unit
(** Sinks run in registration order on every emitted event. *)

val emit : t -> actor:string -> ?flow:int -> Event.kind -> unit
(** Record one event at the clock's current time; a no-op when the hub
    is disabled. *)

val memory_sink : unit -> sink * (unit -> Event.t list)
(** A buffering sink and its accessor (events in emission order).  The
    Figure-1 walkthrough is one, printed by {!Event.pp_log}. *)
