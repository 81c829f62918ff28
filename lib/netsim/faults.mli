(** Control-plane fault injection: message loss, delay jitter and
    scheduled outage windows.

    A [Faults.t] decides, per control message, whether the message is
    lost.  Losses come from two sources:

    - {e random loss}: a Bernoulli draw against a global loss
      probability, deterministic through the {!Rng} stream the model
      was created with;
    - {e scheduled windows}: fault scripts (link flaps, partitions)
      declare intervals of simulated time during which messages touching
      a given scope are dropped deterministically, before any random
      draw — so a window behaves identically across repeated runs and
      never perturbs the random stream.

    The model is intentionally topology-agnostic: endpoints are plain
    integers (the simulator uses domain ids), so it lives in [netsim]
    next to {!Rng} and {!Engine}.

    The same module also defines the {!retry} policy (initial RTO,
    exponential backoff, bounded budget) shared by the map-request
    retransmission logic and the acknowledged PCE pushes. *)

type t

type scope =
  | All  (** every control message *)
  | Domain of int  (** messages from or to the given endpoint *)
  | Pair of int * int  (** messages between the two endpoints, either direction *)

val create :
  rng:Rng.t -> ?loss:float -> ?jitter:float -> ?drops:Drop.t -> unit -> t
(** [loss] is the global Bernoulli loss probability in [\[0, 1\]]
    (default 0); [jitter] the maximum extra one-way delay in seconds
    added to every surviving message (default 0, uniform in
    [\[0, jitter)]).  When a probability is exactly 0 no random draw is
    made, so a zero-loss model leaves the stream untouched.  Random
    losses are recorded in the [drops] ledger, if given, as
    [Cp_message_loss] with no attributable node. *)

val add_window : t -> from_:float -> until:float -> scope -> unit
(** Schedule a deterministic outage: messages matching [scope] sent at
    [from_ <= now < until] are dropped.  Requires [from_ <= until]. *)

val flap : t -> at:float -> duration:float -> domain:int -> unit
(** [flap t ~at ~duration ~domain] — the domain's control-plane
    reachability flaps down for [duration] seconds starting at [at]. *)

val partition : t -> from_:float -> until:float -> a:int -> b:int -> unit
(** Cut the control channel between two endpoints for the window. *)

val drops_message : t -> now:float -> src:int -> dst:int -> bool
(** Decide the fate of one control message sent at [now].  Scheduled
    windows are checked first (counted under {!blocked}); otherwise a
    Bernoulli draw against the loss probability decides (counted under
    {!losses}). *)

val extra_delay : t -> float
(** Jitter for one surviving message: uniform in [\[0, jitter)], or
    exactly [0.0] without touching the random stream when jitter is 0. *)

val losses : t -> int
(** Messages lost to random draws so far. *)

val blocked : t -> int
(** Messages dropped by scheduled windows so far. *)

(** {1 Retry policy} *)

type retry = {
  rto : float;  (** initial retransmission timeout, seconds *)
  backoff : float;  (** multiplier applied per retransmission *)
  budget : int;  (** maximum number of retransmissions (0 = none) *)
}

val retry : ?rto:float -> ?backoff:float -> ?budget:int -> unit -> retry
(** Defaults: 0.5 s initial RTO, factor-2 backoff, budget 3.
    Requires [rto > 0], [backoff >= 1] and [budget >= 0]. *)

val retry_delay : retry -> attempt:int -> float
(** Timeout armed after transmission number [attempt] (1-based):
    [rto *. backoff ^ (attempt - 1)]. *)
