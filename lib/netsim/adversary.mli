(** Control-plane attack injection.

    Models the off-path attacker of Almasan et al. ("Securing the
    Control-plane Channel and Cache of Pull-based ID/LOC Protocols")
    against the map-resolution channel: forged Map-Replies racing the
    legitimate answer, replayed stale replies, poisoned DNS answers,
    and cache-flooding EID scans.

    Strictly opt-in, following the {!Faults}/{!Lifecycle} pattern: the
    layer draws from its own dedicated {!Rng} stream, and every attack
    whose probability is zero takes {e no} draw, so a run without an
    attack profile is byte-identical to one compiled without the layer.

    The module decides whether an attack fires and counts attacker-side
    attempts; the protocol victims ([Mapsys.Pull], [Dnssim.System], the
    scenario flood driver) implement the injected behaviour. *)

type t

val create :
  rng:Rng.t ->
  ?spoof_rate:float ->
  ?spoof_head_start:float ->
  ?replay_rate:float ->
  ?dns_poison_rate:float ->
  ?flood_rate:float ->
  ?flood_eids:int ->
  ?flood_from:float ->
  ?flood_until:float ->
  unit ->
  t
(** [create ~rng ()] is an inert adversary: all rates default to zero.
    [spoof_rate] is the probability a map-request is raced by a forged
    reply, which arrives [spoof_head_start] seconds (default 2 ms)
    before the legitimate one could.  [replay_rate] is the probability
    a stale captured reply is replayed at a resolution.
    [dns_poison_rate] poisons the resolver-bound DNS answer.
    [flood_rate] > 0 enables the EID-scan flood: spoofed packets at
    that rate (per simulated second, Poisson) over [flood_eids]
    distinct forged source EIDs, active in [flood_from, flood_until).

    Raises [Invalid_argument] on probabilities outside [0, 1], a
    negative head start or flood rate, [flood_eids < 1], or an empty
    flood window given backwards. *)

(** {1 Attack draws}

    Each returns whether the attack fires on this occasion, drawing
    from the adversary stream only when the corresponding rate is
    positive, and counts fired attacks. *)

val forges_reply : t -> bool
val replays_reply : t -> bool
val poisons_answer : t -> bool

val spoof_head_start : t -> float
(** Seconds by which the forged reply beats the legitimate one. *)

val guess_nonce : t -> int
(** A blind uniform guess over the 32-bit nonce space — the off-path
    attacker never sees the request it is answering. *)

(** {1 EID-scan flood} *)

val flood_configured : t -> bool
(** Whether [flood_rate] > 0 (the scenario schedules a flood driver). *)

val flood_active : t -> now:float -> bool
val flood_interarrival : t -> float
(** Next Poisson gap, drawn from the adversary stream.  Raises if the
    flood is not configured. *)

val flood_eid_index : t -> int
(** Which of the [flood_eids] forged source EIDs the next scan packet
    claims; counts the packet. *)

(** {1 Attacker-side counters} *)

val forged_replies : t -> int
val replayed_replies : t -> int
val poisoned_answers : t -> int
val flood_packets : t -> int
