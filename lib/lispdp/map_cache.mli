(** The LISP map-cache of an ITR.

    Bounded cache of EID-prefix-to-RLOC mappings with per-entry expiry
    (the mapping's TTL, stamped at insertion) and a pluggable eviction
    policy applied when full.  Time is passed explicitly so the cache
    has no dependency on the event engine and can be unit-tested
    directly. *)

type t

type policy =
  | Lru  (** evict the least recently used entry *)
  | Lfu
      (** evict the least frequently hit entry (least recently used
          within the lowest hit-count class); O(1) frequency buckets *)
  | Ttl_hybrid
      (** evict the entry closest to (or past) its TTL expiry — the
          entry with the least remaining paid-for lifetime; lazy
          min-heap on expiry time *)

val policy_label : policy -> string
(** ["lru"], ["lfu"], ["ttl-hybrid"] — the spellings accepted by
    {!policy_of_string}, scenario files and the CLI. *)

val policy_of_string : string -> policy option
(** Case-insensitive; accepts ["lru"], ["lfu"], ["ttl-hybrid"] (also
    ["ttl"]). *)

(** Where an entry came from, in decreasing order of trust in the
    source: a nonce/signature-checked map-reply ({!Verified}), a
    PCE/NERD push over the registered channel ({!Pushed}), or the
    source field of a data packet anybody could have forged
    ({!Gleaned}).  Gleaned entries are the cache-poisoning vector an
    EID-scan flood exploits, so they are the population the admission
    cap bounds. *)
type provenance = Verified | Gleaned | Pushed

val provenance_label : provenance -> string
(** ["verified"], ["gleaned"], ["pushed"]. *)

val create : ?policy:policy -> ?capacity:int -> ?glean_cap:int -> unit -> t
(** [policy] defaults to {!Lru}; [capacity] defaults to 10_000 entries
    and must be positive.  [glean_cap], when given, bounds the number
    of live {!Gleaned} entries: a brand-new gleaned insert beyond the
    cap is refused (counted in [glean_rejections] and reported to the
    reject hook).  No cap by default. *)

val insert :
  t -> now:float -> ?provenance:provenance -> Nettypes.Mapping.t -> unit
(** Cache a mapping; its expiry is [now + ttl].  [provenance] defaults
    to {!Verified}.  Re-inserting a mapping for the same EID prefix
    refreshes it (counted neither as an insertion nor an invalidation;
    under {!Lfu} the refreshed entry keeps its hit-count class).
    Provenance only upgrades on refresh: a {!Gleaned} insert over an
    existing verified/pushed entry is ignored outright, while a
    verified/pushed insert over a gleaned entry takes the line over.
    May drop one entry chosen by the eviction policy when the cache is
    full: an unexpired victim counts as an eviction, a victim whose
    TTL already lapsed counts as an expiration (see {!stats}). *)

val provenance_of : t -> Nettypes.Ipv4.prefix -> provenance option
(** Provenance of the exact live entry for [prefix], if cached. *)

val gleaned : t -> int
(** Number of live {!Gleaned} entries (the cache-pollution count). *)

val glean_cap : t -> int option

val lookup : t -> now:float -> Nettypes.Ipv4.addr -> Nettypes.Mapping.t option
(** Longest-prefix match among live entries; a hit refreshes the
    entry's standing under the eviction policy (recency position for
    {!Lru}, hit-count class for {!Lfu}; nothing for {!Ttl_hybrid},
    whose victim depends only on expiry).  Expired entries behave as
    absent (and are reaped). *)

val contains : t -> now:float -> Nettypes.Ipv4.addr -> bool
(** Like {!lookup} without touching the entry's policy standing. *)

val remove : t -> Nettypes.Ipv4.prefix -> unit
(** Remove the exact entry if present; counted as an invalidation and
    reported to the evict hook. *)

val remove_covered : t -> Nettypes.Ipv4.prefix -> int
(** Remove the exact entry {e and} every more-specific entry inside the
    prefix (e.g. gleaned /32 host routes under a re-registered site
    prefix — the entries a Solicit-Map-Request invalidates).  Probes
    the keys the prefix covers at each populated length, or makes one
    pass over the cache when that is fewer probes, so the cost is
    bounded by both the covered key space and the cache size.  Each
    victim counts as an invalidation and is reported to the evict
    hook, in ascending (network, length) order.  Returns the number of
    entries removed. *)

val length : t -> int
val capacity : t -> int

val policy : t -> policy
(** The eviction policy the cache was created with. *)

val clear : t -> unit
(** Empty the cache and reset all statistics to zero. *)

type stats = {
  mutable hits : int;
  mutable misses : int;
  mutable insertions : int;
  mutable evictions : int;
      (** policy evictions due to capacity — victims that were still
          live when dropped *)
  mutable expirations : int;
      (** entries dropped because their TTL lapsed, whether reaped by a
          lookup or picked as an already-expired capacity victim *)
  mutable invalidations : int;
      (** entries removed explicitly ({!remove}, {!remove_covered} — the
          SMR invalidation path) *)
  mutable glean_rejections : int;
      (** gleaned inserts refused by the admission cap (never part of
          the insertion balance: a rejected mapping was never cached) *)
}

val stats : t -> stats
(** Live counters balance as
    [insertions = length + evictions + expirations + invalidations]
    (refreshes count on neither side), under every eviction policy. *)

val set_evict_hook : t -> (Nettypes.Mapping.t -> unit) option -> unit
(** Observer invoked with the victim mapping on every capacity eviction
    of a still-live entry and every explicit removal (not on TTL expiry
    — see {!set_expire_hook} — or refresh); the observability layer
    uses it to emit [Cache_evict] events. *)

val set_expire_hook : t -> (Nettypes.Mapping.t -> unit) option -> unit
(** Observer invoked with the dead mapping each time a TTL-expired
    entry is dropped — reaped by a lookup or chosen as an
    already-expired capacity victim.  Together with {!set_evict_hook}
    the two hooks see every entry death except silent refreshes:
    [hook invocations = evictions + invalidations + expirations]. *)

val set_reject_hook : t -> (Nettypes.Mapping.t -> unit) option -> unit
(** Observer invoked with the refused mapping each time the glean
    admission cap rejects a new gleaned insert; the observability
    layer uses it to emit [Glean_rejected] events and record the
    [Glean_admission_rejected] drop cause. *)

val hit_ratio : t -> float
(** [hits / (hits + misses)]; 0 when no lookups have happened. *)
