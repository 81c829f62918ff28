(* Attack-injection layer.  Same discipline as [Faults] and
   [Lifecycle]: strictly opt-in, driven by its own RNG stream, and a
   probability of zero takes no draw — a run with no attack profile
   configured is byte-identical to one where the layer does not exist.

   The module only decides *whether* and *when* an attack fires and
   keeps the attacker-side book; the victims (Mapsys.Pull, the DNS
   system, the scenario's flood driver) own the actual injection so
   that netsim stays free of protocol knowledge. *)

type t = {
  rng : Rng.t;
  spoof_rate : float;
  spoof_head_start : float;
  replay_rate : float;
  dns_poison_rate : float;
  flood_rate : float;
  flood_eids : int;
  flood_from : float;
  flood_until : float;
  mutable forged_replies : int;
  mutable replayed_replies : int;
  mutable poisoned_answers : int;
  mutable flood_packets : int;
}

let check_probability name p =
  if not (p >= 0.0 && p <= 1.0) then
    invalid_arg (Printf.sprintf "Adversary: %s must be in [0, 1]" name)

let create ~rng ?(spoof_rate = 0.0) ?(spoof_head_start = 0.002)
    ?(replay_rate = 0.0) ?(dns_poison_rate = 0.0) ?(flood_rate = 0.0)
    ?(flood_eids = 1024) ?(flood_from = 0.0) ?(flood_until = infinity) () =
  check_probability "spoof_rate" spoof_rate;
  check_probability "replay_rate" replay_rate;
  check_probability "dns_poison_rate" dns_poison_rate;
  if spoof_head_start < 0.0 then
    invalid_arg "Adversary.create: negative spoof_head_start";
  if flood_rate < 0.0 then invalid_arg "Adversary.create: negative flood_rate";
  if flood_eids < 1 then invalid_arg "Adversary.create: flood_eids must be >= 1";
  if flood_from > flood_until then
    invalid_arg "Adversary.create: flood_from > flood_until";
  { rng; spoof_rate; spoof_head_start; replay_rate; dns_poison_rate;
    flood_rate; flood_eids; flood_from; flood_until; forged_replies = 0;
    replayed_replies = 0; poisoned_answers = 0; flood_packets = 0 }

(* Every predicate takes a draw only when its probability is positive,
   so attacks that are configured off never perturb the stream — and an
   all-zero adversary is inert even though it exists. *)
let draw t ~p counter bump =
  p > 0.0
  && Rng.bernoulli t.rng ~p
  &&
  (bump counter;
   true)

let forges_reply t =
  draw t ~p:t.spoof_rate t (fun t -> t.forged_replies <- t.forged_replies + 1)

let replays_reply t =
  draw t ~p:t.replay_rate t (fun t ->
      t.replayed_replies <- t.replayed_replies + 1)

let poisons_answer t =
  draw t ~p:t.dns_poison_rate t (fun t ->
      t.poisoned_answers <- t.poisoned_answers + 1)

let spoof_head_start t = t.spoof_head_start

(* The off-path attacker cannot see the request, so its only handle on
   the nonce echo is a blind guess over the full 32-bit space. *)
let guess_nonce t = Rng.int t.rng 0x100000000

let flood_configured t = t.flood_rate > 0.0

let flood_active t ~now = now >= t.flood_from && now < t.flood_until

let flood_interarrival t =
  if t.flood_rate <= 0.0 then invalid_arg "Adversary.flood_interarrival: flood off";
  Rng.exponential t.rng ~mean:(1.0 /. t.flood_rate)

let flood_eid_index t =
  t.flood_packets <- t.flood_packets + 1;
  Rng.int t.rng t.flood_eids

let forged_replies t = t.forged_replies
let replayed_replies t = t.replayed_replies
let poisoned_answers t = t.poisoned_answers
let flood_packets t = t.flood_packets
