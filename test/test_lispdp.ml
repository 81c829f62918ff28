(* Tests for the LISP data plane: map-cache TTL/LRU semantics, flow
   table, and packet forwarding through ITR/ETR with a scripted control
   plane. *)

open Nettypes
open Lispdp

let addr = Ipv4.addr_of_string
let pfx = Ipv4.prefix_of_string

let mapping ?(prefix = "100.0.1.0/24") ?(rloc_addr = "12.0.0.1") ?(ttl = 60.0) () =
  Mapping.create ~eid_prefix:(pfx prefix)
    ~rlocs:[ Mapping.rloc (addr rloc_addr) ]
    ~ttl

(* ------------------------------------------------------------------ *)
(* Map_cache                                                           *)
(* ------------------------------------------------------------------ *)

let test_cache_hit_and_miss () =
  let c = Map_cache.create () in
  Map_cache.insert c ~now:0.0 (mapping ());
  Alcotest.(check bool) "hit inside prefix" true
    (Map_cache.lookup c ~now:1.0 (addr "100.0.1.55") <> None);
  Alcotest.(check bool) "miss outside" true
    (Map_cache.lookup c ~now:1.0 (addr "100.0.2.1") = None);
  let s = Map_cache.stats c in
  Alcotest.(check int) "hits" 1 s.Map_cache.hits;
  Alcotest.(check int) "misses" 1 s.Map_cache.misses;
  Alcotest.(check (float 1e-9)) "hit ratio" 0.5 (Map_cache.hit_ratio c)

let test_cache_ttl_expiry () =
  let c = Map_cache.create () in
  Map_cache.insert c ~now:0.0 (mapping ~ttl:10.0 ());
  Alcotest.(check bool) "live before ttl" true
    (Map_cache.lookup c ~now:9.9 (addr "100.0.1.1") <> None);
  Alcotest.(check bool) "dead after ttl" true
    (Map_cache.lookup c ~now:10.1 (addr "100.0.1.1") = None);
  Alcotest.(check int) "expiration counted" 1
    (Map_cache.stats c).Map_cache.expirations;
  Alcotest.(check int) "entry reaped" 0 (Map_cache.length c)

let test_cache_reinsert_refreshes () =
  let c = Map_cache.create () in
  Map_cache.insert c ~now:0.0 (mapping ~ttl:10.0 ());
  Map_cache.insert c ~now:8.0 (mapping ~ttl:10.0 ());
  Alcotest.(check int) "still one entry" 1 (Map_cache.length c);
  Alcotest.(check bool) "alive thanks to refresh" true
    (Map_cache.lookup c ~now:15.0 (addr "100.0.1.1") <> None)

let test_cache_lru_eviction () =
  let c = Map_cache.create ~capacity:2 () in
  Map_cache.insert c ~now:0.0 (mapping ~prefix:"100.0.1.0/24" ());
  Map_cache.insert c ~now:0.0 (mapping ~prefix:"100.0.2.0/24" ());
  (* Touch the first entry so the second becomes LRU. *)
  ignore (Map_cache.lookup c ~now:1.0 (addr "100.0.1.1"));
  Map_cache.insert c ~now:2.0 (mapping ~prefix:"100.0.3.0/24" ());
  Alcotest.(check int) "capacity respected" 2 (Map_cache.length c);
  Alcotest.(check bool) "recently used survives" true
    (Map_cache.contains c ~now:2.0 (addr "100.0.1.1"));
  Alcotest.(check bool) "LRU evicted" false
    (Map_cache.contains c ~now:2.0 (addr "100.0.2.1"));
  Alcotest.(check int) "eviction counted" 1
    (Map_cache.stats c).Map_cache.evictions

let test_cache_longest_prefix () =
  let c = Map_cache.create () in
  Map_cache.insert c ~now:0.0 (mapping ~prefix:"100.0.0.0/16" ~rloc_addr:"10.0.0.1" ());
  Map_cache.insert c ~now:0.0 (mapping ~prefix:"100.0.1.0/24" ~rloc_addr:"11.0.0.1" ());
  match Map_cache.lookup c ~now:1.0 (addr "100.0.1.9") with
  | Some m ->
      let r = List.hd m.Mapping.rlocs in
      Alcotest.(check string) "most specific wins" "11.0.0.1"
        (Ipv4.addr_to_string r.Mapping.rloc_addr)
  | None -> Alcotest.fail "expected hit"

let test_cache_remove_and_clear () =
  let c = Map_cache.create () in
  Map_cache.insert c ~now:0.0 (mapping ());
  Map_cache.remove c (pfx "100.0.1.0/24");
  Alcotest.(check int) "removed" 0 (Map_cache.length c);
  Map_cache.insert c ~now:0.0 (mapping ());
  Map_cache.clear c;
  Alcotest.(check int) "cleared" 0 (Map_cache.length c);
  Alcotest.(check bool) "lookup after clear" true
    (Map_cache.lookup c ~now:0.0 (addr "100.0.1.1") = None)

let test_cache_remove_covered () =
  let c = Map_cache.create () in
  Map_cache.insert c ~now:0.0 (mapping ~prefix:"100.0.1.0/24" ());
  Map_cache.insert c ~now:0.0 (mapping ~prefix:"100.0.1.7/32" ());
  Map_cache.insert c ~now:0.0 (mapping ~prefix:"100.0.2.0/24" ());
  Alcotest.(check int) "two covered entries removed" 2
    (Map_cache.remove_covered c (pfx "100.0.1.0/24"));
  Alcotest.(check bool) "covered /32 gone" false
    (Map_cache.contains c ~now:0.0 (addr "100.0.1.7"));
  Alcotest.(check bool) "sibling untouched" true
    (Map_cache.contains c ~now:0.0 (addr "100.0.2.1"));
  Alcotest.(check int) "idempotent" 0
    (Map_cache.remove_covered c (pfx "100.0.1.0/24"))

let test_cache_invalidation_stats_and_hook () =
  let c = Map_cache.create () in
  let evicted = ref [] in
  Map_cache.set_evict_hook c
    (Some (fun m -> evicted := m.Mapping.eid_prefix :: !evicted));
  Map_cache.insert c ~now:0.0 (mapping ~prefix:"100.0.1.0/24" ());
  Map_cache.insert c ~now:0.0 (mapping ~prefix:"100.0.1.7/32" ());
  Map_cache.insert c ~now:0.0 (mapping ~prefix:"100.0.2.0/24" ());
  Map_cache.remove c (pfx "100.0.2.0/24");
  Alcotest.(check int) "remove counted" 1
    (Map_cache.stats c).Map_cache.invalidations;
  ignore (Map_cache.remove_covered c (pfx "100.0.1.0/24"));
  let s = Map_cache.stats c in
  Alcotest.(check int) "remove_covered counted" 3 s.Map_cache.invalidations;
  Alcotest.(check int) "hook fired per victim" 3 (List.length !evicted);
  Alcotest.(check bool) "hook saw the removed prefix" true
    (List.mem (pfx "100.0.2.0/24") !evicted);
  (* A refresh is silent on both sides of the ledger. *)
  Map_cache.insert c ~now:0.0 (mapping ~prefix:"100.0.3.0/24" ());
  let before = Map_cache.stats c in
  let insertions = before.Map_cache.insertions in
  Map_cache.insert c ~now:1.0 (mapping ~prefix:"100.0.3.0/24" ());
  let after = Map_cache.stats c in
  Alcotest.(check int) "refresh not an insertion" insertions
    after.Map_cache.insertions;
  Alcotest.(check int) "refresh not an invalidation" 3
    after.Map_cache.invalidations;
  Alcotest.(check int) "hook silent on refresh" 3 (List.length !evicted)

let test_cache_expire_hook () =
  let c = Map_cache.create () in
  let expired = ref [] in
  let evicted = ref [] in
  Map_cache.set_evict_hook c
    (Some (fun m -> evicted := m.Mapping.eid_prefix :: !evicted));
  Map_cache.set_expire_hook c
    (Some (fun m -> expired := m.Mapping.eid_prefix :: !expired));
  Map_cache.insert c ~now:0.0 (mapping ~prefix:"100.0.1.0/24" ~ttl:10.0 ());
  (* A refresh extends the lease without a death on either hook. *)
  Map_cache.insert c ~now:5.0 (mapping ~prefix:"100.0.1.0/24" ~ttl:10.0 ());
  Alcotest.(check int) "refresh silent" 0 (List.length !expired);
  ignore (Map_cache.lookup c ~now:20.0 (addr "100.0.1.1"));
  Alcotest.(check int) "TTL reap fires expire hook" 1 (List.length !expired);
  Alcotest.(check int) "TTL reap skips evict hook" 0 (List.length !evicted);
  Alcotest.(check bool) "hook saw the reaped prefix" true
    (List.mem (pfx "100.0.1.0/24") !expired);
  Alcotest.(check int) "reap counted as expiration" 1
    (Map_cache.stats c).Map_cache.expirations;
  (* Explicit removal is the evict hook's business, not the expire hook's. *)
  Map_cache.insert c ~now:20.0 (mapping ~prefix:"100.0.2.0/24" ());
  Map_cache.remove c (pfx "100.0.2.0/24");
  Alcotest.(check int) "remove skips expire hook" 1 (List.length !expired);
  Alcotest.(check int) "remove fires evict hook" 1 (List.length !evicted)

let test_cache_clear_resets_stats () =
  let c = Map_cache.create ~capacity:1 () in
  Map_cache.insert c ~now:0.0 (mapping ~prefix:"100.0.1.0/24" ~ttl:1.0 ());
  ignore (Map_cache.lookup c ~now:0.5 (addr "100.0.1.1"));
  ignore (Map_cache.lookup c ~now:2.0 (addr "100.0.1.1"));
  Map_cache.insert c ~now:2.0 (mapping ~prefix:"100.0.2.0/24" ());
  Map_cache.insert c ~now:2.0 (mapping ~prefix:"100.0.3.0/24" ());
  Map_cache.remove c (pfx "100.0.3.0/24");
  Map_cache.clear c;
  let s = Map_cache.stats c in
  Alcotest.(check int) "hits" 0 s.Map_cache.hits;
  Alcotest.(check int) "misses" 0 s.Map_cache.misses;
  Alcotest.(check int) "insertions" 0 s.Map_cache.insertions;
  Alcotest.(check int) "evictions" 0 s.Map_cache.evictions;
  Alcotest.(check int) "expirations" 0 s.Map_cache.expirations;
  Alcotest.(check int) "invalidations" 0 s.Map_cache.invalidations

(* A capacity victim whose TTL already lapsed died of old age, not of
   capacity pressure: it must be booked as an expiration and announced
   on the expire hook, even though the eviction path picked it. *)
let test_cache_expired_tail_attribution () =
  let c = Map_cache.create ~capacity:2 () in
  let expired = ref [] in
  let evicted = ref [] in
  Map_cache.set_evict_hook c
    (Some (fun m -> evicted := m.Mapping.eid_prefix :: !evicted));
  Map_cache.set_expire_hook c
    (Some (fun m -> expired := m.Mapping.eid_prefix :: !expired));
  Map_cache.insert c ~now:0.0 (mapping ~prefix:"100.0.1.0/24" ~ttl:1.0 ());
  Map_cache.insert c ~now:0.5 (mapping ~prefix:"100.0.2.0/24" ~ttl:100.0 ());
  (* Touch the long-lived entry so the short-lived one is the LRU
     tail, then insert past its TTL: the capacity victim is already
     dead. *)
  ignore (Map_cache.lookup c ~now:0.6 (addr "100.0.2.1"));
  Map_cache.insert c ~now:2.0 (mapping ~prefix:"100.0.3.0/24" ());
  let s = Map_cache.stats c in
  Alcotest.(check int) "expired tail booked as expiration" 1
    s.Map_cache.expirations;
  Alcotest.(check int) "not booked as eviction" 0 s.Map_cache.evictions;
  Alcotest.(check (list string)) "expire hook saw it" [ "100.0.1.0/24" ]
    (List.map Ipv4.prefix_to_string !expired);
  Alcotest.(check int) "evict hook silent" 0 (List.length !evicted);
  (* A still-live tail keeps the old attribution. *)
  Map_cache.insert c ~now:2.0 (mapping ~prefix:"100.0.4.0/24" ());
  let s = Map_cache.stats c in
  Alcotest.(check int) "live victim is an eviction" 1 s.Map_cache.evictions;
  Alcotest.(check int) "evict hook fired" 1 (List.length !evicted)

let test_cache_lfu_evicts_least_frequent () =
  let c = Map_cache.create ~policy:Map_cache.Lfu ~capacity:3 () in
  Map_cache.insert c ~now:0.0 (mapping ~prefix:"100.0.1.0/24" ());
  Map_cache.insert c ~now:0.0 (mapping ~prefix:"100.0.2.0/24" ());
  Map_cache.insert c ~now:0.0 (mapping ~prefix:"100.0.3.0/24" ());
  ignore (Map_cache.lookup c ~now:1.0 (addr "100.0.1.1"));
  ignore (Map_cache.lookup c ~now:1.0 (addr "100.0.1.1"));
  ignore (Map_cache.lookup c ~now:1.0 (addr "100.0.2.1"));
  Map_cache.insert c ~now:2.0 (mapping ~prefix:"100.0.4.0/24" ());
  Alcotest.(check bool) "never-hit entry evicted" false
    (Map_cache.contains c ~now:2.0 (addr "100.0.3.1"));
  Alcotest.(check bool) "hot entry survives" true
    (Map_cache.contains c ~now:2.0 (addr "100.0.1.1"));
  Alcotest.(check bool) "warm entry survives" true
    (Map_cache.contains c ~now:2.0 (addr "100.0.2.1"));
  (* Tie-break inside a frequency class is least-recently-used: the
     newcomer and 100.0.2.0/24 both sit in low classes; hit the
     newcomer so 100.0.2.0/24 is the coldest. *)
  ignore (Map_cache.lookup c ~now:3.0 (addr "100.0.4.1"));
  ignore (Map_cache.lookup c ~now:3.0 (addr "100.0.4.1"));
  Map_cache.insert c ~now:4.0 (mapping ~prefix:"100.0.5.0/24" ());
  Alcotest.(check bool) "lowest class loses" false
    (Map_cache.contains c ~now:4.0 (addr "100.0.2.1"))

let test_cache_ttl_hybrid_evicts_nearest_expiry () =
  let c = Map_cache.create ~policy:Map_cache.Ttl_hybrid ~capacity:2 () in
  Map_cache.insert c ~now:0.0 (mapping ~prefix:"100.0.1.0/24" ~ttl:100.0 ());
  Map_cache.insert c ~now:0.0 (mapping ~prefix:"100.0.2.0/24" ~ttl:5.0 ());
  (* Recency must not matter: touch the short-lived entry, it is still
     the one reaped under capacity pressure. *)
  ignore (Map_cache.lookup c ~now:1.0 (addr "100.0.2.1"));
  Map_cache.insert c ~now:1.0 (mapping ~prefix:"100.0.3.0/24" ~ttl:50.0 ());
  Alcotest.(check bool) "nearest-expiry victim" false
    (Map_cache.contains c ~now:1.0 (addr "100.0.2.1"));
  Alcotest.(check bool) "long-lived survives" true
    (Map_cache.contains c ~now:1.0 (addr "100.0.1.1"));
  Alcotest.(check int) "live victim counts as eviction" 1
    (Map_cache.stats c).Map_cache.evictions

let test_cache_policy_of_string () =
  let check s expect =
    Alcotest.(check bool) s true (Map_cache.policy_of_string s = expect)
  in
  check "lru" (Some Map_cache.Lru);
  check "LFU" (Some Map_cache.Lfu);
  check "ttl-hybrid" (Some Map_cache.Ttl_hybrid);
  check "ttl_hybrid" (Some Map_cache.Ttl_hybrid);
  check "ttl" (Some Map_cache.Ttl_hybrid);
  check "random" None;
  Alcotest.(check string) "label roundtrip" "ttl-hybrid"
    (Map_cache.policy_label Map_cache.Ttl_hybrid)

(* Every entry that ever entered the cache is accounted for exactly
   once: still live, capacity-evicted, TTL-reaped, or explicitly
   removed.  With both death hooks installed, the hooks together
   witness exactly the non-live side of that ledger.  Runs under every
   eviction policy, with TTLs short enough that capacity victims are
   frequently already expired (the attribution this PR fixes). *)
let prop_cache_stats_balance policy =
  QCheck.Test.make
    ~name:
      (Printf.sprintf "stats balance (%s): ins = live + evic + exp + inval"
         (Map_cache.policy_label policy))
    ~count:200
    QCheck.(
      pair (int_range 1 6)
        (list_of_size Gen.(1 -- 80)
           (triple (int_bound 3) (int_bound 12) (int_range 1 8))))
    (fun (capacity, ops) ->
      let c = Map_cache.create ~policy ~capacity () in
      let deaths = ref 0 in
      Map_cache.set_evict_hook c (Some (fun _ -> incr deaths));
      Map_cache.set_expire_hook c (Some (fun _ -> incr deaths));
      List.iteri
        (fun i (op, third, ttl) ->
          let now = float_of_int i in
          let prefix = Printf.sprintf "100.0.%d.0/24" third in
          match op with
          | 0 ->
              Map_cache.insert c ~now
                (mapping ~prefix ~ttl:(float_of_int ttl) ())
          | 1 -> ignore (Map_cache.lookup c ~now (addr (Printf.sprintf "100.0.%d.9" third)))
          | 2 -> Map_cache.remove c (pfx prefix)
          | _ -> ignore (Map_cache.remove_covered c (pfx "100.0.0.0/16")))
        ops;
      let s = Map_cache.stats c in
      s.Map_cache.insertions
      = Map_cache.length c + s.Map_cache.evictions + s.Map_cache.expirations
        + s.Map_cache.invalidations
      && !deaths
         = s.Map_cache.evictions + s.Map_cache.expirations
           + s.Map_cache.invalidations)

let prop_cache_never_exceeds_capacity =
  QCheck.Test.make ~name:"cache never exceeds capacity" ~count:100
    QCheck.(pair (int_range 1 8) (list_of_size Gen.(1 -- 60) (int_bound 200)))
    (fun (capacity, inserts) ->
      let c = Map_cache.create ~capacity () in
      List.iteri
        (fun i third ->
          let prefix = Printf.sprintf "100.0.%d.0/24" (third mod 250) in
          Map_cache.insert c ~now:(float_of_int i) (mapping ~prefix ()))
        inserts;
      Map_cache.length c <= capacity)

(* Provenance only upgrades: a data-packet glean can never displace a
   nonce-checked reply or a registered push — the no-downgrade rule
   that keeps gleaning from being a poisoning primitive. *)
let test_cache_provenance_upgrade_only () =
  let c = Map_cache.create () in
  Map_cache.insert c ~now:0.0 ~provenance:Map_cache.Gleaned
    (mapping ~rloc_addr:"12.0.0.1" ());
  Alcotest.(check (option string)) "gleaned" (Some "gleaned")
    (Option.map Map_cache.provenance_label
       (Map_cache.provenance_of c (pfx "100.0.1.0/24")));
  Alcotest.(check int) "one gleaned entry" 1 (Map_cache.gleaned c);
  (* A verified reply takes the line over. *)
  Map_cache.insert c ~now:1.0 ~provenance:Map_cache.Verified
    (mapping ~rloc_addr:"13.0.0.1" ());
  Alcotest.(check (option string)) "upgraded" (Some "verified")
    (Option.map Map_cache.provenance_label
       (Map_cache.provenance_of c (pfx "100.0.1.0/24")));
  Alcotest.(check int) "no longer gleaned" 0 (Map_cache.gleaned c);
  (* A later glean (forged source field, say) is ignored outright: the
     verified RLOC stays. *)
  Map_cache.insert c ~now:2.0 ~provenance:Map_cache.Gleaned
    (mapping ~rloc_addr:"66.0.0.1" ());
  (match Map_cache.lookup c ~now:2.0 (addr "100.0.1.1") with
  | Some m ->
      Alcotest.(check string) "verified rloc kept" "13.0.0.1"
        (Ipv4.addr_to_string (List.hd m.Mapping.rlocs).Mapping.rloc_addr)
  | None -> Alcotest.fail "entry lost");
  Alcotest.(check (option string)) "still verified" (Some "verified")
    (Option.map Map_cache.provenance_label
       (Map_cache.provenance_of c (pfx "100.0.1.0/24")));
  (* Pushed over gleaned upgrades too. *)
  Map_cache.insert c ~now:3.0 ~provenance:Map_cache.Gleaned
    (mapping ~prefix:"100.0.2.0/24" ());
  Map_cache.insert c ~now:4.0 ~provenance:Map_cache.Pushed
    (mapping ~prefix:"100.0.2.0/24" ());
  Alcotest.(check (option string)) "pushed upgrade" (Some "pushed")
    (Option.map Map_cache.provenance_label
       (Map_cache.provenance_of c (pfx "100.0.2.0/24")))

let test_cache_glean_cap_rejects () =
  let c = Map_cache.create ~glean_cap:2 () in
  let rejected = ref 0 in
  Map_cache.set_reject_hook c (Some (fun _ -> incr rejected));
  Alcotest.(check (option int)) "cap recorded" (Some 2) (Map_cache.glean_cap c);
  Map_cache.insert c ~now:0.0 ~provenance:Map_cache.Gleaned
    (mapping ~prefix:"100.0.1.0/24" ());
  Map_cache.insert c ~now:0.0 ~provenance:Map_cache.Gleaned
    (mapping ~prefix:"100.0.2.0/24" ());
  (* Third brand-new glean bounces off the quota... *)
  Map_cache.insert c ~now:0.0 ~provenance:Map_cache.Gleaned
    (mapping ~prefix:"100.0.3.0/24" ());
  Alcotest.(check int) "bounced" 1 (Map_cache.stats c).Map_cache.glean_rejections;
  Alcotest.(check int) "hook saw it" 1 !rejected;
  Alcotest.(check int) "population bounded" 2 (Map_cache.gleaned c);
  Alcotest.(check bool) "never cached" false
    (Map_cache.contains c ~now:0.0 (addr "100.0.3.1"));
  (* ...but refreshing a live gleaned line is not an admission... *)
  Map_cache.insert c ~now:1.0 ~provenance:Map_cache.Gleaned
    (mapping ~prefix:"100.0.1.0/24" ());
  Alcotest.(check int) "refresh admitted" 1
    (Map_cache.stats c).Map_cache.glean_rejections;
  (* ...and the cap never binds verified/pushed entries. *)
  Map_cache.insert c ~now:1.0 (mapping ~prefix:"100.0.3.0/24" ());
  Alcotest.(check bool) "verified admitted" true
    (Map_cache.contains c ~now:1.0 (addr "100.0.3.1"));
  Alcotest.(check int) "three live entries" 3 (Map_cache.length c);
  (* Rejections are not part of the insertion balance: a refused
     mapping was never cached. *)
  let s = Map_cache.stats c in
  Alcotest.(check int) "balance holds" s.Map_cache.insertions
    (Map_cache.length c + s.Map_cache.evictions + s.Map_cache.expirations
    + s.Map_cache.invalidations)

(* The gleaned population never exceeds the cap, and the insertion
   ledger still balances with rejections kept out of it. *)
let prop_cache_glean_cap_bound =
  QCheck.Test.make ~name:"glean cap bounds gleaned population" ~count:200
    QCheck.(
      pair (int_range 1 4)
        (list_of_size Gen.(1 -- 60) (pair bool (int_bound 12))))
    (fun (cap, ops) ->
      let c = Map_cache.create ~capacity:8 ~glean_cap:cap () in
      List.iteri
        (fun i (gleaned, third) ->
          let provenance =
            if gleaned then Map_cache.Gleaned else Map_cache.Verified
          in
          Map_cache.insert c ~now:(float_of_int i) ~provenance
            (mapping ~prefix:(Printf.sprintf "100.0.%d.0/24" third) ()))
        ops;
      let s = Map_cache.stats c in
      Map_cache.gleaned c <= cap
      && s.Map_cache.insertions
         = Map_cache.length c + s.Map_cache.evictions + s.Map_cache.expirations
           + s.Map_cache.invalidations)

(* ------------------------------------------------------------------ *)
(* Map_cache against a list model                                      *)
(* ------------------------------------------------------------------ *)

(* The model is a plain list of (prefix, expires_at), searched by brute
   force.  The caches below never fill, so eviction never enters. *)

(* The model's entries that hold [a], longest prefix first. *)
let model_covering model a =
  let longer (p, _) (q, _) =
    Int.compare (Ipv4.prefix_length q) (Ipv4.prefix_length p)
  in
  List.sort longer (List.filter (fun (p, _) -> Ipv4.prefix_mem p a) model)

let model_insert model p ~expires_at =
  (p, expires_at)
  :: List.filter (fun (q, _) -> not (Ipv4.prefix_equal p q)) model

let show = function None -> "none" | Some p -> Ipv4.prefix_to_string p

(* Prefixes of every length 0-32 under a few /12 anchors, so lookups hit
   nested chains of matches; probes are either inside a cached prefix
   or anywhere at all. *)
let anchors = [| 0x0A000000; 0x0A100000; 0xC0A00000 |]

let gen_prefix =
  QCheck.Gen.(
    map3
      (fun a low len ->
        Ipv4.prefix (Ipv4.addr_of_int (anchors.(a) lor low)) len)
      (int_bound 2) (int_bound 0xFFFFF) (int_range 0 32))

type op = Insert of Ipv4.prefix * int | Probe of int * int * bool

let gen_op =
  QCheck.Gen.(
    frequency
      [ (2, map2 (fun p ttl -> Insert (p, ttl)) gen_prefix (int_range 1 12));
        (3, map3 (fun sel off b -> Probe (sel, off, b)) nat nat bool) ])

let probe_addr model sel off =
  match model with
  | [] -> Ipv4.addr_of_int (off land 0xFFFFFFFF)
  | _ when sel mod 5 = 0 -> Ipv4.addr_of_int (off land 0xFFFFFFFF)
  | _ ->
      let p, _ = List.nth model (sel mod List.length model) in
      Ipv4.prefix_nth p (off mod Ipv4.prefix_size p)

(* [lookup] (and [contains]) return the longest live match; each longer
   match that has expired is reaped on the way and counted as an
   expiration.  The clock advances one step per operation. *)
let prop_cache_lookup_matches_model =
  QCheck.Test.make ~name:"cache lookup = list-model LPM" ~count:300
    (QCheck.make QCheck.Gen.(list_size (1 -- 80) gen_op))
    (fun ops ->
      let c = Map_cache.create () in
      let model = ref [] and expired = ref 0 in
      List.iteri
        (fun i op ->
          let now = float_of_int i in
          match op with
          | Insert (p, ttl) ->
              Map_cache.insert c ~now
                (Mapping.create ~eid_prefix:p
                   ~rlocs:[ Mapping.rloc (addr "12.0.0.1") ]
                   ~ttl:(float_of_int ttl));
              model := model_insert !model p ~expires_at:(now +. float_of_int ttl)
          | Probe (sel, off, use_lookup) ->
              let a = probe_addr !model sel off in
              let rec longest_live = function
                | [] -> None
                | (p, expires_at) :: rest ->
                    if expires_at > now then Some p
                    else begin
                      incr expired;
                      model :=
                        List.filter
                          (fun (q, _) -> not (Ipv4.prefix_equal q p))
                          !model;
                      longest_live rest
                    end
              in
              let want = longest_live (model_covering !model a) in
              if use_lookup then begin
                let got =
                  Option.map
                    (fun m -> m.Mapping.eid_prefix)
                    (Map_cache.lookup c ~now a)
                in
                if not (Option.equal Ipv4.prefix_equal got want) then
                  QCheck.Test.fail_reportf "op %d: %s matched %s, model says %s"
                    i (Ipv4.addr_to_string a) (show got) (show want)
              end
              else if Map_cache.contains c ~now a <> Option.is_some want then
                QCheck.Test.fail_reportf "op %d: contains %s disagrees with %s"
                  i (Ipv4.addr_to_string a) (show want);
              if (Map_cache.stats c).Map_cache.expirations <> !expired then
                QCheck.Test.fail_reportf "op %d: %d expirations, model says %d" i
                  (Map_cache.stats c).Map_cache.expirations !expired;
              if Map_cache.length c <> List.length !model then
                QCheck.Test.fail_reportf "op %d: %d entries, model says %d" i
                  (Map_cache.length c) (List.length !model))
        ops;
      true)

(* [remove_covered q] removes exactly the model's entries under [q] —
   expired or not, since only a lookup reaps — returns their number and
   reports them to the evict hook in ascending (network, length)
   order. *)
let remove_covered_matches_model (entries, q) =
  let c = Map_cache.create () in
  let model = ref [] in
  List.iteri
    (fun i (p, ttl) ->
      let now = float_of_int i in
      Map_cache.insert c ~now
        (Mapping.create ~eid_prefix:p ~rlocs:[ Mapping.rloc (addr "12.0.0.1") ]
           ~ttl:(float_of_int ttl));
      model := model_insert !model p ~expires_at:(now +. float_of_int ttl))
    entries;
  let hooked = ref [] in
  Map_cache.set_evict_hook c
    (Some (fun m -> hooked := m.Mapping.eid_prefix :: !hooked));
  let covered, kept =
    List.partition (fun (p, _) -> Ipv4.prefix_subsumes q p) !model
  in
  let want = List.sort Ipv4.prefix_compare (List.map fst covered) in
  let removed = Map_cache.remove_covered c q in
  let hooked = List.rev !hooked in
  if removed <> List.length want then
    QCheck.Test.fail_reportf "%s: removed %d, model covers %d"
      (Ipv4.prefix_to_string q) removed (List.length want);
  if not (List.equal Ipv4.prefix_equal hooked want) then
    QCheck.Test.fail_reportf "%s: hook saw [%s], want [%s]"
      (Ipv4.prefix_to_string q)
      (String.concat " " (List.map Ipv4.prefix_to_string hooked))
      (String.concat " " (List.map Ipv4.prefix_to_string want));
  Map_cache.length c = List.length kept
  && (Map_cache.stats c).Map_cache.invalidations = removed
  && List.for_all (fun (p, _) -> Map_cache.provenance_of c p <> None) kept
  && List.for_all (fun p -> Map_cache.provenance_of c p = None) want

(* A few entries of any length under a short covering prefix: probing
   every covered key would cost far more than the cache holds, so this
   exercises the one-pass path. *)
let prop_cache_remove_covered_scan =
  let shorten p len =
    Ipv4.prefix (Ipv4.prefix_network p) (Stdlib.min len (Ipv4.prefix_length p))
  in
  QCheck.Test.make ~name:"cache remove_covered = model (scan)" ~count:300
    (QCheck.make
       QCheck.Gen.(
         pair
           (list_size (1 -- 30) (pair gen_prefix (int_range 1 40)))
           (map2 shorten gen_prefix (int_range 0 24))))
    remove_covered_matches_model

(* Over a thousand /24s (and a few shorter prefixes) in one /12,
   covered by a /16-/24: fewer covered keys than entries, so this
   exercises the per-key probe path. *)
let prop_cache_remove_covered_probe =
  let in_12 len =
    QCheck.Gen.map
      (fun low -> Ipv4.prefix (Ipv4.addr_of_int (0x0A000000 lor low)) len)
      (QCheck.Gen.int_bound 0xFFFFF)
  in
  QCheck.Test.make ~name:"cache remove_covered = model (probe)" ~count:50
    (QCheck.make
       QCheck.Gen.(
         pair
           (map2 ( @ )
              (list_size (1000 -- 1500) (pair (in_12 24) (int_range 1 2000)))
              (list_size (0 -- 8)
                 (pair (int_range 20 23 >>= in_12) (int_range 1 2000))))
           (int_range 16 24 >>= in_12)))
    remove_covered_matches_model

(* ------------------------------------------------------------------ *)
(* Eviction policies against a list model                              *)
(* ------------------------------------------------------------------ *)

(* Twelve /24s (100.0.k.0/24), a cache of 3-5 entries, TTLs of 1-8 s
   and clock steps of whole seconds.  Each TTL also carries a fraction
   unique to the operation that drew it, so no two entries share an
   expiry and TTL-hybrid's victim is always well defined.  Lookups
   favour four hot prefixes, so LFU's hit-count classes fill up. *)

type evict_op =
  | E_insert of int * int  (** prefix, whole-second TTL *)
  | E_refresh of int * int  (** a cached prefix (by rank), TTL *)
  | E_lookup of int
  | E_contains of int
  | E_remove of int
  | E_advance of int

let show_evict_op = function
  | E_insert (k, ttl) -> Printf.sprintf "insert %d ttl %d" k ttl
  | E_refresh (r, ttl) -> Printf.sprintf "refresh #%d ttl %d" r ttl
  | E_lookup k -> Printf.sprintf "lookup %d" k
  | E_contains k -> Printf.sprintf "contains %d" k
  | E_remove k -> Printf.sprintf "remove %d" k
  | E_advance d -> Printf.sprintf "advance %d" d

let gen_evict_case =
  QCheck.Gen.(
    pair (int_range 3 5)
      (list_size (1 -- 100)
         (frequency
            [ (3, map2 (fun k t -> E_insert (k, t)) (int_bound 11) (int_range 1 8));
              (1, map2 (fun r t -> E_refresh (r, t)) nat (int_range 1 8));
              ( 4,
                map
                  (fun k -> E_lookup k)
                  (frequency [ (3, int_bound 3); (1, int_bound 11) ]) );
              (1, map (fun k -> E_contains k) (int_bound 11));
              (1, map (fun k -> E_remove k) (int_bound 11));
              (2, map (fun d -> E_advance d) (int_range 1 3)) ])))

(* One cached prefix as the model sees it.  [m_used] and [m_entered]
   are operation indices, so they never tie. *)
type model_entry = {
  m_prefix : int;
  m_expires : float;
  m_used : int;  (** last insert, refresh or hit (LRU) *)
  m_hits : int;  (** hit-count class: 1 on insert, kept on refresh (LFU) *)
  m_entered : int;  (** when it entered that class (LFU) *)
}

(* The victim is the least entry under the policy's order: least
   recently used; lowest hit count, then least recently entered into
   that class; smallest expiry.  Expired entries stay candidates until
   a lookup reaps them. *)
let victim_order policy a b =
  match policy with
  | Map_cache.Lru -> Int.compare a.m_used b.m_used
  | Map_cache.Lfu ->
      compare (a.m_hits, a.m_entered) (b.m_hits, b.m_entered)
  | Map_cache.Ttl_hybrid -> Float.compare a.m_expires b.m_expires

(* Runs the cache and the model side by side.  After every operation
   the lookup result, [length], all seven stats counters and the
   sequence of deaths the evict and expire hooks saw must agree. *)
let eviction_matches_model policy (capacity, ops) =
  let c = Map_cache.create ~policy ~capacity () in
  let prefix k = Printf.sprintf "100.0.%d.0/24" k in
  let seen = ref [] in
  let saw kind m =
    seen := (kind, Ipv4.prefix_to_string m.Mapping.eid_prefix) :: !seen
  in
  Map_cache.set_evict_hook c (Some (saw "evict"));
  Map_cache.set_expire_hook c (Some (saw "expire"));
  let model = ref [] and deaths = ref [] in
  let want =
    { Map_cache.hits = 0; misses = 0; insertions = 0; evictions = 0;
      expirations = 0; invalidations = 0; glean_rejections = 0 }
  in
  let die kind e =
    model := List.filter (fun x -> x.m_prefix <> e.m_prefix) !model;
    deaths := (kind, prefix e.m_prefix) :: !deaths
  in
  let find k = List.find_opt (fun e -> e.m_prefix = k) !model in
  let now = ref 0.0 in
  let insert i k ttl =
    let ttl = float_of_int ttl +. (float_of_int (i + 1) /. 1024.0) in
    Map_cache.insert c ~now:!now (mapping ~prefix:(prefix k) ~ttl ());
    let expires = !now +. ttl in
    match find k with
    | Some e ->
        model :=
          { e with m_expires = expires; m_used = i; m_entered = i }
          :: List.filter (fun x -> x.m_prefix <> k) !model
    | None ->
        if List.length !model >= capacity then begin
          let v = List.hd (List.sort (victim_order policy) !model) in
          if v.m_expires <= !now then begin
            want.expirations <- want.expirations + 1;
            die "expire" v
          end
          else begin
            want.evictions <- want.evictions + 1;
            die "evict" v
          end
        end;
        want.insertions <- want.insertions + 1;
        model :=
          { m_prefix = k; m_expires = expires; m_used = i; m_hits = 1;
            m_entered = i }
          :: !model
  in
  (* The model's answer to a lookup or contains of [k]: an expired
     entry is reaped and counted, a live one returned. *)
  let live k =
    match find k with
    | Some e when e.m_expires > !now -> Some e
    | Some e ->
        want.expirations <- want.expirations + 1;
        die "expire" e;
        None
    | None -> None
  in
  let counters (s : Map_cache.stats) =
    [ s.hits; s.misses; s.insertions; s.evictions; s.expirations;
      s.invalidations; s.glean_rejections ]
  in
  List.iteri
    (fun i op ->
      let addr_of k = addr (Printf.sprintf "100.0.%d.9" k) in
      (match op with
      | E_advance d -> now := !now +. float_of_int d
      | E_insert (k, ttl) -> insert i k ttl
      | E_refresh (r, ttl) -> (
          match List.sort compare (List.map (fun e -> e.m_prefix) !model) with
          | [] -> insert i (r mod 12) ttl
          | ks -> insert i (List.nth ks (r mod List.length ks)) ttl)
      | E_lookup k ->
          let got =
            Option.map
              (fun m -> Ipv4.prefix_to_string m.Mapping.eid_prefix)
              (Map_cache.lookup c ~now:!now (addr_of k))
          in
          let expected =
            match live k with
            | Some e ->
                want.hits <- want.hits + 1;
                model :=
                  { e with m_used = i; m_hits = e.m_hits + 1; m_entered = i }
                  :: List.filter (fun x -> x.m_prefix <> k) !model;
                Some (prefix k)
            | None ->
                want.misses <- want.misses + 1;
                None
          in
          if got <> expected then
            QCheck.Test.fail_reportf "op %d (lookup %d): got %s, model says %s"
              i k
              (Option.value got ~default:"miss")
              (Option.value expected ~default:"miss")
      | E_contains k ->
          let got = Map_cache.contains c ~now:!now (addr_of k) in
          if got <> Option.is_some (live k) then
            QCheck.Test.fail_reportf "op %d: contains %d disagrees" i k
      | E_remove k -> (
          Map_cache.remove c (pfx (prefix k));
          match find k with
          | Some e ->
              want.invalidations <- want.invalidations + 1;
              die "evict" e
          | None -> ()));
      if Map_cache.length c <> List.length !model then
        QCheck.Test.fail_reportf "op %d (%s): %d entries, model says %d" i
          (show_evict_op op) (Map_cache.length c) (List.length !model);
      if counters (Map_cache.stats c) <> counters want then
        QCheck.Test.fail_reportf "op %d (%s): stats [%s], model says [%s]" i
          (show_evict_op op)
          (String.concat " "
             (List.map string_of_int (counters (Map_cache.stats c))))
          (String.concat " " (List.map string_of_int (counters want)));
      if !seen <> !deaths then
        let show l =
          String.concat " "
            (List.rev_map (fun (kind, p) -> kind ^ ":" ^ p) l)
        in
        QCheck.Test.fail_reportf "op %d (%s): hooks saw [%s], model says [%s]"
          i (show_evict_op op) (show !seen) (show !deaths))
    ops;
  true

let prop_cache_eviction_matches_model policy =
  QCheck.Test.make
    ~name:
      (Printf.sprintf "eviction (%s) = list model"
         (Map_cache.policy_label policy))
    ~count:500
    (QCheck.make
       ~print:(fun (capacity, ops) ->
         Printf.sprintf "capacity %d: %s" capacity
           (String.concat "; " (List.map show_evict_op ops)))
       gen_evict_case)
    (eviction_matches_model policy)

(* ------------------------------------------------------------------ *)
(* Flow_table                                                          *)
(* ------------------------------------------------------------------ *)

let entry ?(src = "100.0.0.1") ?(dst = "100.0.1.1") ?(src_rloc = "10.0.0.1")
    ?(dst_rloc = "12.0.0.1") () =
  { Mapping.src_eid = addr src; dst_eid = addr dst; src_rloc = addr src_rloc;
    dst_rloc = addr dst_rloc }

let test_flow_table_roundtrip () =
  let t = Flow_table.create () in
  Flow_table.install t ~now:0.0 (entry ());
  (match
     Flow_table.lookup t ~now:1.0 ~src_eid:(addr "100.0.0.1")
       ~dst_eid:(addr "100.0.1.1")
   with
  | Some e ->
      Alcotest.(check string) "src rloc" "10.0.0.1"
        (Ipv4.addr_to_string e.Mapping.src_rloc)
  | None -> Alcotest.fail "expected entry");
  Alcotest.(check bool) "exact match only" true
    (Flow_table.lookup t ~now:1.0 ~src_eid:(addr "100.0.0.2")
       ~dst_eid:(addr "100.0.1.1")
    = None)

let test_flow_table_expiry () =
  let t = Flow_table.create ~ttl:10.0 () in
  Flow_table.install t ~now:0.0 (entry ());
  Alcotest.(check bool) "live" true
    (Flow_table.lookup t ~now:9.0 ~src_eid:(addr "100.0.0.1")
       ~dst_eid:(addr "100.0.1.1")
    <> None);
  Alcotest.(check bool) "expired" true
    (Flow_table.lookup t ~now:11.0 ~src_eid:(addr "100.0.0.1")
       ~dst_eid:(addr "100.0.1.1")
    = None)

let test_flow_table_iter_live_only () =
  let t = Flow_table.create ~ttl:10.0 () in
  Flow_table.install t ~now:0.0 (entry ~src:"100.0.0.1" ());
  Flow_table.install t ~now:5.0 (entry ~src:"100.0.0.2" ());
  let seen = ref 0 in
  Flow_table.iter t ~now:12.0 ~f:(fun _ -> incr seen);
  Alcotest.(check int) "only the fresh entry" 1 !seen

(* Regression (issue 7): [length] and [iter] used to count slots that
   had expired but not yet been reaped, so router-state accounting
   drifted upward between lookups.  Both now reap expired slots as
   they walk. *)
let test_flow_table_length_reaps_expired () =
  let t = Flow_table.create ~ttl:10.0 () in
  for i = 1 to 8 do
    Flow_table.install t ~now:0.0 (entry ~src:(Printf.sprintf "100.0.0.%d" i) ())
  done;
  Flow_table.install t ~now:6.0 (entry ~src:"100.0.0.99" ());
  Alcotest.(check int) "all live before ttl" 9 (Flow_table.length t ~now:5.0);
  (* The first eight expired at t=10; only the late install survives. *)
  Alcotest.(check int) "expired slots not counted" 1
    (Flow_table.length t ~now:12.0);
  let visited = ref [] in
  Flow_table.iter t ~now:12.0 ~f:(fun e ->
      visited := Ipv4.addr_to_string e.Mapping.src_eid :: !visited);
  Alcotest.(check (list string)) "iter skips expired" [ "100.0.0.99" ] !visited;
  (* Reaped slots are really gone: the survivor is still found and the
     expired keys can be re-installed cleanly. *)
  Alcotest.(check bool) "survivor still resolvable" true
    (Flow_table.lookup t ~now:12.0 ~src_eid:(addr "100.0.0.99")
       ~dst_eid:(addr "100.0.1.1")
    <> None);
  Flow_table.install t ~now:12.0 (entry ~src:"100.0.0.1" ());
  Alcotest.(check int) "reinstall after reap" 2 (Flow_table.length t ~now:13.0)

(* ------------------------------------------------------------------ *)
(* Dataplane with a scripted control plane                             *)
(* ------------------------------------------------------------------ *)

type script = {
  mutable misses : (Ipv4.addr * string) list;
  mutable etr_notes : (Ipv4.addr option * int) list;
  mutable decision : Dataplane.miss_decision;
}

let make_world
    ?(decision = Dataplane.Miss_drop Netsim.Drop.Mapping_resolution_drop)
    () =
  let engine = Netsim.Engine.create () in
  let internet = Topology.Builder.figure1 () in
  let script = { misses = []; etr_notes = []; decision } in
  let control_plane =
    { Dataplane.cp_name = "scripted";
      cp_choose_egress =
        (fun ~src_domain flow ->
          src_domain.Topology.Domain.borders.(Flow.hash flow
                                              mod Array.length
                                                    src_domain
                                                      .Topology.Domain.borders));
      cp_handle_miss =
        (fun router packet ->
          script.misses <-
            (packet.Packet.flow.Flow.dst,
             router.Dataplane.router_domain.Topology.Domain.name)
            :: script.misses;
          script.decision);
      cp_note_etr_packet =
        (fun router ~outer_src _packet ->
          script.etr_notes <-
            (outer_src, router.Dataplane.router_domain.Topology.Domain.id)
            :: script.etr_notes) }
  in
  let dp = Dataplane.create ~engine ~internet ~control_plane () in
  (engine, internet, dp, script)

let flow_between internet =
  let as_s = internet.Topology.Builder.domains.(0) in
  let as_d = internet.Topology.Builder.domains.(1) in
  Flow.create
    ~src:(Topology.Domain.host_eid as_s 0)
    ~dst:(Topology.Domain.host_eid as_d 0)
    ~src_port:1000 ()

let test_dataplane_miss_goes_to_cp () =
  let engine, internet, dp, script = make_world () in
  let flow = flow_between internet in
  let packet = Packet.make ~flow ~segment:Packet.Syn ~sent_at:0.0 in
  Dataplane.send_from_host dp packet;
  Netsim.Engine.run engine;
  Alcotest.(check int) "one miss" 1 (List.length script.misses);
  let counters = Dataplane.counters dp in
  Alcotest.(check int) "dropped" 1 counters.Dataplane.dropped;
  Alcotest.(check int) "not delivered" 0 counters.Dataplane.delivered;
  Alcotest.(check (list (pair string int))) "drop causes"
    [ ("mapping-resolution-drop", 1) ]
    (Dataplane.drop_causes dp)

let test_dataplane_mapping_delivery () =
  let engine, internet, dp, _script = make_world () in
  let as_d = internet.Topology.Builder.domains.(1) in
  let flow = flow_between internet in
  (* Install the destination mapping everywhere in AS_S. *)
  let m = Topology.Domain.advertised_mapping as_d ~ttl:60.0 in
  Dataplane.install_mapping_all dp internet.Topology.Builder.domains.(0) m;
  let received = ref [] in
  Dataplane.set_host_receiver dp flow.Flow.dst
    (Some (fun p -> received := p :: !received));
  let packet = Packet.make ~flow ~segment:Packet.Syn ~sent_at:0.0 in
  Dataplane.send_from_host dp packet;
  Netsim.Engine.run engine;
  Alcotest.(check int) "delivered to host" 1 (List.length !received);
  (match !received with
  | [ p ] ->
      Alcotest.(check bool) "decapsulated before delivery" false
        (Packet.is_encapsulated p)
  | _ -> ());
  let counters = Dataplane.counters dp in
  Alcotest.(check int) "one encap" 1 counters.Dataplane.encapsulated;
  Alcotest.(check int) "one decap" 1 counters.Dataplane.decapsulated;
  Alcotest.(check int) "no drops" 0 counters.Dataplane.dropped;
  Alcotest.(check bool) "delivery took network time" true
    (Netsim.Engine.now engine > 0.02)

let test_dataplane_flow_entry_overrides_src () =
  let engine, internet, dp, script = make_world () in
  let as_s = internet.Topology.Builder.domains.(0) in
  let as_d = internet.Topology.Builder.domains.(1) in
  let flow = flow_between internet in
  (* Flow entry directs reverse traffic through border 1 of AS_S even
     though any ITR may forward. *)
  let e =
    { Mapping.src_eid = flow.Flow.src; dst_eid = flow.Flow.dst;
      src_rloc = as_s.Topology.Domain.borders.(1).Topology.Domain.rloc;
      dst_rloc = as_d.Topology.Domain.borders.(1).Topology.Domain.rloc }
  in
  Dataplane.install_flow_entry_all dp as_s e;
  let packet = Packet.make ~flow ~segment:Packet.Syn ~sent_at:0.0 in
  Dataplane.send_from_host dp packet;
  Netsim.Engine.run engine;
  (* The ETR note must carry the overridden outer source. *)
  match script.etr_notes with
  | [ (Some outer_src, domain_id) ] ->
      Alcotest.(check int) "arrived in AS_D" 1 domain_id;
      Alcotest.(check string) "outer src is the flow entry's RLOC_S"
        (Ipv4.addr_to_string as_s.Topology.Domain.borders.(1).Topology.Domain.rloc)
        (Ipv4.addr_to_string outer_src)
  | _ -> Alcotest.fail "expected exactly one tunneled arrival"

let test_dataplane_intra_domain_bypasses_lisp () =
  let engine, internet, dp, script = make_world () in
  let as_s = internet.Topology.Builder.domains.(0) in
  let flow =
    Flow.create
      ~src:(Topology.Domain.host_eid as_s 0)
      ~dst:(Topology.Domain.host_eid as_s 1)
      ()
  in
  let got = ref 0 in
  Dataplane.set_host_receiver dp flow.Flow.dst (Some (fun _ -> incr got));
  Dataplane.send_from_host dp (Packet.make ~flow ~segment:Packet.Syn ~sent_at:0.0);
  Netsim.Engine.run engine;
  Alcotest.(check int) "delivered locally" 1 !got;
  Alcotest.(check int) "no CP involvement" 0 (List.length script.misses);
  let counters = Dataplane.counters dp in
  Alcotest.(check int) "intra-domain counted" 1 counters.Dataplane.intra_domain;
  Alcotest.(check int) "no encapsulation" 0 counters.Dataplane.encapsulated

let test_dataplane_hold_and_retransmit () =
  let engine, internet, dp, script = make_world ~decision:Dataplane.Miss_hold () in
  let as_s = internet.Topology.Builder.domains.(0) in
  let as_d = internet.Topology.Builder.domains.(1) in
  let flow = flow_between internet in
  let received = ref 0 in
  Dataplane.set_host_receiver dp flow.Flow.dst (Some (fun _ -> incr received));
  let packet = Packet.make ~flow ~segment:Packet.Syn ~sent_at:0.0 in
  Dataplane.send_from_host dp packet;
  Netsim.Engine.run engine;
  Alcotest.(check int) "held, not dropped" 1 (Dataplane.counters dp).Dataplane.held;
  (* The control plane later installs the mapping and retransmits. *)
  let m = Topology.Domain.advertised_mapping as_d ~ttl:60.0 in
  let router =
    Dataplane.router_for_border dp
      (match script.misses with
      | [ _ ] ->
          (* Recover the ITR that reported the miss via egress choice. *)
          as_s.Topology.Domain.borders.(Flow.hash flow
                                        mod Array.length as_s.Topology.Domain.borders)
      | _ -> Alcotest.fail "expected one miss")
  in
  Dataplane.install_mapping dp router m;
  Dataplane.transmit_from_itr dp router packet;
  Netsim.Engine.run engine;
  Alcotest.(check int) "delivered after retransmit" 1 !received;
  Alcotest.(check int) "no drops" 0 (Dataplane.counters dp).Dataplane.dropped

let test_dataplane_post_resolution_miss_drops () =
  let engine, internet, dp, _script = make_world ~decision:Dataplane.Miss_hold () in
  let as_s = internet.Topology.Builder.domains.(0) in
  let flow = flow_between internet in
  let packet = Packet.make ~flow ~segment:Packet.Syn ~sent_at:0.0 in
  let router = Dataplane.router_for_border dp as_s.Topology.Domain.borders.(0) in
  Dataplane.transmit_from_itr dp router packet;
  Netsim.Engine.run engine;
  Alcotest.(check (list (pair string int))) "post-resolution drop"
    [ ("post-resolution-miss", 1) ]
    (Dataplane.drop_causes dp)

let test_dataplane_deliver_via () =
  let engine, internet, dp, _script = make_world () in
  let as_d = internet.Topology.Builder.domains.(1) in
  let flow = flow_between internet in
  let received_at = ref None in
  Dataplane.set_host_receiver dp flow.Flow.dst
    (Some (fun _ -> received_at := Some (Netsim.Engine.now engine)));
  let packet = Packet.make ~flow ~segment:Packet.Syn ~sent_at:0.0 in
  let etr = Dataplane.router_for_border dp as_d.Topology.Domain.borders.(0) in
  Dataplane.deliver_via dp etr packet ~extra_delay:0.25;
  Netsim.Engine.run engine;
  match !received_at with
  | Some at -> Alcotest.(check bool) "detour delay applied" true (at >= 0.25)
  | None -> Alcotest.fail "packet never delivered"

let test_dataplane_uplink_accounting () =
  let engine, internet, dp, _script = make_world () in
  let as_s = internet.Topology.Builder.domains.(0) in
  let as_d = internet.Topology.Builder.domains.(1) in
  let flow = flow_between internet in
  Dataplane.install_mapping_all dp as_s
    (Topology.Domain.advertised_mapping as_d ~ttl:60.0);
  Dataplane.set_host_receiver dp flow.Flow.dst (Some ignore);
  Dataplane.send_from_host dp
    (Packet.make ~flow ~segment:(Packet.Data 1000) ~sent_at:0.0);
  Netsim.Engine.run engine;
  (* Exactly one AS_S uplink carried the (encapsulated) bytes out. *)
  let out_bytes =
    Array.map
      (fun b ->
        Topology.Link.bytes_from b.Topology.Domain.uplink
          b.Topology.Domain.router)
      as_s.Topology.Domain.borders
  in
  let total = Array.fold_left ( + ) 0 out_bytes in
  Alcotest.(check int) "encapsulated size on the uplink" (40 + 1000 + 36) total

let () =
  Alcotest.run "lispdp"
    [
      ( "map_cache",
        [
          Alcotest.test_case "hit and miss" `Quick test_cache_hit_and_miss;
          Alcotest.test_case "ttl expiry" `Quick test_cache_ttl_expiry;
          Alcotest.test_case "reinsert refreshes" `Quick test_cache_reinsert_refreshes;
          Alcotest.test_case "lru eviction" `Quick test_cache_lru_eviction;
          Alcotest.test_case "longest prefix" `Quick test_cache_longest_prefix;
          Alcotest.test_case "remove and clear" `Quick test_cache_remove_and_clear;
          Alcotest.test_case "remove covered" `Quick test_cache_remove_covered;
          Alcotest.test_case "invalidation stats and hook" `Quick
            test_cache_invalidation_stats_and_hook;
          Alcotest.test_case "expire hook" `Quick test_cache_expire_hook;
          Alcotest.test_case "clear resets stats" `Quick
            test_cache_clear_resets_stats;
          Alcotest.test_case "expired tail attribution" `Quick
            test_cache_expired_tail_attribution;
          Alcotest.test_case "lfu evicts least frequent" `Quick
            test_cache_lfu_evicts_least_frequent;
          Alcotest.test_case "ttl-hybrid evicts nearest expiry" `Quick
            test_cache_ttl_hybrid_evicts_nearest_expiry;
          Alcotest.test_case "policy of string" `Quick
            test_cache_policy_of_string;
          Alcotest.test_case "provenance upgrade only" `Quick
            test_cache_provenance_upgrade_only;
          Alcotest.test_case "glean cap rejects" `Quick
            test_cache_glean_cap_rejects;
        ] );
      ( "flow_table",
        [
          Alcotest.test_case "roundtrip" `Quick test_flow_table_roundtrip;
          Alcotest.test_case "expiry" `Quick test_flow_table_expiry;
          Alcotest.test_case "iter live only" `Quick test_flow_table_iter_live_only;
          Alcotest.test_case "length reaps expired" `Quick
            test_flow_table_length_reaps_expired;
        ] );
      ( "dataplane",
        [
          Alcotest.test_case "miss to cp" `Quick test_dataplane_miss_goes_to_cp;
          Alcotest.test_case "mapping delivery" `Quick test_dataplane_mapping_delivery;
          Alcotest.test_case "flow entry src override" `Quick test_dataplane_flow_entry_overrides_src;
          Alcotest.test_case "intra-domain" `Quick test_dataplane_intra_domain_bypasses_lisp;
          Alcotest.test_case "hold and retransmit" `Quick test_dataplane_hold_and_retransmit;
          Alcotest.test_case "post-resolution miss" `Quick test_dataplane_post_resolution_miss_drops;
          Alcotest.test_case "deliver via" `Quick test_dataplane_deliver_via;
          Alcotest.test_case "uplink accounting" `Quick test_dataplane_uplink_accounting;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_cache_never_exceeds_capacity;
            prop_cache_glean_cap_bound;
            prop_cache_lookup_matches_model;
            prop_cache_remove_covered_scan;
            prop_cache_remove_covered_probe;
            prop_cache_stats_balance Map_cache.Lru;
            prop_cache_stats_balance Map_cache.Lfu;
            prop_cache_stats_balance Map_cache.Ttl_hybrid;
            prop_cache_eviction_matches_model Map_cache.Lru;
            prop_cache_eviction_matches_model Map_cache.Lfu;
            prop_cache_eviction_matches_model Map_cache.Ttl_hybrid ] );
    ]
