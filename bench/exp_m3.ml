(* M3 — eviction policies under TTL churn.

   The M1/M2 regime is pure capacity pressure; real map-caches also age
   entries out.  Here simulated time advances per reference and
   mappings carry a finite TTL, so entries die both ways, and the
   cache's expiration-vs-eviction attribution matters: an
   already-expired victim picked under capacity pressure must count as
   an expiration (the accounting this PR fixes), or the policy
   comparison below would overstate capacity pressure — LRU's victim
   tail is exactly where lapsed entries pool.  TTL-hybrid reaps the
   shortest-remaining-lifetime entry first, which with a uniform TTL
   means oldest-inserted regardless of popularity — so it trails LRU,
   whose recency order tracks the live working set.  No analytical
   gate: the Coras model excludes TTL; the rows land in BENCH.json
   ungated, determinism-only. *)

let id = "m3"
let title = "M3: policy face-off under TTL churn (1M EIDs, 60s TTL)"
let n = 1_000_000
let capacity = 16_384
let alpha = 0.9
let warmup = 1_000_000
let measure_refs = 2_000_000

(* 1000 references per simulated second; a 60s TTL caps an entry's life
   at 60k references.  At a ~0.6 miss rate that is ~36k insertions per
   TTL window pressing on a 16_384-entry cache, so expiry and capacity
   pressure are comparable forces (a larger cache never fills before
   its entries lapse and every policy degenerates to pure TTL). *)
let dt = 1e-3
let ttl = 60.0
let policies = [ Lispdp.Map_cache.Lru; Lispdp.Map_cache.Lfu; Lispdp.Map_cache.Ttl_hybrid ]
let universe_seed = 1019
let cell_seed = 4001

let cells () =
  let universe =
    Workload.Eid_universe.generate ~rng:(Netsim.Rng.create universe_seed) ~n
  in
  let dist = Netsim.Rng.Zipf.create ~n ~alpha in
  List.map
    (fun policy ->
      let label = Lispdp.Map_cache.policy_label policy in
      let r =
        Cache_lab.run_cell ~universe ~dist ~policy ~capacity ~warmup
          ~refs:measure_refs ~ttl ~dt ~seed:cell_seed ()
      in
      Bench_row.record "cache"
        (Cache_lab.row ~run:label ~policy:label ~n ~alpha ~capacity
           ~refs:measure_refs r true);
      (label, r))
    policies

let tables () =
  let table =
    Metrics.Table.create ~title
      ~columns:
        [ "policy"; "measured-miss"; "evictions"; "expirations";
          "expired-share" ]
  in
  List.iter
    (fun (label, r) ->
      let deaths = r.Cache_lab.evictions + r.Cache_lab.expirations in
      Metrics.Table.add_row table
        [ label; Printf.sprintf "%.5f" r.Cache_lab.measured_miss;
          Metrics.Table.cell_int r.Cache_lab.evictions;
          Metrics.Table.cell_int r.Cache_lab.expirations;
          Metrics.Table.cell_pct
            (float_of_int r.Cache_lab.expirations
            /. float_of_int (Stdlib.max 1 deaths)) ])
    (cells ());
  [ table ]

let print () = List.iter Metrics.Table.print (tables ())
