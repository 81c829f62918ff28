(* Shared driver for the M-series cache experiments.

   Drives a Map_cache directly with a Zipf reference stream over an
   internet-scale EID prefix universe — no packets, no event engine:
   one reference is one ITR lookup (and, on a miss, the resulting
   mapping installation).  This is what lets the cells run at millions
   of prefixes and references in seconds; everything is seeded, so the
   measured quantities are exact across runs and job counts. *)

open Nettypes

type result = {
  measured_miss : float;  (* misses / refs over the measurement window *)
  hits : int;
  misses : int;
  evictions : int;  (* whole cell, warmup included *)
  expirations : int;
}

(* The sampler's exact masses, so predictions and measurements share
   one popularity distribution. *)
let masses_of dist =
  Array.init (Netsim.Rng.Zipf.support dist) (Netsim.Rng.Zipf.probability dist)

let rloc = Mapping.rloc (Ipv4.addr_of_int 0x0A000001)

(* Run one cell: [warmup] references to reach steady state (not
   counted), then [refs] measured references.  Simulated time advances
   [dt] seconds per reference, so [ttl] bounds an entry's life to
   [ttl /. dt] references; pass [dt = 0.0] for a TTL-free cell (the
   regime the analytical model describes). *)
let run_cell ~universe ~dist ~policy ~capacity ~warmup ~refs ~ttl ~dt ~seed ()
    =
  let cache = Lispdp.Map_cache.create ~policy ~capacity () in
  let rng = Netsim.Rng.create seed in
  let now = ref 0.0 in
  let reference () =
    let rank = Netsim.Rng.Zipf.sample dist rng in
    (match
       Lispdp.Map_cache.lookup cache ~now:!now
         (Workload.Eid_universe.network universe rank)
     with
    | Some _ -> ()
    | None ->
        Lispdp.Map_cache.insert cache ~now:!now
          (Mapping.create
             ~eid_prefix:(Workload.Eid_universe.prefix universe rank)
             ~rlocs:[ rloc ] ~ttl));
    now := !now +. dt
  in
  for _ = 1 to warmup do
    reference ()
  done;
  let stats = Lispdp.Map_cache.stats cache in
  let hits0 = stats.Lispdp.Map_cache.hits
  and misses0 = stats.Lispdp.Map_cache.misses in
  for _ = 1 to refs do
    reference ()
  done;
  let hits = stats.Lispdp.Map_cache.hits - hits0
  and misses = stats.Lispdp.Map_cache.misses - misses0 in
  { measured_miss = float_of_int misses /. float_of_int (Stdlib.max 1 refs);
    hits; misses; evictions = stats.Lispdp.Map_cache.evictions;
    expirations = stats.Lispdp.Map_cache.expirations }

(* The BENCH.json row of one cell: the measured miss rate, plus the
   model prediction, its relative error and tolerance for the cells the
   model gates. *)
let row ~run ~policy ~n ~alpha ~capacity ~refs ?gate r ok =
  let float x = Obs.Json.Float x in
  { Bench_row.run; ok;
    fields =
      [ ("policy", Obs.Json.String policy); ("n", Obs.Json.Int n);
        ("alpha", float alpha); ("capacity", Obs.Json.Int capacity);
        ("refs", Obs.Json.Int refs); ("measured_miss", float r.measured_miss) ]
      @
      match gate with
      | Some (predicted, rel_err, tolerance) ->
          [ ("predicted_miss", float predicted); ("rel_err", float rel_err);
            ("tolerance", float tolerance) ]
      | None -> [] }
