(* M1 — map-cache miss rate vs cache size: measured LRU against the
   Coras analytical model, at one million EID prefixes.

   The repo's first external-model validation: the Coras working-set
   model (Che's approximation under the independent reference model)
   predicts the steady-state LRU miss rate from the popularity masses
   and the cache capacity alone.  Each cell warms the cache for several
   characteristic times, measures two million references, and
   hard-fails the experiment when the measured miss rate diverges from
   the prediction beyond the stated tolerance — so the bench run (and
   `bench --check`, via the recorded cache rows) gates on the model
   staying true.  Everything is seeded and engine-free: the cell is
   exact across runs and job counts. *)

let id = "m1"
let title = "M1: LRU miss rate vs cache size — measured vs Coras model (1M EIDs)"
let n = 1_000_000
let alpha = 0.9
let capacities = [ 4_096; 16_384; 65_536; 262_144 ]
let measure_refs = 2_000_000

(* Tolerance stated for the gate: relative error of the measured miss
   rate against the prediction, with an absolute floor so cells with
   tiny miss rates aren't judged on noise. *)
let tolerance = 0.10
let abs_floor = 0.005

(* TTL far beyond any cell's span: the model assumes pure capacity
   pressure, no expiry. *)
let ttl = 1e9

let universe_seed = 1009
let cell_seed = 2003

let cells () =
  let universe =
    Workload.Eid_universe.generate ~rng:(Netsim.Rng.create universe_seed) ~n
  in
  let dist = Netsim.Rng.Zipf.create ~n ~alpha in
  let masses = Cache_lab.masses_of dist in
  List.map
    (fun capacity ->
      let prediction = Workload.Cache_model.predict ~masses ~capacity in
      (* Steady state is reached once the initial cold fill has been
         churned through a few characteristic times. *)
      let warmup =
        let tc = prediction.Workload.Cache_model.characteristic_time in
        if Float.is_finite tc then
          Stdlib.min 8_000_000 (Stdlib.max (2 * capacity) (int_of_float (3.0 *. tc)))
        else 2 * capacity
      in
      let r =
        Cache_lab.run_cell ~universe ~dist ~policy:Lispdp.Map_cache.Lru
          ~capacity ~warmup ~refs:measure_refs ~ttl ~dt:0.0
          ~seed:(cell_seed + capacity) ()
      in
      let predicted = prediction.Workload.Cache_model.miss_rate in
      let rel_err =
        Float.abs (r.Cache_lab.measured_miss -. predicted)
        /. Float.max predicted 1e-12
      in
      let ok =
        rel_err <= tolerance
        || Float.abs (r.Cache_lab.measured_miss -. predicted) <= abs_floor
      in
      Bench_row.record "cache"
        (Cache_lab.row ~run:(Printf.sprintf "lru/c=%d" capacity) ~policy:"lru"
           ~n ~alpha ~capacity ~refs:measure_refs
           ~gate:(predicted, rel_err, tolerance) r ok);
      (capacity, prediction, r, rel_err, ok))
    capacities

let tables () =
  let table =
    Metrics.Table.create ~title
      ~columns:
        [ "capacity"; "T_C (refs)"; "predicted-miss"; "measured-miss";
          "rel-err"; "evictions"; "model" ]
  in
  let all_ok = ref true in
  List.iter
    (fun (capacity, prediction, r, rel_err, ok) ->
      if not ok then all_ok := false;
      Metrics.Table.add_row table
        [ Metrics.Table.cell_int capacity;
          Printf.sprintf "%.3g"
            prediction.Workload.Cache_model.characteristic_time;
          Printf.sprintf "%.5f" prediction.Workload.Cache_model.miss_rate;
          Printf.sprintf "%.5f" r.Cache_lab.measured_miss;
          Metrics.Table.cell_pct rel_err;
          Metrics.Table.cell_int r.Cache_lab.evictions;
          (if ok then "OK" else "DIVERGED") ])
    (cells ());
  if not !all_ok then
    failwith
      (Printf.sprintf
         "M1: measured LRU miss rate diverged from the Coras model beyond \
          %.0f%% relative (abs floor %g)"
         (tolerance *. 100.0) abs_floor);
  [ table ]

let print () = List.iter Metrics.Table.print (tables ())
