(* M2 — eviction-policy face-off across popularity skew.

   Sweeps the Zipf exponent at a fixed cache size over all three
   eviction policies.  LRU cells are additionally validated against the
   Coras model (same gate as M1); LFU and TTL-hybrid have no analytical
   prediction — their rows land in BENCH.json ungated, as the measured
   curve the policy comparison rests on.  With a TTL far beyond the
   cell span, TTL-hybrid degenerates to FIFO (eviction order =
   insertion order), which is exactly the interesting contrast with
   recency (LRU) and frequency (LFU) under heavy vs light skew. *)

let id = "m2"
let title = "M2: policy face-off: miss rate vs Zipf skew (1M EIDs)"
let n = 1_000_000
let capacity = 65_536
let alphas = [ 0.6; 0.8; 1.0; 1.2 ]
let policies = [ Lispdp.Map_cache.Lru; Lispdp.Map_cache.Lfu; Lispdp.Map_cache.Ttl_hybrid ]
let warmup = 2_000_000
let measure_refs = 2_000_000
let tolerance = 0.10
let abs_floor = 0.005
let ttl = 1e9
let universe_seed = 1013
let cell_seed = 3001

let cells () =
  let universe =
    Workload.Eid_universe.generate ~rng:(Netsim.Rng.create universe_seed) ~n
  in
  List.map
    (fun alpha ->
      let dist = Netsim.Rng.Zipf.create ~n ~alpha in
      let masses = Cache_lab.masses_of dist in
      let prediction = Workload.Cache_model.predict ~masses ~capacity in
      let predicted = prediction.Workload.Cache_model.miss_rate in
      let per_policy =
        List.map
          (fun policy ->
            let label = Lispdp.Map_cache.policy_label policy in
            let r =
              Cache_lab.run_cell ~universe ~dist ~policy ~capacity ~warmup
                ~refs:measure_refs ~ttl ~dt:0.0
                ~seed:(cell_seed + int_of_float (alpha *. 100.0)) ()
            in
            let gated = policy = Lispdp.Map_cache.Lru in
            let rel_err =
              Float.abs (r.Cache_lab.measured_miss -. predicted)
              /. Float.max predicted 1e-12
            in
            let ok =
              (not gated)
              || rel_err <= tolerance
              || Float.abs (r.Cache_lab.measured_miss -. predicted)
                 <= abs_floor
            in
            Bench_row.record "cache"
              (Cache_lab.row ~run:(Printf.sprintf "%s/a=%.1f" label alpha)
                 ~policy:label ~n ~alpha ~capacity ~refs:measure_refs
                 ?gate:
                   (if gated then Some (predicted, rel_err, tolerance)
                    else None)
                 r ok);
            (policy, r, ok))
          policies
      in
      (alpha, predicted, per_policy))
    alphas

let tables () =
  let table =
    Metrics.Table.create ~title
      ~columns:
        [ "alpha"; "model-miss (LRU)"; "lru-miss"; "lfu-miss";
          "ttl-hybrid-miss"; "model" ]
  in
  let all_ok = ref true in
  List.iter
    (fun (alpha, predicted, per_policy) ->
      let miss p =
        match List.find_opt (fun (q, _, _) -> q = p) per_policy with
        | Some (_, r, _) -> Printf.sprintf "%.5f" r.Cache_lab.measured_miss
        | None -> "-"
      in
      let row_ok = List.for_all (fun (_, _, ok) -> ok) per_policy in
      if not row_ok then all_ok := false;
      Metrics.Table.add_row table
        [ Printf.sprintf "%.1f" alpha; Printf.sprintf "%.5f" predicted;
          miss Lispdp.Map_cache.Lru; miss Lispdp.Map_cache.Lfu;
          miss Lispdp.Map_cache.Ttl_hybrid;
          (if row_ok then "OK" else "DIVERGED") ])
    (cells ());
  if not !all_ok then
    failwith
      (Printf.sprintf
         "M2: measured LRU miss rate diverged from the Coras model beyond \
          %.0f%% relative (abs floor %g)"
         (tolerance *. 100.0) abs_floor);
  [ table ]

let print () = List.iter Metrics.Table.print (tables ())
