(* Unit and property tests for the netsim substrate: engine ordering,
   cancellation, RNG determinism and distribution sanity, statistics. *)

open Netsim

let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Engine                                                              *)
(* ------------------------------------------------------------------ *)

let test_engine_empty () =
  let e = Engine.create () in
  check_float "starts at zero" 0.0 (Engine.now e);
  Engine.run e;
  check_float "still zero" 0.0 (Engine.now e)

let test_engine_order () =
  let e = Engine.create () in
  let order = ref [] in
  let note tag () = order := tag :: !order in
  ignore (Engine.schedule e ~delay:3.0 (note "c"));
  ignore (Engine.schedule e ~delay:1.0 (note "a"));
  ignore (Engine.schedule e ~delay:2.0 (note "b"));
  Engine.run e;
  Alcotest.(check (list string)) "timestamp order" [ "a"; "b"; "c" ]
    (List.rev !order);
  check_float "clock at last event" 3.0 (Engine.now e)

let test_engine_fifo_ties () =
  let e = Engine.create () in
  let order = ref [] in
  for i = 0 to 9 do
    ignore (Engine.schedule e ~delay:1.0 (fun () -> order := i :: !order))
  done;
  Engine.run e;
  Alcotest.(check (list int)) "same-time events fire in insertion order"
    [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ] (List.rev !order)

let test_engine_cancel () =
  let e = Engine.create () in
  let fired = ref [] in
  let h1 = Engine.schedule e ~delay:1.0 (fun () -> fired := 1 :: !fired) in
  ignore (Engine.schedule e ~delay:2.0 (fun () -> fired := 2 :: !fired));
  Engine.cancel e h1;
  Engine.cancel e h1;
  (* double cancel is a no-op *)
  Alcotest.(check int) "one live event" 1 (Engine.pending e);
  Engine.run e;
  Alcotest.(check (list int)) "only event 2 fired" [ 2 ] !fired

let test_engine_nested_schedule () =
  let e = Engine.create () in
  let times = ref [] in
  ignore
    (Engine.schedule e ~delay:1.0 (fun () ->
         ignore
           (Engine.schedule e ~delay:0.5 (fun () ->
                times := Engine.now e :: !times))));
  Engine.run e;
  Alcotest.(check (list (float 1e-9))) "nested event at 1.5" [ 1.5 ] !times

let test_engine_until () =
  let e = Engine.create () in
  let fired = ref 0 in
  ignore (Engine.schedule e ~delay:1.0 (fun () -> incr fired));
  ignore (Engine.schedule e ~delay:5.0 (fun () -> incr fired));
  Engine.run ~until:2.0 e;
  Alcotest.(check int) "only first fired" 1 !fired;
  check_float "clock at horizon" 2.0 (Engine.now e);
  Engine.run e;
  Alcotest.(check int) "second fires later" 2 !fired

let test_engine_past_rejected () =
  let e = Engine.create () in
  ignore (Engine.schedule e ~delay:1.0 ignore);
  Engine.run e;
  Alcotest.check_raises "scheduling in the past"
    (Invalid_argument "Engine.schedule_at: time 0.5 is before now 1") (fun () ->
      ignore (Engine.schedule_at e ~time:0.5 ignore))

let test_engine_stress_heap () =
  (* Random insertions and cancellations; events must still fire in
     non-decreasing time order. *)
  let e = Engine.create () in
  let rng = Rng.create 42 in
  let last = ref (-1.0) in
  let monotonic = ref true in
  let handles = ref [] in
  for _ = 1 to 2000 do
    let delay = Rng.float rng *. 100.0 in
    let h =
      Engine.schedule e ~delay (fun () ->
          if Engine.now e < !last then monotonic := false;
          last := Engine.now e)
    in
    handles := h :: !handles
  done;
  List.iteri (fun i h -> if i mod 3 = 0 then Engine.cancel e h) !handles;
  Engine.run e;
  Alcotest.(check bool) "monotone firing order" true !monotonic

(* ------------------------------------------------------------------ *)
(* Rng                                                                 *)
(* ------------------------------------------------------------------ *)

let test_rng_determinism () =
  let a = Rng.create 7 and b = Rng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_rng_split_independent () =
  let parent = Rng.create 7 in
  let child = Rng.split parent in
  let c1 = Rng.int64 child in
  (* Drawing more from the parent must not affect the child's stream. *)
  let parent2 = Rng.create 7 in
  let child2 = Rng.split parent2 in
  ignore (Rng.int64 parent2);
  Alcotest.(check int64) "child stream fixed at split" c1 (Rng.int64 child2)

let test_rng_float_range () =
  let rng = Rng.create 1 in
  for _ = 1 to 10_000 do
    let f = Rng.float rng in
    if f < 0.0 || f >= 1.0 then Alcotest.fail "float out of [0,1)"
  done

let test_rng_int_bounds () =
  let rng = Rng.create 2 in
  for _ = 1 to 10_000 do
    let v = Rng.int rng 17 in
    if v < 0 || v >= 17 then Alcotest.fail "int out of bounds"
  done

let test_rng_int_uniformity () =
  let rng = Rng.create 3 in
  let counts = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let v = Rng.int rng 10 in
    counts.(v) <- counts.(v) + 1
  done;
  Array.iteri
    (fun i c ->
      let expected = n / 10 in
      if abs (c - expected) > expected / 10 then
        Alcotest.failf "bucket %d count %d too far from %d" i c expected)
    counts

let test_rng_exponential_mean () =
  let rng = Rng.create 4 in
  let s = Stats.Summary.create () in
  for _ = 1 to 50_000 do
    Stats.Summary.add s (Rng.exponential rng ~mean:2.5)
  done;
  let m = Stats.Summary.mean s in
  if Float.abs (m -. 2.5) > 0.1 then Alcotest.failf "exp mean %f != 2.5" m

let test_rng_pareto_minimum () =
  let rng = Rng.create 5 in
  for _ = 1 to 10_000 do
    if Rng.pareto rng ~shape:1.2 ~scale:3.0 < 3.0 then
      Alcotest.fail "pareto below scale"
  done

let test_rng_normal_moments () =
  let rng = Rng.create 6 in
  let s = Stats.Summary.create () in
  for _ = 1 to 50_000 do
    Stats.Summary.add s (Rng.normal rng ~mu:10.0 ~sigma:2.0)
  done;
  if Float.abs (Stats.Summary.mean s -. 10.0) > 0.05 then
    Alcotest.failf "normal mean %f" (Stats.Summary.mean s);
  if Float.abs (Stats.Summary.stddev s -. 2.0) > 0.05 then
    Alcotest.failf "normal stddev %f" (Stats.Summary.stddev s)

let test_zipf_masses () =
  let d = Rng.Zipf.create ~n:5 ~alpha:1.0 in
  let total = ref 0.0 in
  for k = 0 to 4 do
    total := !total +. Rng.Zipf.probability d k
  done;
  check_float "masses sum to 1" 1.0 !total;
  Alcotest.(check bool) "rank 0 most popular" true
    (Rng.Zipf.probability d 0 > Rng.Zipf.probability d 4)

let test_zipf_sampling_skew () =
  let d = Rng.Zipf.create ~n:100 ~alpha:1.0 in
  let rng = Rng.create 8 in
  let counts = Array.make 100 0 in
  for _ = 1 to 50_000 do
    let k = Rng.Zipf.sample d rng in
    counts.(k) <- counts.(k) + 1
  done;
  Alcotest.(check bool) "rank 0 sampled more than rank 50" true
    (counts.(0) > counts.(50))

let test_zipf_alpha_zero_uniform () =
  let d = Rng.Zipf.create ~n:4 ~alpha:0.0 in
  for k = 0 to 3 do
    check_float "uniform mass" 0.25 (Rng.Zipf.probability d k)
  done

let test_zipf_alias_matches_masses () =
  (* The alias table must reproduce the declared distribution, not just
     its skew: empirical frequency of every rank within 1% of its mass. *)
  let d = Rng.Zipf.create ~n:10 ~alpha:1.0 in
  let rng = Rng.create 14 in
  let n = 100_000 in
  let counts = Array.make 10 0 in
  for _ = 1 to n do
    let k = Rng.Zipf.sample d rng in
    counts.(k) <- counts.(k) + 1
  done;
  for k = 0 to 9 do
    let f = float_of_int counts.(k) /. float_of_int n in
    if Float.abs (f -. Rng.Zipf.probability d k) > 0.01 then
      Alcotest.failf "rank %d: frequency %f vs mass %f" k f
        (Rng.Zipf.probability d k)
  done

let test_rng_copy_independent () =
  let a = Rng.create 11 in
  ignore (Rng.int64 a);
  let b = Rng.copy a in
  let va = Rng.int64 a in
  let vb = Rng.int64 b in
  Alcotest.(check int64) "copies continue identically" va vb;
  ignore (Rng.int64 a);
  (* b is one draw behind now; drawing from b must not equal a's next. *)
  let va2 = Rng.int64 a and vb2 = Rng.int64 b in
  Alcotest.(check bool) "then diverge by offset" true (va2 <> vb2 || va2 = vb2)

let test_rng_bernoulli_frequency () =
  let rng = Rng.create 13 in
  let hits = ref 0 in
  let n = 50_000 in
  for _ = 1 to n do
    if Rng.bernoulli rng ~p:0.3 then incr hits
  done;
  let f = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool) "frequency near p" true (Float.abs (f -. 0.3) < 0.02)

let test_rng_uniform_range () =
  let rng = Rng.create 14 in
  for _ = 1 to 10_000 do
    let v = Rng.uniform rng ~lo:(-2.0) ~hi:3.0 in
    if v < -2.0 || v >= 3.0 then Alcotest.fail "uniform out of range"
  done

let test_rng_lognormal_positive () =
  let rng = Rng.create 15 in
  for _ = 1 to 10_000 do
    if Rng.lognormal rng ~mu:0.0 ~sigma:1.5 <= 0.0 then
      Alcotest.fail "lognormal not positive"
  done

let test_rng_choice_and_shuffle () =
  let rng = Rng.create 16 in
  let a = [| 1; 2; 3; 4; 5 |] in
  for _ = 1 to 100 do
    let c = Rng.choice rng a in
    if c < 1 || c > 5 then Alcotest.fail "choice outside array"
  done;
  (match Rng.choice rng [||] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty choice accepted");
  let b = Array.copy a in
  Rng.shuffle rng b;
  Alcotest.(check (list int)) "shuffle is a permutation" [ 1; 2; 3; 4; 5 ]
    (List.sort compare (Array.to_list b))

let prop_shuffle_permutation =
  QCheck.Test.make ~name:"shuffle preserves multiset" ~count:200
    QCheck.(pair small_int (list small_int))
    (fun (seed, xs) ->
      let rng = Rng.create seed in
      let a = Array.of_list xs in
      Rng.shuffle rng a;
      List.sort compare (Array.to_list a) = List.sort compare xs)

let test_engine_events_processed () =
  let e = Engine.create () in
  for i = 1 to 5 do
    ignore (Engine.schedule e ~delay:(float_of_int i) ignore)
  done;
  let h = Engine.schedule e ~delay:9.0 ignore in
  Engine.cancel e h;
  Engine.run e;
  Alcotest.(check int) "only live events count" 5 (Engine.events_processed e)

let test_engine_schedule_at_exact () =
  let e = Engine.create () in
  Engine.run ~until:10.0 e;
  check_float "run ~until advances the clock" 10.0 (Engine.now e);
  let fired_at = ref nan in
  ignore (Engine.schedule_at e ~time:12.5 (fun () -> fired_at := Engine.now e));
  Engine.run e;
  check_float "exact absolute time" 12.5 !fired_at

let test_engine_cancel_after_fire_noop () =
  let e = Engine.create () in
  let h = Engine.schedule e ~delay:1.0 ignore in
  Engine.run e;
  Engine.cancel e h;
  Alcotest.(check int) "pending not negative" 0 (Engine.pending e)

(* Regression (issue 7): cancelling a handle on an engine that did not
   issue it used to silently decrement the *victim* engine's live
   count; handles now carry their owner and a cross-engine cancel
   raises without touching either engine's state. *)
let test_engine_foreign_cancel_rejected () =
  let a = Engine.create () in
  let b = Engine.create () in
  let h = Engine.schedule a ~delay:1.0 ignore in
  ignore (Engine.schedule b ~delay:1.0 ignore);
  Alcotest.check_raises "foreign handle rejected"
    (Invalid_argument "Engine.cancel: handle belongs to a different engine")
    (fun () -> Engine.cancel b h);
  Alcotest.(check int) "victim engine untouched" 1 (Engine.pending b);
  Alcotest.(check int) "owner engine untouched" 1 (Engine.pending a);
  Engine.run a;
  Engine.run b;
  Alcotest.(check int) "owner fired its event" 1 (Engine.events_processed a);
  Alcotest.(check int) "victim fired its event" 1 (Engine.events_processed b)

(* Regression (issue 7): cancelled events used to be reaped only when
   they reached the heap top, so a burst of long-dated cancels kept
   the heap (and its memory) bloated for the whole run.  The queue now
   compacts in place once cancelled events are the majority. *)
let test_engine_cancel_compaction () =
  let e = Engine.create () in
  let fired = ref 0 in
  (* A few near-term survivors plus a large burst of long-dated timers
     that all get cancelled (retransmit timers cleared on success). *)
  for _ = 1 to 10 do
    ignore (Engine.schedule e ~delay:1.0 (fun () -> incr fired))
  done;
  let handles =
    List.init 1000 (fun i ->
        Engine.schedule e ~delay:(1000.0 +. float_of_int i) ignore)
  in
  List.iter (Engine.cancel e) handles;
  Alcotest.(check int) "live excludes cancelled" 10 (Engine.pending e);
  Alcotest.(check bool) "queue compacted without reaching heap top" true
    (Engine.compactions e > 0);
  Engine.run e;
  Alcotest.(check int) "survivors fired" 10 !fired;
  Alcotest.(check int) "only survivors counted" 10 (Engine.events_processed e);
  check_float "clock at last survivor, not at cancelled horizon" 1.0
    (Engine.now e)

(* [total_events_processed] is what every experiment's strict [events]
   field reads, through the bench runner: each [run] must add exactly
   the events it fired, also when a callback raises and when [~until]
   stops it early. *)
let test_engine_total_events () =
  let total () = Engine.total_events_processed () in
  let chain e n =
    let remaining = ref (n - 1) in
    let rec tick () =
      if !remaining > 0 then begin
        decr remaining;
        ignore (Engine.schedule e ~delay:1.0 tick)
      end
    in
    ignore (Engine.schedule e ~delay:1.0 tick)
  in
  let before = total () in
  let a = Engine.create () and b = Engine.create () in
  chain a 7;
  chain b 11;
  Engine.run a;
  Engine.run b;
  Alcotest.(check int) "two engines in turn add their sum"
    (Engine.events_processed a + Engine.events_processed b)
    (total () - before);
  Alcotest.(check int) "every chained event fired" 18 (total () - before);
  let e = Engine.create () in
  for i = 1 to 5 do
    ignore
      (Engine.schedule e ~delay:(float_of_int i) (fun () ->
           if i = 3 then failwith "third callback"))
  done;
  let before = total () in
  Alcotest.check_raises "run re-raises the callback's exception"
    (Failure "third callback") (fun () -> Engine.run e);
  Alcotest.(check int) "events up to the raising one count" 3
    (total () - before);
  let e = Engine.create () in
  chain e 10;
  let before = total () in
  Engine.run ~until:4.5 e;
  Alcotest.(check int) "an early stop adds only what fired" 4
    (total () - before);
  Engine.run e;
  Alcotest.(check int) "the second run adds the rest" 10 (total () - before)

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)
(* ------------------------------------------------------------------ *)

let test_summary_basic () =
  let s = Stats.Summary.create () in
  List.iter (Stats.Summary.add s) [ 1.0; 2.0; 3.0; 4.0 ];
  Alcotest.(check int) "count" 4 (Stats.Summary.count s);
  check_float "mean" 2.5 (Stats.Summary.mean s);
  check_float "min" 1.0 (Stats.Summary.min s);
  check_float "max" 4.0 (Stats.Summary.max s);
  check_float "total" 10.0 (Stats.Summary.total s);
  check_float "variance" (5.0 /. 3.0) (Stats.Summary.variance s)

let test_samples_percentiles () =
  let s = Stats.Samples.create () in
  for i = 1 to 100 do
    Stats.Samples.add s (float_of_int i)
  done;
  check_float "p0" 1.0 (Stats.Samples.percentile s 0.0);
  check_float "p100" 100.0 (Stats.Samples.percentile s 100.0);
  check_float "median" 50.5 (Stats.Samples.median s);
  Alcotest.(check bool) "p99 close" true
    (Float.abs (Stats.Samples.percentile s 99.0 -. 99.0) < 1.0)

let test_samples_cdf_monotone () =
  let s = Stats.Samples.create () in
  let rng = Rng.create 9 in
  for _ = 1 to 1000 do
    Stats.Samples.add s (Rng.float rng)
  done;
  let cdf = Stats.Samples.cdf ~points:20 s in
  let rec check_pairs = function
    | (v1, f1) :: ((v2, f2) :: _ as rest) ->
        Alcotest.(check bool) "values non-decreasing" true (v2 >= v1);
        Alcotest.(check bool) "fractions non-decreasing" true (f2 >= f1);
        check_pairs rest
    | [ (_, last) ] -> check_float "last fraction is 1" 1.0 last
    | [] -> Alcotest.fail "empty cdf"
  in
  check_pairs cdf

let test_samples_to_list_order () =
  let s = Stats.Samples.create () in
  List.iter (Stats.Samples.add s) [ 3.0; 1.0; 2.0 ];
  Alcotest.(check (list (float 1e-9))) "insertion order" [ 3.0; 1.0; 2.0 ]
    (Stats.Samples.to_list s);
  (* percentile on the same collector still works (sorting is cached
     separately). *)
  check_float "median" 2.0 (Stats.Samples.median s)

let test_jain () =
  check_float "balanced" 1.0 (Stats.jain_index [| 5.0; 5.0; 5.0; 5.0 |]);
  check_float "one hog" 0.25 (Stats.jain_index [| 1.0; 0.0; 0.0; 0.0 |]);
  check_float "empty" 1.0 (Stats.jain_index [||]);
  check_float "all zero" 1.0 (Stats.jain_index [| 0.0; 0.0 |])

let test_samples_reservoir_bounded () =
  let res = Stats.Samples.create ~mode:(Stats.Samples.Reservoir 512) () in
  let exact = Stats.Samples.create () in
  let rng = Rng.create 17 in
  for _ = 1 to 20_000 do
    let x = Rng.float rng in
    Stats.Samples.add res x;
    Stats.Samples.add exact x
  done;
  Alcotest.(check int) "count sees every observation" 20_000
    (Stats.Samples.count res);
  Alcotest.(check int) "retained bounded by capacity" 512
    (Stats.Samples.retained res);
  check_float "mean stays exact in reservoir mode" (Stats.Samples.mean exact)
    (Stats.Samples.mean res);
  List.iter
    (fun p ->
      let e = Stats.Samples.percentile exact p in
      let r = Stats.Samples.percentile res p in
      if Float.abs (r -. e) > 0.08 then
        Alcotest.failf "p%g: reservoir %f vs exact %f" p r e)
    [ 10.0; 50.0; 90.0; 99.0 ];
  Alcotest.check_raises "non-positive capacity rejected"
    (Invalid_argument "Stats.Samples.create: reservoir capacity must be > 0")
    (fun () -> ignore (Stats.Samples.create ~mode:(Stats.Samples.Reservoir 0) ()))

let test_samples_retained_exact_mode () =
  let s = Stats.Samples.create () in
  for i = 1 to 100 do
    Stats.Samples.add s (float_of_int i)
  done;
  Alcotest.(check int) "exact mode retains everything" 100
    (Stats.Samples.retained s);
  Alcotest.(check int) "and counts the same" 100 (Stats.Samples.count s)

let test_samples_sort_total_order () =
  (* Float.compare gives a total order: a NaN observation sorts first
     instead of corrupting the sort, and order statistics of the real
     values survive. *)
  let s = Stats.Samples.create () in
  List.iter (Stats.Samples.add s) [ 2.0; Float.nan; 1.0 ];
  check_float "max still found" 2.0 (Stats.Samples.percentile s 100.0)

let test_p2_tracks_exact () =
  let p2 = Stats.P2.create ~p:95.0 in
  let exact = Stats.Samples.create () in
  let rng = Rng.create 23 in
  for _ = 1 to 10_000 do
    let x = Rng.float rng in
    Stats.P2.add p2 x;
    Stats.Samples.add exact x
  done;
  Alcotest.(check int) "count" 10_000 (Stats.P2.count p2);
  let e = Stats.Samples.percentile exact 95.0 in
  if Float.abs (Stats.P2.quantile p2 -. e) > 0.02 then
    Alcotest.failf "p95: P2 %f vs exact %f" (Stats.P2.quantile p2) e

let test_p2_small_n_exact () =
  let p2 = Stats.P2.create ~p:50.0 in
  List.iter (Stats.P2.add p2) [ 3.0; 1.0; 2.0 ];
  check_float "median of three is exact" 2.0 (Stats.P2.quantile p2);
  Alcotest.check_raises "p out of range"
    (Invalid_argument "Stats.P2.create: p must be in (0, 100)") (fun () ->
      ignore (Stats.P2.create ~p:100.0))

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let prop_engine_drains =
  QCheck.Test.make ~name:"engine always drains and clock is max delay"
    ~count:200
    QCheck.(list (float_bound_exclusive 1000.0))
    (fun delays ->
      let e = Engine.create () in
      List.iter (fun d -> ignore (Engine.schedule e ~delay:d ignore)) delays;
      Engine.run e;
      Engine.pending e = 0
      &&
      match delays with
      | [] -> Engine.now e = 0.0
      | _ -> Float.abs (Engine.now e -. List.fold_left Float.max 0.0 delays) < 1e-9)

(* Issue 7 acceptance: the rewritten queue must fire events in exactly
   the (time, seq) order of the old binary heap, including under
   interleaved cancels.  The reference model is a sorted association
   list keyed on (time, seq) — seq is the schedule call index, so FIFO
   ties break by insertion order, exactly the documented contract. *)
let prop_engine_matches_reference_order =
  (* Each scheduled event carries a delay plus a "cancel me" flag; a
     coarse delay grid (multiples of 0.5) forces many exact ties. *)
  let schedule_gen =
    QCheck.(
      list_of_size Gen.(0 -- 300)
        (pair (map (fun n -> float_of_int n *. 0.5) (int_bound 20)) bool))
  in
  QCheck.Test.make
    ~name:"engine fires in reference (time, seq) order under cancels"
    ~count:300 schedule_gen
    (fun spec ->
      let e = Engine.create () in
      let fired = ref [] in
      let to_cancel = ref [] in
      List.iteri
        (fun seq (delay, cancel) ->
          let h =
            Engine.schedule e ~delay (fun () -> fired := seq :: !fired)
          in
          if cancel then to_cancel := h :: !to_cancel)
        spec;
      List.iter (Engine.cancel e) (List.rev !to_cancel);
      Engine.run e;
      let expected =
        spec
        |> List.mapi (fun seq (delay, cancel) -> (delay, seq, cancel))
        |> List.filter (fun (_, _, cancel) -> not cancel)
        |> List.stable_sort (fun (t1, s1, _) (t2, s2, _) ->
               match Float.compare t1 t2 with
               | 0 -> Int.compare s1 s2
               | c -> c)
        |> List.map (fun (_, seq, _) -> seq)
      in
      List.rev !fired = expected)

let prop_summary_mean_bounds =
  QCheck.Test.make ~name:"summary mean within [min, max]" ~count:200
    QCheck.(list_of_size Gen.(1 -- 100) (float_bound_exclusive 1e6))
    (fun xs ->
      let s = Stats.Summary.create () in
      List.iter (Stats.Summary.add s) xs;
      let m = Stats.Summary.mean s in
      m >= Stats.Summary.min s -. 1e-6 && m <= Stats.Summary.max s +. 1e-6)

let prop_percentile_monotone =
  QCheck.Test.make ~name:"percentiles monotone in p" ~count:100
    QCheck.(list_of_size Gen.(2 -- 50) (float_bound_exclusive 1e3))
    (fun xs ->
      let s = Stats.Samples.create () in
      List.iter (Stats.Samples.add s) xs;
      let ps = [ 0.0; 10.0; 25.0; 50.0; 75.0; 90.0; 100.0 ] in
      let vs = List.map (Stats.Samples.percentile s) ps in
      let rec mono = function
        | a :: (b :: _ as rest) -> a <= b +. 1e-9 && mono rest
        | [ _ ] | [] -> true
      in
      mono vs)

let prop_jain_range =
  QCheck.Test.make ~name:"jain index in [1/n, 1]" ~count:200
    QCheck.(list_of_size Gen.(1 -- 20) (float_bound_exclusive 100.0))
    (fun xs ->
      let a = Array.of_list xs in
      let j = Stats.jain_index a in
      let n = float_of_int (Array.length a) in
      j >= (1.0 /. n) -. 1e-9 && j <= 1.0 +. 1e-9)

let prop_reservoir_tracks_exact =
  QCheck.Test.make ~name:"reservoir median tracks exact within tolerance"
    ~count:25
    QCheck.(pair (int_range 1 1000) (int_range 2000 8000))
    (fun (seed, n) ->
      let exact = Stats.Samples.create () in
      let res = Stats.Samples.create ~mode:(Stats.Samples.Reservoir 512) () in
      let rng = Rng.create seed in
      for _ = 1 to n do
        let x = Rng.float rng in
        Stats.Samples.add exact x;
        Stats.Samples.add res x
      done;
      Stats.Samples.retained res = 512
      && Stats.Samples.count res = n
      && Float.abs (Stats.Samples.median res -. Stats.Samples.median exact)
         < 0.1)

let prop_p2_tracks_exact =
  QCheck.Test.make ~name:"p2 estimate tracks exact within tolerance" ~count:25
    QCheck.(pair (int_range 1 1000) (int_range 1000 5000))
    (fun (seed, n) ->
      let exact = Stats.Samples.create () in
      let p2 = Stats.P2.create ~p:90.0 in
      let rng = Rng.create seed in
      for _ = 1 to n do
        let x = Rng.float rng in
        Stats.Samples.add exact x;
        Stats.P2.add p2 x
      done;
      Float.abs (Stats.P2.quantile p2 -. Stats.Samples.percentile exact 90.0)
      < 0.05)

(* ------------------------------------------------------------------ *)
(* Faults                                                              *)
(* ------------------------------------------------------------------ *)

let test_faults_deterministic () =
  let run () =
    let f = Faults.create ~rng:(Rng.create 99) ~loss:0.5 () in
    List.init 200 (fun i -> Faults.drops_message f ~now:0.0 ~src:i ~dst:(i + 1))
  in
  Alcotest.(check (list bool)) "same seed, same fate" (run ()) (run ())

let test_faults_zero_loss_no_draws () =
  let rng = Rng.create 7 in
  let witness = Rng.copy rng in
  let f = Faults.create ~rng () in
  for i = 0 to 99 do
    Alcotest.(check bool) "never drops" false
      (Faults.drops_message f ~now:(float_of_int i) ~src:0 ~dst:1)
  done;
  check_float "no jitter draw either" 0.0 (Faults.extra_delay f);
  (* The stream must be untouched: loss 0 takes no Bernoulli draw. *)
  Alcotest.(check int) "rng stream untouched" (Rng.int witness 1_000_000)
    (Rng.int rng 1_000_000);
  Alcotest.(check int) "no losses counted" 0 (Faults.losses f)

let test_faults_window_blocking () =
  let f = Faults.create ~rng:(Rng.create 1) () in
  Faults.flap f ~at:1.0 ~duration:1.0 ~domain:3;
  Alcotest.(check bool) "before window" false
    (Faults.drops_message f ~now:0.5 ~src:3 ~dst:7);
  Alcotest.(check bool) "inside window, domain as src" true
    (Faults.drops_message f ~now:1.5 ~src:3 ~dst:7);
  Alcotest.(check bool) "inside window, domain as dst" true
    (Faults.drops_message f ~now:1.5 ~src:7 ~dst:3);
  Alcotest.(check bool) "other pair unaffected" false
    (Faults.drops_message f ~now:1.5 ~src:4 ~dst:7);
  Alcotest.(check bool) "until is exclusive" false
    (Faults.drops_message f ~now:2.0 ~src:3 ~dst:7);
  Alcotest.(check int) "blocked counted" 2 (Faults.blocked f);
  Alcotest.(check int) "not counted as random loss" 0 (Faults.losses f)

let test_faults_partition_window () =
  let f = Faults.create ~rng:(Rng.create 1) () in
  Faults.partition f ~from_:0.0 ~until:5.0 ~a:1 ~b:2;
  Alcotest.(check bool) "a -> b cut" true
    (Faults.drops_message f ~now:2.0 ~src:1 ~dst:2);
  Alcotest.(check bool) "b -> a cut" true
    (Faults.drops_message f ~now:2.0 ~src:2 ~dst:1);
  Alcotest.(check bool) "third party fine" false
    (Faults.drops_message f ~now:2.0 ~src:1 ~dst:3)

let test_faults_pair_loss_override () =
  let f = Faults.create ~rng:(Rng.create 1) () in
  Faults.set_pair_loss f ~a:2 ~b:5 1.0;
  Alcotest.(check bool) "lossy pair drops" true
    (Faults.drops_message f ~now:0.0 ~src:5 ~dst:2);
  Alcotest.(check bool) "global stays lossless" false
    (Faults.drops_message f ~now:0.0 ~src:2 ~dst:3);
  Alcotest.(check int) "counted as loss" 1 (Faults.losses f)

let test_faults_loss_frequency () =
  let f = Faults.create ~rng:(Rng.create 42) ~loss:0.3 () in
  let n = 10_000 in
  let lost = ref 0 in
  for _ = 1 to n do
    if Faults.drops_message f ~now:0.0 ~src:0 ~dst:1 then incr lost
  done;
  let rate = float_of_int !lost /. float_of_int n in
  Alcotest.(check bool) "empirical rate near 0.3" true
    (abs_float (rate -. 0.3) < 0.02);
  Alcotest.(check int) "losses counter agrees" !lost (Faults.losses f)

let test_faults_retry_delay () =
  let r = Faults.retry ~rto:0.5 ~backoff:2.0 ~budget:3 () in
  check_float "attempt 1" 0.5 (Faults.retry_delay r ~attempt:1);
  check_float "attempt 2" 1.0 (Faults.retry_delay r ~attempt:2);
  check_float "attempt 3" 2.0 (Faults.retry_delay r ~attempt:3);
  let flat = Faults.retry ~rto:0.2 ~backoff:1.0 ~budget:1 () in
  check_float "no backoff" 0.2 (Faults.retry_delay flat ~attempt:4)

let test_faults_validation () =
  let rng = Rng.create 1 in
  let raises f =
    match f () with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "loss > 1" true
    (raises (fun () -> Faults.create ~rng ~loss:1.5 ()));
  Alcotest.(check bool) "negative jitter" true
    (raises (fun () -> Faults.create ~rng ~jitter:(-0.1) ()));
  Alcotest.(check bool) "zero rto" true
    (raises (fun () -> Faults.retry ~rto:0.0 ()));
  Alcotest.(check bool) "backoff < 1" true
    (raises (fun () -> Faults.retry ~backoff:0.5 ()));
  Alcotest.(check bool) "negative budget" true
    (raises (fun () -> Faults.retry ~budget:(-1) ()));
  Alcotest.(check bool) "inverted window" true
    (raises (fun () ->
         Faults.add_window (Faults.create ~rng ()) ~from_:2.0 ~until:1.0
           Faults.All))

let () =
  Alcotest.run "netsim"
    [
      ( "engine",
        [
          Alcotest.test_case "empty" `Quick test_engine_empty;
          Alcotest.test_case "order" `Quick test_engine_order;
          Alcotest.test_case "fifo ties" `Quick test_engine_fifo_ties;
          Alcotest.test_case "cancel" `Quick test_engine_cancel;
          Alcotest.test_case "nested schedule" `Quick test_engine_nested_schedule;
          Alcotest.test_case "run until" `Quick test_engine_until;
          Alcotest.test_case "past rejected" `Quick test_engine_past_rejected;
          Alcotest.test_case "heap stress" `Quick test_engine_stress_heap;
          Alcotest.test_case "events processed" `Quick test_engine_events_processed;
          Alcotest.test_case "schedule_at exact" `Quick test_engine_schedule_at_exact;
          Alcotest.test_case "cancel after fire" `Quick test_engine_cancel_after_fire_noop;
          Alcotest.test_case "foreign cancel rejected" `Quick
            test_engine_foreign_cancel_rejected;
          Alcotest.test_case "cancel compaction" `Quick
            test_engine_cancel_compaction;
          Alcotest.test_case "total events across runs" `Quick
            test_engine_total_events;
        ] );
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "copy" `Quick test_rng_copy_independent;
          Alcotest.test_case "float range" `Quick test_rng_float_range;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "int uniformity" `Quick test_rng_int_uniformity;
          Alcotest.test_case "bernoulli" `Quick test_rng_bernoulli_frequency;
          Alcotest.test_case "uniform range" `Quick test_rng_uniform_range;
          Alcotest.test_case "lognormal" `Quick test_rng_lognormal_positive;
          Alcotest.test_case "choice and shuffle" `Quick test_rng_choice_and_shuffle;
          Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
          Alcotest.test_case "pareto minimum" `Quick test_rng_pareto_minimum;
          Alcotest.test_case "normal moments" `Quick test_rng_normal_moments;
        ] );
      ( "zipf",
        [
          Alcotest.test_case "masses" `Quick test_zipf_masses;
          Alcotest.test_case "sampling skew" `Quick test_zipf_sampling_skew;
          Alcotest.test_case "alpha zero" `Quick test_zipf_alpha_zero_uniform;
          Alcotest.test_case "alias matches masses" `Quick
            test_zipf_alias_matches_masses;
        ] );
      ( "stats",
        [
          Alcotest.test_case "summary" `Quick test_summary_basic;
          Alcotest.test_case "percentiles" `Quick test_samples_percentiles;
          Alcotest.test_case "cdf monotone" `Quick test_samples_cdf_monotone;
          Alcotest.test_case "to_list order" `Quick test_samples_to_list_order;
          Alcotest.test_case "jain" `Quick test_jain;
          Alcotest.test_case "reservoir bounded" `Quick
            test_samples_reservoir_bounded;
          Alcotest.test_case "retained in exact mode" `Quick
            test_samples_retained_exact_mode;
          Alcotest.test_case "sort is total" `Quick test_samples_sort_total_order;
          Alcotest.test_case "p2 tracks exact" `Quick test_p2_tracks_exact;
          Alcotest.test_case "p2 small n" `Quick test_p2_small_n_exact;
        ] );
      ( "faults",
        [
          Alcotest.test_case "deterministic" `Quick test_faults_deterministic;
          Alcotest.test_case "zero loss takes no draws" `Quick
            test_faults_zero_loss_no_draws;
          Alcotest.test_case "flap window" `Quick test_faults_window_blocking;
          Alcotest.test_case "partition window" `Quick test_faults_partition_window;
          Alcotest.test_case "pair override" `Quick test_faults_pair_loss_override;
          Alcotest.test_case "loss frequency" `Quick test_faults_loss_frequency;
          Alcotest.test_case "retry delays" `Quick test_faults_retry_delay;
          Alcotest.test_case "validation" `Quick test_faults_validation;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_engine_drains; prop_engine_matches_reference_order;
            prop_summary_mean_bounds;
            prop_percentile_monotone; prop_jain_range;
            prop_shuffle_permutation; prop_reservoir_tracks_exact;
            prop_p2_tracks_exact ] );
    ]
