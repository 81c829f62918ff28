(* `bench --check`: the perf ratchet.

   Compares a freshly written BENCH.json against the committed
   bench/BASELINE.json, with thresholds auto-derived from the baseline
   (threshold = baseline scaled by the tolerance band), and exits
   non-zero with a human-readable diff table when the comparison
   fails.  Two classes of field:

   - Strict fields are properties of the *simulation*, independent of
     host speed: experiment success, simulated event counts, every row
     block (the latency decomposition and the gated cell rows of
     {!Bench_row}), and self-profile sanity (coverage, share ranges).
     These always hard-fail — a drifted value means nondeterminism or
     a broken profiler, not a slow runner.

   - Perf fields (events/s, peak RSS) depend on the machine.  They
     fail outside the tolerance band; [--soft] downgrades them to
     warnings (GitHub annotation format) for shared CI runners while
     strict fields keep their teeth. *)

type failure_class = Strict | Perf

type finding = {
  f_exp : string;
  f_field : string;
  f_base : string;
  f_cur : string;
  f_threshold : string;
  f_class : failure_class;
  f_ok : bool;
  f_note : string;
}

(* Perf band: fail when throughput drops below 70% of baseline (or RSS
   grows past 130%).  Wide enough for same-machine run-to-run jitter;
   cross-machine noise is what [--soft] is for. *)
let default_tolerance = 0.3

(* Experiment events/s gets a wider band (1.5x the tolerance): it
   divides a deterministic event count by a small wall-clock, so on
   sub-second experiments scheduler noise alone moves it far more than
   the aggregate numbers the plain tolerance was sized for. *)
let events_per_sec_widening = 1.5

(* Absolute dispatch-throughput floors for the engine micro-bench
   (BENCH.json "engine" block): raw event dispatch must stay above
   2M events/s single-domain and 10M events/s Domain-sharded.  Perf
   class, so --soft downgrades a slow shared runner to a warning. *)
let engine_single_floor = 2e6
let engine_sharded_floor = 1e7

(* Row values are simulated quantities but travel through the JSON
   float printer (%.12g), so float equality is up to a relative
   epsilon. *)
let rel_eps = 1e-9

let approx_equal a b =
  let scale = Float.max (Float.abs a) (Float.abs b) in
  Float.abs (a -. b) <= rel_eps *. Float.max scale 1.0

let experiments_of doc =
  match Obs.Json.member "experiments" doc with
  | Some (Obs.Json.List l) ->
      List.filter_map
        (fun e ->
          match
            Option.bind (Obs.Json.member "id" e) Obs.Json.to_string_opt
          with
          | Some id -> Some (id, e)
          | None -> None)
        l
  | _ -> []

let fnum json name =
  Option.bind (Obs.Json.member name json) Obs.Json.to_float_opt

(* A row block is an experiment field whose value is a list of objects
   labelled by a "run" string: the latency decomposition and every
   {!Bench_row} block.  Blocks are found by this shape alone, so a new
   one is gated without a change here.  Rows come back as (label, other
   fields). *)
let rows_of = function
  | Obs.Json.List items ->
      let row = function
        | Obs.Json.Obj kvs -> (
            match List.assoc_opt "run" kvs with
            | Some (Obs.Json.String run) ->
                Some (run, List.remove_assoc "run" kvs)
            | _ -> None)
        | _ -> None
      in
      let rows = List.filter_map row items in
      if List.length rows = List.length items then Some rows else None
  | _ -> None

let blocks_of = function
  | Obs.Json.Obj fields ->
      List.filter_map
        (fun (k, v) -> Option.map (fun rows -> (k, rows)) (rows_of v))
        fields
  | _ -> []

(* Ints and strings match exactly, floats up to [rel_eps], lists
   element by element. *)
let rec same b c =
  match (b, c) with
  | Obs.Json.List bs, Obs.Json.List cs ->
      List.length bs = List.length cs && List.for_all2 same bs cs
  | Obs.Json.Float _, _ | _, Obs.Json.Float _ -> (
      match (Obs.Json.to_float_opt b, Obs.Json.to_float_opt c) with
      | Some x, Some y -> approx_equal x y
      | _ -> false)
  | _ -> b = c

(* The first row and field where the current rows stop reproducing the
   baseline's, label for label; fields only the current row has are
   ignored. *)
let rec first_diff brows crows =
  match (brows, crows) with
  | [], [] -> None
  | (blabel, _) :: _, [] -> Some (Printf.sprintf "row %S missing" blabel)
  | [], (clabel, _) :: _ -> Some (Printf.sprintf "extra row %S" clabel)
  | (blabel, bfields) :: brest, (clabel, cfields) :: crest -> (
      if blabel <> clabel then
        Some (Printf.sprintf "row %S became %S" blabel clabel)
      else
        let field_diff (k, bv) =
          match List.assoc_opt k cfields with
          | None -> Some (Printf.sprintf "%s: %s missing" blabel k)
          | Some cv when not (same bv cv) ->
              Some
                (Printf.sprintf "%s: %s %s -> %s" blabel k
                   (Obs.Json.to_string bv) (Obs.Json.to_string cv))
          | Some _ -> None
        in
        match List.find_map field_diff bfields with
        | None -> first_diff brest crest
        | diff -> diff)

let f3 v = Printf.sprintf "%.3g" v

(* ------------------------------------------------------------------ *)
(* Per-experiment comparisons                                          *)
(* ------------------------------------------------------------------ *)

(* Row blocks.  Every current row that carries "ok" is a strict gate,
   with or without a baseline entry: the flag is an acceptance bar, not
   a ratchet.  Every non-empty baseline block must be reproduced by the
   current one; a drift gives one finding per block, naming the first
   row and field that differ. *)
let check_blocks ~id ~base ~cur =
  let cur_blocks = blocks_of cur in
  let gate block (label, fields) =
    Option.map
      (fun v ->
        { f_exp = id; f_field = Printf.sprintf "%s[%s].ok" block label;
          f_base = "true"; f_cur = Obs.Json.to_string v;
          f_threshold = "= true"; f_class = Strict;
          f_ok = v = Obs.Json.Bool true;
          f_note = "gate stated by the experiment" })
      (List.assoc_opt "ok" fields)
  in
  let reproduced block brows =
    let rows l = Printf.sprintf "%d row(s)" (List.length l) in
    let cur_rows = List.assoc_opt block cur_blocks in
    let diff =
      match cur_rows with
      | None -> Some "block missing"
      | Some crows -> first_diff brows crows
    in
    { f_exp = id; f_field = block; f_base = rows brows;
      f_cur = Option.fold ~none:"missing" ~some:rows cur_rows;
      f_threshold = Printf.sprintf "identical (rel %.0e)" rel_eps;
      f_class = Strict; f_ok = diff = None;
      f_note = Option.value diff ~default:"simulated rows (deterministic)" }
  in
  List.concat_map
    (fun (block, rows) -> List.filter_map (gate block) rows)
    cur_blocks
  @ List.filter_map
      (fun (block, brows) ->
        if brows = [] then None else Some (reproduced block brows))
      (Option.fold ~none:[] ~some:blocks_of base)

(* One experiment of the current run; [base] is its baseline entry, if
   any.  Comparisons against the baseline need that entry; the success
   flag, row gates and profile sanity apply to every experiment. *)
let check_experiment ~tolerance ~id ~base ~cur =
  let findings = ref [] in
  let push f = findings := f :: !findings in
  let base_field conv name =
    Option.bind base (fun b -> Option.bind (Obs.Json.member name b) conv)
  and cur_field conv name = Option.bind (Obs.Json.member name cur) conv in
  (* Success flag: the experiment must still pass. *)
  let ok_cur =
    match cur_field Obs.Json.to_bool_opt "ok" with
    | Some b -> b
    | None -> false
  in
  push
    { f_exp = id; f_field = "ok";
      f_base = (if base = None then "(new)" else "true");
      f_cur = string_of_bool ok_cur; f_threshold = "= true";
      f_class = Strict; f_ok = ok_cur; f_note = "experiment success" };
  (* Simulated event count: exact determinism check. *)
  (match
     (base_field Obs.Json.to_int_opt "events",
      cur_field Obs.Json.to_int_opt "events")
   with
  | Some be, Some ce ->
      push
        { f_exp = id; f_field = "events"; f_base = string_of_int be;
          f_cur = string_of_int ce; f_threshold = "exact";
          f_class = Strict; f_ok = be = ce;
          f_note = "simulated event count (deterministic)" }
  | _ -> ());
  (* Self-profile sanity on the current run: phase accounting must
     cover >= 95% of wall time and shares must be well-formed. *)
  (match Obs.Json.member "prof" cur with
  | Some (Obs.Json.Obj _ as prof) -> (
      match Obs.Prof.report_of_json prof with
      | Error msg ->
          push
            { f_exp = id; f_field = "prof"; f_base = "-"; f_cur = "(bad)";
              f_threshold = "well-formed"; f_class = Strict; f_ok = false;
              f_note = msg }
      | Ok (_, _) ->
          let coverage =
            match fnum prof "coverage" with Some c -> c | None -> 0.0
          in
          push
            { f_exp = id; f_field = "prof.coverage"; f_base = "-";
              f_cur = f3 coverage; f_threshold = ">= 0.95";
              f_class = Strict; f_ok = coverage >= 0.95;
              f_note = "phase self-time coverage of wall time" };
          let shares_ok =
            match Obs.Json.member "phases" prof with
            | Some (Obs.Json.List phases) ->
                let sum = ref 0.0 and ok = ref true in
                List.iter
                  (fun p ->
                    match fnum p "share" with
                    | Some s ->
                        sum := !sum +. s;
                        if s < -.1e-9 || s > 1.0 +. 1e-9 then ok := false
                    | None -> ok := false)
                  phases;
                !ok && !sum <= 1.0 +. 1e-6
            | _ -> false
          in
          push
            { f_exp = id; f_field = "prof.shares"; f_base = "-";
              f_cur = (if shares_ok then "(sane)" else "(out of range)");
              f_threshold = "each in [0,1], sum <= 1"; f_class = Strict;
              f_ok = shares_ok; f_note = "per-phase share sanity" })
  | _ -> ());
  (* Throughput: floor derived from the baseline, on the widened
     band. *)
  (match
     (base_field Obs.Json.to_float_opt "events_per_sec",
      cur_field Obs.Json.to_float_opt "events_per_sec")
   with
  | Some bv, Some cv when bv > 0.0 ->
      let band = Float.min 0.95 (tolerance *. events_per_sec_widening) in
      let floor = bv *. (1.0 -. band) in
      push
        { f_exp = id; f_field = "events_per_sec"; f_base = f3 bv;
          f_cur = f3 cv; f_threshold = Printf.sprintf ">= %s" (f3 floor);
          f_class = Perf; f_ok = cv >= floor;
          f_note =
            Printf.sprintf "throughput (tolerance %.0f%%)" (band *. 100.0) }
  | _ -> ());
  (* Peak RSS: ceiling derived from the baseline. *)
  (match
     (base_field Obs.Json.to_int_opt "peak_rss_kb",
      cur_field Obs.Json.to_int_opt "peak_rss_kb")
   with
  | Some bv, Some cv when bv > 0 && cv > 0 ->
      let ceiling = float_of_int bv *. (1.0 +. tolerance) in
      push
        { f_exp = id; f_field = "peak_rss_kb"; f_base = string_of_int bv;
          f_cur = string_of_int cv;
          f_threshold = Printf.sprintf "<= %.0f" ceiling; f_class = Perf;
          f_ok = float_of_int cv <= ceiling;
          f_note =
            Printf.sprintf "memory high-water (tolerance %.0f%%)"
              (tolerance *. 100.0) }
  | _ -> ());
  List.rev !findings @ check_blocks ~id ~base ~cur

(* Engine dispatch floors: absolute thresholds on the current record's
   "engine" block (no baseline needed — the floor is the acceptance
   bar, not a ratchet).  Records without the block (pre-engine-block
   BENCH.json, or a run that skipped the micro measurement) produce no
   findings. *)
let check_engine cur =
  match Obs.Json.member "engine" cur with
  | Some (Obs.Json.Obj _ as eng) ->
      let floor_finding field floor note =
        match fnum eng field with
        | Some v ->
            [ { f_exp = "engine"; f_field = field; f_base = "-";
                f_cur = f3 v; f_threshold = Printf.sprintf ">= %s" (f3 floor);
                f_class = Perf; f_ok = v >= floor; f_note = note } ]
        | None ->
            [ { f_exp = "engine"; f_field = field; f_base = "-";
                f_cur = "missing"; f_threshold = "present"; f_class = Perf;
                f_ok = false; f_note = note ^ " (field missing)" } ]
      in
      floor_finding "single_events_per_sec" engine_single_floor
        "dispatch throughput floor, single domain"
      @ floor_finding "sharded_events_per_sec" engine_sharded_floor
          "dispatch throughput floor, Domain-sharded"
  | _ -> []

(* Every finding of [cur] against [base]: experiments missing from the
   current run, then each current experiment, then the engine floors. *)
let findings ~tolerance ~base ~cur =
  let base_exps = experiments_of base and cur_exps = experiments_of cur in
  List.filter_map
    (fun (id, _) ->
      if List.mem_assoc id cur_exps then None
      else
        Some
          { f_exp = id; f_field = "present"; f_base = "yes";
            f_cur = "missing"; f_threshold = "present"; f_class = Strict;
            f_ok = false; f_note = "experiment disappeared from the run" })
    base_exps
  @ List.concat_map
      (fun (id, cexp) ->
        check_experiment ~tolerance ~id ~base:(List.assoc_opt id base_exps)
          ~cur:cexp)
      cur_exps
  @ check_engine cur

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

let usage () =
  print_endline
    "usage: main.exe --check [--bench-json FILE] [--baseline FILE]";
  print_endline "                [--tolerance F] [--soft] [--update-baseline]";
  print_endline
    "  --bench-json FILE   current perf record (default BENCH.json)";
  print_endline
    "  --baseline FILE     committed reference (default bench/BASELINE.json)";
  print_endline
    "  --tolerance F       perf tolerance band as a fraction (default 0.3)";
  print_endline
    "  --soft              downgrade perf failures to warnings (shared";
  print_endline
    "                      runners); strict fields still hard-fail";
  print_endline
    "  --update-baseline   copy the current BENCH.json over the baseline"

(* A BENCH record and its text.  An unreadable file, a parse error or a
   missing lisp-pce-bench schema tag is a usage error, never a vacuous
   pass. *)
let load path =
  match Runner.read_file path with
  | exception Sys_error msg -> Error msg
  | text -> (
      match Obs.Json.of_string text with
      | Error msg -> Error msg
      | Ok doc -> (
          match
            Option.bind (Obs.Json.member "schema" doc) Obs.Json.to_string_opt
          with
          | Some s when String.starts_with ~prefix:"lisp-pce-bench" s ->
              Ok (text, doc)
          | Some s -> Error ("unexpected schema " ^ s)
          | None -> Error "no lisp-pce-bench schema tag"))

(* Print the diff table and the failures; the exit code. *)
let report ~soft ~title findings =
  let table =
    Metrics.Table.create ~title
      ~columns:[ "experiment"; "field"; "baseline"; "current"; "threshold";
                 "status" ]
  in
  let status f =
    if f.f_ok then "PASS"
    else
      match f.f_class with
      | Strict -> "FAIL"
      | Perf -> if soft then "WARN" else "FAIL"
  in
  List.iter
    (fun f ->
      Metrics.Table.add_row table
        [ f.f_exp; f.f_field; f.f_base; f.f_cur; f.f_threshold; status f ])
    findings;
  Metrics.Table.print table;
  let failed = List.filter (fun f -> not f.f_ok) findings in
  let strict_failures =
    List.filter (fun f -> f.f_class = Strict) failed
  in
  let perf_failures = List.filter (fun f -> f.f_class = Perf) failed in
  List.iter
    (fun f ->
      Printf.eprintf "FAIL [%s] %s: %s (baseline %s, current %s, want %s)\n"
        f.f_exp f.f_field f.f_note f.f_base f.f_cur f.f_threshold)
    strict_failures;
  List.iter
    (fun f ->
      if soft then
        (* GitHub annotation format: shows up on the workflow run
           without failing the job. *)
        Printf.eprintf
          "::warning title=bench perf::[%s] %s: %s (baseline %s, current \
           %s, want %s)\n"
          f.f_exp f.f_field f.f_note f.f_base f.f_cur f.f_threshold
      else
        Printf.eprintf "FAIL [%s] %s: %s (baseline %s, current %s, want %s)\n"
          f.f_exp f.f_field f.f_note f.f_base f.f_cur f.f_threshold)
    perf_failures;
  let hard_failed =
    strict_failures <> [] || ((not soft) && perf_failures <> [])
  in
  if hard_failed then begin
    Printf.eprintf "bench --check: %d failing field(s)\n"
      (List.length strict_failures
      + if soft then 0 else List.length perf_failures);
    1
  end
  else begin
    Printf.printf "bench --check: all %d field(s) within bounds%s\n"
      (List.length findings)
      (if soft && perf_failures <> [] then
         Printf.sprintf " (%d perf warning(s))" (List.length perf_failures)
       else "");
    0
  end

let main args =
  let bench_json = ref "BENCH.json" in
  let baseline = ref "bench/BASELINE.json" in
  let tolerance = ref default_tolerance in
  let soft = ref false in
  let update = ref false in
  let rec parse = function
    | [] -> ()
    | ("--help" | "-h") :: _ ->
        usage ();
        exit 0
    | "--bench-json" :: path :: rest ->
        bench_json := path;
        parse rest
    | "--baseline" :: path :: rest ->
        baseline := path;
        parse rest
    | "--tolerance" :: v :: rest ->
        (match float_of_string_opt v with
        | Some f when f >= 0.0 -> tolerance := f
        | Some _ | None ->
            prerr_endline "--tolerance expects a non-negative fraction";
            exit 2);
        parse rest
    | "--soft" :: rest ->
        soft := true;
        parse rest
    | "--update-baseline" :: rest ->
        update := true;
        parse rest
    | arg :: _ ->
        Printf.eprintf "unknown --check option: %s\n" arg;
        usage ();
        exit 2
  in
  parse args;
  let usage_error fmt =
    Printf.ksprintf
      (fun msg ->
        prerr_endline msg;
        2)
      fmt
  in
  match (load !bench_json, !update) with
  | Error msg, _ ->
      usage_error "cannot read current record %s: %s" !bench_json msg
  | Ok (text, _), true ->
      let oc = open_out_bin !baseline in
      output_string oc text;
      close_out oc;
      Printf.printf "baseline refreshed: %s -> %s\n" !bench_json !baseline;
      0
  | Ok (_, cur), false -> (
      match load !baseline with
      | Error msg ->
          usage_error
            "cannot read baseline %s: %s\n(generate one with: main.exe \
             --bench-json %s && main.exe --check --update-baseline)"
            !baseline msg !bench_json
      | Ok (_, base) when experiments_of base = [] ->
          usage_error "baseline %s lists no experiments" !baseline
      | Ok (_, base) ->
          report ~soft:!soft
            ~title:
              (Printf.sprintf "bench --check: %s vs %s" !bench_json !baseline)
            (findings ~tolerance:!tolerance ~base ~cur))
