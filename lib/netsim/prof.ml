(* Self-profiler internals.  Everything lives in flat pre-allocated
   arrays indexed by phase id so the enabled hot path touches no heap
   and the disabled one is a single flag test.  The module is
   process-global: the simulator is single-domain and the bench runner
   forks one process per experiment, so global state is the cheap and
   correct choice. *)

type phase = int

let max_phases = 64
let max_depth = 1024

(* Real clock: CLOCK_MONOTONIC in nanoseconds via bechamel's noalloc
   stub, converted to float seconds.  Reading it allocates nothing but
   the boxed float result, and only runs while the profiler is on. *)
let monotonic_s () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let clock = ref monotonic_s
let set_clock_for_testing = function
  | Some f -> clock := f
  | None -> clock := monotonic_s

(* Phase registry. *)
let n_phases = ref 0
let names = Array.make max_phases ""

let phase name =
  let rec find i =
    if i >= !n_phases then begin
      if !n_phases >= max_phases then
        invalid_arg "Prof.phase: too many phases";
      let id = !n_phases in
      names.(id) <- name;
      incr n_phases;
      id
    end
    else if String.equal names.(i) name then i
    else find (i + 1)
  in
  find 0


(* Accumulators. *)
let self_s = Array.make max_phases 0.0
let total_s = Array.make max_phases 0.0
let calls = Array.make max_phases 0
let active = Array.make max_phases 0
let act_start = Array.make max_phases 0.0

(* Phase stack: the id on top owns the clock from [last_mark] on. *)
let stack = Array.make max_depth 0
let frame_start = Array.make max_depth 0.0
let depth = ref 0
let last_mark = ref 0.0

let on = ref false
let paused = ref false
let pause_at = ref 0.0
let paused_total = ref 0.0
let origin = ref 0.0
let stopped_at = ref 0.0
let stopped = ref false

let enabled () = !on
let set_enabled b = on := b

(* Counters: a second small registry, same flat-array shape. *)
type counter = int

let max_counters = 64
let n_counters = ref 0
let counter_names = Array.make max_counters ""
let counts = Array.make max_counters 0

let counter name =
  let rec find i =
    if i >= !n_counters then begin
      if !n_counters >= max_counters then
        invalid_arg "Prof.counter: too many counters";
      let id = !n_counters in
      counter_names.(id) <- name;
      incr n_counters;
      id
    end
    else if String.equal counter_names.(i) name then i
    else find (i + 1)
  in
  find 0

let add c n = if !on then counts.(c) <- counts.(c) + n
let incr c = add c 1

(* Interval ring for the Chrome-trace self-profile.  Fixed-capacity
   parallel arrays; once full we count drops rather than grow, so a
   long run can't eat the heap behind the user's back. *)
let recording = ref false
let iv_cap = ref 0
let iv_phase = ref [||]
let iv_start = ref [||]
let iv_dur = ref [||]
let iv_depth = ref [||]
let iv_count = ref 0
let iv_dropped = ref 0

let set_record_intervals ?(cap = 200_000) flag =
  recording := flag;
  iv_count := 0;
  iv_dropped := 0;
  if flag && !iv_cap <> cap then begin
    iv_cap := cap;
    iv_phase := Array.make cap 0;
    iv_start := Array.make cap 0.0;
    iv_dur := Array.make cap 0.0;
    iv_depth := Array.make cap 0
  end

let record_interval ph start_t dur d =
  if !iv_count < !iv_cap then begin
    !iv_phase.(!iv_count) <- ph;
    !iv_start.(!iv_count) <- start_t -. !origin;
    !iv_dur.(!iv_count) <- dur;
    !iv_depth.(!iv_count) <- d;
    Stdlib.incr iv_count
  end
  else Stdlib.incr iv_dropped

type interval = {
  iv_name : string;
  iv_start_s : float;
  iv_dur_s : float;
  iv_depth : int;
}

let intervals () =
  List.init !iv_count (fun i ->
      {
        iv_name = names.(!iv_phase.(i));
        iv_start_s = !iv_start.(i);
        iv_dur_s = !iv_dur.(i);
        iv_depth = !iv_depth.(i);
      })

let intervals_dropped () = !iv_dropped

(* Hot path. *)

let enter ph =
  if !on then begin
    let t = !clock () in
    let d = !depth in
    if d > 0 then begin
      let top = stack.(d - 1) in
      self_s.(top) <- self_s.(top) +. (t -. !last_mark)
    end;
    last_mark := t;
    if d < max_depth then begin
      stack.(d) <- ph;
      frame_start.(d) <- t;
      depth := d + 1
    end;
    calls.(ph) <- calls.(ph) + 1;
    if active.(ph) = 0 then act_start.(ph) <- t;
    active.(ph) <- active.(ph) + 1
  end

let leave ph =
  if !on then begin
    let t = !clock () in
    let d = !depth in
    if d > 0 then begin
      let top = stack.(d - 1) in
      self_s.(top) <- self_s.(top) +. (t -. !last_mark);
      depth := d - 1;
      if !recording then
        record_interval top frame_start.(d - 1) (t -. frame_start.(d - 1))
          (d - 1)
    end;
    last_mark := t;
    if active.(ph) > 0 then begin
      active.(ph) <- active.(ph) - 1;
      if active.(ph) = 0 then
        total_s.(ph) <- total_s.(ph) +. (t -. act_start.(ph))
    end
  end

let with_phase ph f =
  enter ph;
  match f () with
  | v ->
      leave ph;
      v
  | exception e ->
      leave ph;
      raise e

let wrap ph k =
  if not !on then k
  else
    fun () ->
      enter ph;
      (match k () with
      | () -> ()
      | exception e ->
          leave ph;
          raise e);
      leave ph

let now_s () = !clock ()

(* Lifecycle. *)

let start () =
  for i = 0 to !n_phases - 1 do
    self_s.(i) <- 0.0;
    total_s.(i) <- 0.0;
    calls.(i) <- 0;
    active.(i) <- 0;
    act_start.(i) <- 0.0
  done;
  for i = 0 to !n_counters - 1 do
    counts.(i) <- 0
  done;
  depth := 0;
  iv_count := 0;
  iv_dropped := 0;
  paused := false;
  paused_total := 0.0;
  stopped := false;
  let t = !clock () in
  origin := t;
  last_mark := t;
  on := true

let stop () =
  if !on then begin
    (* Force-close whatever is still open so self/total partitions add
       up even when the caller stops mid-phase (e.g. after an
       exception unwound past the instrumentation). *)
    while !depth > 0 do
      leave stack.(!depth - 1)
    done;
    stopped_at := !clock ();
    stopped := true;
    on := false
  end

let pause () =
  if !on && not !paused then begin
    let t = !clock () in
    if !depth > 0 then begin
      let top = stack.(!depth - 1) in
      self_s.(top) <- self_s.(top) +. (t -. !last_mark)
    end;
    pause_at := t;
    paused := true;
    on := false
  end

let resume () =
  if !paused then begin
    let t = !clock () in
    let gap = t -. !pause_at in
    paused_total := !paused_total +. gap;
    (* Open activations and stack frames must not absorb the pause:
       shift their start marks forward by the gap. *)
    for i = 0 to !n_phases - 1 do
      if active.(i) > 0 then act_start.(i) <- act_start.(i) +. gap
    done;
    for i = 0 to !depth - 1 do
      frame_start.(i) <- frame_start.(i) +. gap
    done;
    last_mark := t;
    paused := false;
    on := true
  end

(* Reporting. *)

type phase_stat = {
  ps_name : string;
  ps_self_s : float;
  ps_total_s : float;
  ps_calls : int;
}

type report = {
  r_wall_s : float;
  r_phases : phase_stat list;
  r_counters : (string * int) list;
  r_unattributed_s : float;
  r_intervals_dropped : int;
}

let report () =
  let until =
    if !stopped then !stopped_at
    else if !paused then !pause_at
    else !clock ()
  in
  let wall = until -. !origin -. !paused_total in
  let phases = ref [] in
  let sum_self = ref 0.0 in
  for i = !n_phases - 1 downto 0 do
    if calls.(i) > 0 then begin
      (* A phase still open contributes its elapsed time so a report
         taken mid-run is internally consistent. *)
      let self =
        if !depth > 0 && stack.(!depth - 1) = i && not !stopped then
          self_s.(i) +. (until -. !last_mark)
        else self_s.(i)
      in
      let total =
        if active.(i) > 0 && not !stopped then
          total_s.(i) +. (until -. act_start.(i))
        else total_s.(i)
      in
      sum_self := !sum_self +. self;
      phases :=
        {
          ps_name = names.(i);
          ps_self_s = self;
          ps_total_s = total;
          ps_calls = calls.(i);
        }
        :: !phases
    end
  done;
  let counters = ref [] in
  for i = !n_counters - 1 downto 0 do
    if counts.(i) > 0 then
      counters := (counter_names.(i), counts.(i)) :: !counters
  done;
  {
    r_wall_s = wall;
    r_phases =
      List.sort (fun a b -> compare a.ps_name b.ps_name) !phases;
    r_counters = !counters;
    r_unattributed_s = Float.max 0.0 (wall -. !sum_self);
    r_intervals_dropped = !iv_dropped;
  }

let coverage r =
  if r.r_wall_s <= 0.0 then 0.0
  else Float.max 0.0 (1.0 -. (r.r_unattributed_s /. r.r_wall_s))
