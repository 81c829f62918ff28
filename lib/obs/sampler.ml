(* Periodic registry snapshots in simulated time.

   The sampler is driven by [tick ~now] rather than by engine events:
   a self-rescheduling engine event would keep the event loop from ever
   draining (scenarios run until their heap is empty).  Attaching the
   tick as a hub sink gives interval-spaced samples whenever the
   simulation is producing events, which is exactly when the metrics
   are changing. *)

type row = { at : float; values : (string * float) list }

type t = {
  interval : float;
  registry : Registry.t;
  mutable tick_no : int;
  mutable rows_rev : row list;
  mutable row_count : int;
}

(* Bounds memory on runaway runs. *)
let max_rows = 100_000

let create ~interval ~registry () =
  if interval <= 0.0 then
    invalid_arg "Obs.Sampler.create: interval must be positive";
  { interval; registry; tick_no = 0; rows_rev = []; row_count = 0 }

let interval t = t.interval

let record t ~at =
  if t.row_count < max_rows then begin
    t.rows_rev <- { at; values = Registry.sample t.registry } :: t.rows_rev;
    t.row_count <- t.row_count + 1
  end

(* Tick boundaries are [n * interval], not [last + interval]: repeated
   float addition drifts (0.1 added 1000 times is 99.9999999999986, so
   a sample lands just before t=100 and workers' series desynchronise
   on long runs).  An integer tick counter keeps every boundary the
   nearest float to [n * interval]. *)
let boundary t n = float_of_int n *. t.interval

let tick t ~now =
  while boundary t t.tick_no <= now do
    record t ~at:(boundary t t.tick_no);
    t.tick_no <- t.tick_no + 1
  done

let finalise t ~now =
  (* One closing sample so end-of-run values always appear, even when
     the run ended mid-bucket. *)
  if
    (match t.rows_rev with
    | last :: _ -> last.at < now
    | [] -> true)
  then record t ~at:now

let rows t = List.rev t.rows_rev
let row_count t = t.row_count

let series t name =
  List.filter_map
    (fun row ->
      Option.map (fun v -> (row.at, v)) (List.assoc_opt name row.values))
    (rows t)
