type histogram = {
  mutable n : int;
  mutable sum : float;
  mutable min_v : float;
  mutable max_v : float;
}

type summary = {
  hist_count : int;
  hist_sum : float;
  hist_min : float;
  hist_max : float;
  hist_mean : float;
}

type metric = M_gauge of (unit -> float) | M_histogram of histogram

type t = {
  metrics : (string, metric) Hashtbl.t;
  (* Dynamically-keyed families (e.g. per-cause drop counts): a prefix
     plus a collector returning the current (suffix, value) rows. *)
  mutable collectors : (string * (unit -> (string * float) list)) list;
}

let create () = { metrics = Hashtbl.create 32; collectors = [] }

let register t name metric =
  if Hashtbl.mem t.metrics name then
    invalid_arg (Printf.sprintf "Obs.Registry: duplicate metric %S" name);
  Hashtbl.replace t.metrics name metric

let register_gauge t name read = register t name (M_gauge read)

let register_many t prefix collect =
  t.collectors <- t.collectors @ [ (prefix, collect) ]

let histogram t name =
  match Hashtbl.find_opt t.metrics name with
  | Some (M_histogram h) -> h
  | Some _ ->
      invalid_arg (Printf.sprintf "Obs.Registry: %S is not a histogram" name)
  | None ->
      let h = { n = 0; sum = 0.0; min_v = infinity; max_v = neg_infinity } in
      register t name (M_histogram h);
      h

let observe h v =
  h.n <- h.n + 1;
  h.sum <- h.sum +. v;
  if v < h.min_v then h.min_v <- v;
  if v > h.max_v then h.max_v <- v

let summarise h =
  { hist_count = h.n; hist_sum = h.sum;
    hist_min = (if h.n = 0 then 0.0 else h.min_v);
    hist_max = (if h.n = 0 then 0.0 else h.max_v);
    hist_mean = (if h.n = 0 then 0.0 else h.sum /. float_of_int h.n) }

type value = Gauge of float | Histogram of summary

(* The scalar a timeseries sample records for each metric. *)
let scalar = function
  | Gauge v -> v
  | Histogram s -> float_of_int s.hist_count

let snapshot t =
  let rows =
    Hashtbl.fold
      (fun name metric acc ->
        let value =
          match metric with
          | M_gauge read -> Gauge (read ())
          | M_histogram h -> Histogram (summarise h)
        in
        (name, value) :: acc)
      t.metrics []
  in
  let dynamic =
    List.concat_map
      (fun (prefix, collect) ->
        List.map (fun (key, v) -> (prefix ^ "." ^ key, Gauge v)) (collect ()))
      t.collectors
  in
  List.sort (fun (a, _) (b, _) -> String.compare a b) (rows @ dynamic)

let sample t = List.map (fun (name, value) -> (name, scalar value)) (snapshot t)

let size t = Hashtbl.length t.metrics
