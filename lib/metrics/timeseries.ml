type t = {
  bucket : float;
  buckets : float array;
  mutable out_of_range : int;
}

let create ~bucket ~horizon =
  if bucket <= 0.0 then invalid_arg "Timeseries.create: bucket must be positive";
  if horizon <= 0.0 then invalid_arg "Timeseries.create: horizon must be positive";
  let count = int_of_float (Float.ceil (horizon /. bucket)) in
  { bucket; buckets = Array.make (Stdlib.max 1 count) 0.0; out_of_range = 0 }

let bucket_count t = Array.length t.buckets

let add t ~at ?(value = 1.0) () =
  let i = int_of_float (Float.floor (at /. t.bucket)) in
  if at < 0.0 || i >= Array.length t.buckets then
    t.out_of_range <- t.out_of_range + 1
  else t.buckets.(i) <- t.buckets.(i) +. value

let total t = Array.fold_left ( +. ) 0.0 t.buckets
let out_of_range t = t.out_of_range

let value t i =
  if i < 0 || i >= Array.length t.buckets then
    invalid_arg "Timeseries.value: index out of range";
  t.buckets.(i)

let values t = Array.copy t.buckets
let bucket_start t i = float_of_int i *. t.bucket

let peak t =
  let best = ref None in
  Array.iteri
    (fun i v ->
      match !best with
      | Some (_, b) when b >= v -> ()
      | Some _ | None -> if v > 0.0 then best := Some (bucket_start t i, v))
    t.buckets;
  !best

let last_active t =
  let found = ref None in
  Array.iteri (fun i v -> if v > 0.0 then found := Some (bucket_start t i)) t.buckets;
  !found

let first_active_after t time =
  let n = Array.length t.buckets in
  let rec scan i =
    if i >= n then None
    else if t.buckets.(i) > 0.0 && bucket_start t i >= time then
      Some (bucket_start t i)
    else scan (i + 1)
  in
  scan 0

let last_active_after t time =
  let found = ref None in
  Array.iteri
    (fun i v ->
      if v > 0.0 && bucket_start t i >= time then found := Some (bucket_start t i))
    t.buckets;
  !found

let to_rows t =
  Array.to_list (Array.mapi (fun i v -> (bucket_start t i, v)) t.buckets)

let pp ppf t =
  let max_value = Array.fold_left Float.max 0.0 t.buckets in
  Array.iteri
    (fun i v ->
      let width =
        if max_value <= 0.0 then 0
        else int_of_float (40.0 *. v /. max_value)
      in
      Format.fprintf ppf "%8.1fs %10.0f %s@." (bucket_start t i) v
        (String.make width '#'))
    t.buckets
