type t = { bucket : float; buckets : float array }

let create ~bucket ~horizon =
  if bucket <= 0.0 then invalid_arg "Timeseries.create: bucket must be positive";
  if horizon <= 0.0 then invalid_arg "Timeseries.create: horizon must be positive";
  let count = int_of_float (Float.ceil (horizon /. bucket)) in
  { bucket; buckets = Array.make (Stdlib.max 1 count) 0.0 }

let bucket_count t = Array.length t.buckets

let add t ~at ?(value = 1.0) () =
  let i = int_of_float (Float.floor (at /. t.bucket)) in
  if at >= 0.0 && i < Array.length t.buckets then
    t.buckets.(i) <- t.buckets.(i) +. value

let value t i =
  if i < 0 || i >= Array.length t.buckets then
    invalid_arg "Timeseries.value: index out of range";
  t.buckets.(i)

let values t = Array.copy t.buckets
let bucket_start t i = float_of_int i *. t.bucket

let last_active_after t time =
  let found = ref None in
  Array.iteri
    (fun i v ->
      if v > 0.0 && bucket_start t i >= time then found := Some (bucket_start t i))
    t.buckets;
  !found
