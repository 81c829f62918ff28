type t =
  | Min_latency
  | Min_load
  | Weighted of { latency_weight : float; load_weight : float }
  | Round_robin
  | Flow_hash

let to_string = function
  | Min_latency -> "min-latency"
  | Min_load -> "min-load"
  | Weighted { latency_weight; load_weight } ->
      Printf.sprintf "weighted(%.2f,%.2f)" latency_weight load_weight
  | Round_robin -> "round-robin"
  | Flow_hash -> "flow-hash"

let score t ~latency ~load ~latency_scale =
  let norm_latency = if latency_scale > 0.0 then latency /. latency_scale else 0.0 in
  match t with
  | Min_latency -> norm_latency
  | Min_load -> load
  | Weighted { latency_weight; load_weight } ->
      (latency_weight *. norm_latency) +. (load_weight *. load)
  | Round_robin | Flow_hash -> 0.0
