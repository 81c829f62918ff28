type kind = Internal | External

type t = {
  id : int;
  a : Node.id;
  b : Node.id;
  latency : float;
  capacity_bps : float;
  kind : kind;
  mutable up : bool;
  mutable bytes_ab : int;
  mutable bytes_ba : int;
}

let create ~id ~a ~b ~latency ?(capacity_bps = 1e9) ?(kind = External) () =
  if latency <= 0.0 then invalid_arg "Link.create: latency must be positive";
  if capacity_bps <= 0.0 then
    invalid_arg "Link.create: capacity must be positive";
  { id; a; b; latency; capacity_bps; kind; up = true; bytes_ab = 0;
    bytes_ba = 0 }

let id t = t.id
let a t = t.a
let b t = t.b
let latency t = t.latency
let capacity_bps t = t.capacity_bps
let kind t = t.kind
let is_up t = t.up

(* Only Graph.set_link_up may flip this: it repairs the graph's cached
   shortest-path trees around the change.  The mli exports the setter
   for Graph alone, and CI fails on a call anywhere else. *)
let set_up_internal t up = t.up <- up

let other_end t node =
  if node = t.a then t.b
  else if node = t.b then t.a
  else invalid_arg "Link.other_end: node is not an endpoint"

let account t ~src ~bytes =
  if src = t.a then t.bytes_ab <- t.bytes_ab + bytes
  else if src = t.b then t.bytes_ba <- t.bytes_ba + bytes
  else invalid_arg "Link.account: node is not an endpoint"

let bytes_from t node =
  if node = t.a then t.bytes_ab
  else if node = t.b then t.bytes_ba
  else invalid_arg "Link.bytes_from: node is not an endpoint"

let utilisation_from t node ~duration =
  if duration <= 0.0 then invalid_arg "Link.utilisation_from: duration <= 0";
  float_of_int (bytes_from t node) *. 8.0 /. (t.capacity_bps *. duration)

let reset_counters t =
  t.bytes_ab <- 0;
  t.bytes_ba <- 0
