type t = { pull : Pull.t; warm : (int, unit) Hashtbl.t }

(* A resolution served from a mid-level cache of the hierarchy costs
   this share of the full traversal. *)
let cache_speedup = 0.5

let create ~engine ~internet ~registry ~alt ?faults ?retry ?nonce_rng
    ?adversary ?auth ?glean_cap ?obs () =
  let warm = Hashtbl.create 64 in
  let latency_of ~src ~dst =
    let base = Alt.request_latency alt ~src ~dst in
    if Hashtbl.mem warm dst then base *. cache_speedup
    else begin
      Hashtbl.replace warm dst ();
      base
    end
  in
  let pull =
    Pull.create ~engine ~internet ~registry ~alt ~mode:Pull.Drop_while_pending
      ~name:"cons" ~latency_of ?faults ?retry ?nonce_rng ?adversary ?auth
      ?glean_cap ?obs ()
  in
  { pull; warm }

let control_plane t = Pull.control_plane t.pull
let attach t dataplane = Pull.attach t.pull dataplane
let stats t = Pull.stats t.pull
let warm_destinations t = Hashtbl.length t.warm
