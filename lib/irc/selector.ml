open Nettypes

type direction = Outbound | Inbound

(* Per-border monitoring state.  "Outbound" is the direction leaving the
   domain (router -> provider core), "inbound" the opposite. *)
type uplink_state = {
  border : Topology.Domain.border;
  mutable last_out_bytes : int;
  mutable last_in_bytes : int;
  mutable ewma_out : float;
  mutable ewma_in : float;
  (* Assignments made since the last observation, per direction.  They
     carry a small score penalty so a burst of arrivals between two load
     samples spreads over the uplinks instead of herding onto whichever
     one the stale estimate ranks best. *)
  mutable recent_out : int;
  mutable recent_in : int;
}

type sticky = { border_index : int; remote : Topology.Node.id option }

type t = {
  domain : Topology.Domain.t;
  graph : Topology.Graph.t;
  policy : Policy.t;
  uplinks : uplink_state array;
  mutable last_observed : float option;
  mutable out_assign : sticky Flow.Map.t;
  mutable in_assign : sticky Flow.Map.t;
  mutable rr_out : int;
  mutable rr_in : int;
  mutable moved : int;
}

(* Smoothing factor of the load estimate. *)
let ewma_alpha = 0.3

(* Score improvement a candidate must offer before [rebalance] moves an
   existing assignment. *)
let hysteresis = 0.05

(* Score added per assignment made since the last observation. *)
let assign_penalty = 0.02

let create ~domain ~graph ~policy =
  let uplinks =
    Array.map
      (fun border ->
        { border;
          last_out_bytes =
            Topology.Link.bytes_from border.Topology.Domain.uplink
              border.Topology.Domain.router;
          last_in_bytes =
            Topology.Link.bytes_from border.Topology.Domain.uplink
              (Topology.Link.other_end border.Topology.Domain.uplink
                 border.Topology.Domain.router);
          ewma_out = 0.0; ewma_in = 0.0; recent_out = 0; recent_in = 0 })
      domain.Topology.Domain.borders
  in
  { domain; graph; policy; uplinks; last_observed = None;
    out_assign = Flow.Map.empty;
    in_assign = Flow.Map.empty; rr_out = 0; rr_in = 0; moved = 0 }

let moved_flows t = t.moved

let observe t ~now =
  match t.last_observed with
  | None -> t.last_observed <- Some now
  | Some before when now > before ->
      let dt = now -. before in
      Array.iter
        (fun u ->
          let link = u.border.Topology.Domain.uplink in
          let router = u.border.Topology.Domain.router in
          let core = Topology.Link.other_end link router in
          let out_bytes = Topology.Link.bytes_from link router in
          let in_bytes = Topology.Link.bytes_from link core in
          let capacity = Topology.Link.capacity_bps link in
          let sample_of delta = float_of_int delta *. 8.0 /. (capacity *. dt) in
          let out_sample = sample_of (out_bytes - u.last_out_bytes) in
          let in_sample = sample_of (in_bytes - u.last_in_bytes) in
          u.ewma_out <-
            (ewma_alpha *. out_sample) +. ((1.0 -. ewma_alpha) *. u.ewma_out);
          u.ewma_in <-
            (ewma_alpha *. in_sample) +. ((1.0 -. ewma_alpha) *. u.ewma_in);
          u.last_out_bytes <- out_bytes;
          u.last_in_bytes <- in_bytes;
          u.recent_out <- 0;
          u.recent_in <- 0)
        t.uplinks;
      t.last_observed <- Some now
  | Some _ -> ()

let uplink_index_of t border =
  let rec scan i =
    if i >= Array.length t.uplinks then
      invalid_arg "Selector: border not in this domain"
    else if t.uplinks.(i).border.Topology.Domain.router
            = border.Topology.Domain.router
    then i
    else scan (i + 1)
  in
  scan 0

let load_of t direction i =
  match direction with
  | Outbound -> t.uplinks.(i).ewma_out
  | Inbound -> t.uplinks.(i).ewma_in

let uplink_up t i =
  Topology.Link.is_up t.uplinks.(i).border.Topology.Domain.uplink

let scored_load t direction i =
  if not (uplink_up t i) then infinity
  else
    let recent =
      match direction with
      | Outbound -> t.uplinks.(i).recent_out
      | Inbound -> t.uplinks.(i).recent_in
    in
    load_of t direction i +. (assign_penalty *. float_of_int recent)

let note_assignment t direction i =
  (match direction with
  | Outbound -> t.uplinks.(i).recent_out <- t.uplinks.(i).recent_out + 1
  | Inbound -> t.uplinks.(i).recent_in <- t.uplinks.(i).recent_in + 1);
  match Topology.Graph.telemetry t.graph with
  | Some tm ->
      Netsim.Telemetry.on_select tm
        ~provider:t.uplinks.(i).border.Topology.Domain.provider
        ~inbound:(direction = Inbound)
  | None -> ()

let load_estimate t direction border = load_of t direction (uplink_index_of t border)

(* Latency of candidate [i] toward [remote]: from the border router to
   the remote node, or just to the provider core when the remote end is
   not known yet. *)
let candidate_latency t ~remote i =
  let border = t.uplinks.(i).border in
  match remote with
  | Some node -> (
      (* Link failures can make the remote end unreachable; an infinite
         latency keeps the candidate comparable instead of raising. *)
      match
        Topology.Graph.latency_between t.graph border.Topology.Domain.router
          node
      with
      | latency -> latency
      | exception Not_found -> infinity)
  | None -> Topology.Link.latency border.Topology.Domain.uplink

let candidate_scores t direction ~remote =
  let n = Array.length t.uplinks in
  let latencies = Array.init n (candidate_latency t ~remote) in
  let latency_scale = Array.fold_left Float.max 0.0 latencies in
  Array.init n (fun i ->
      Policy.score t.policy ~latency:latencies.(i)
        ~load:(scored_load t direction i) ~latency_scale)

let argmin scores =
  let best = ref 0 in
  Array.iteri (fun i s -> if s < scores.(!best) then best := i) scores;
  !best

(* Advance [start] to the next index whose uplink is alive (falling back
   to [start] if every uplink is down - the caller's packets will then
   be dropped by the data plane, which is the honest outcome). *)
let next_up t start =
  let n = Array.length t.uplinks in
  let rec probe i tries =
    if tries = n then start
    else if uplink_up t (i mod n) then i mod n
    else probe (i + 1) (tries + 1)
  in
  probe start 0

let pick_index t direction ~flow ~remote =
  match t.policy with
  | Policy.Flow_hash -> next_up t (Flow.hash flow mod Array.length t.uplinks)
  | Policy.Round_robin ->
      let n = Array.length t.uplinks in
      let i =
        match direction with
        | Outbound ->
            t.rr_out <- t.rr_out + 1;
            t.rr_out
        | Inbound ->
            t.rr_in <- t.rr_in + 1;
            t.rr_in
      in
      next_up t (i mod n)
  | Policy.Min_latency | Policy.Min_load | Policy.Weighted _ ->
      argmin (candidate_scores t direction ~remote)

let assignments t = function
  | Outbound -> t.out_assign
  | Inbound -> t.in_assign

let set_assignments t direction m =
  match direction with
  | Outbound -> t.out_assign <- m
  | Inbound -> t.in_assign <- m

let choose t direction ~flow ~remote =
  match Flow.Map.find_opt flow (assignments t direction) with
  | Some sticky when uplink_up t sticky.border_index ->
      t.uplinks.(sticky.border_index).border
  | Some _ | None ->
      (* No live assignment: pick one (a dead sticky assignment is
         overwritten - uplink failure voids stickiness). *)
      let i = pick_index t direction ~flow ~remote in
      note_assignment t direction i;
      set_assignments t direction
        (Flow.Map.add flow { border_index = i; remote } (assignments t direction));
      t.uplinks.(i).border

let choose_egress t ~flow ?remote () = choose t Outbound ~flow ~remote
let choose_ingress t ~flow = choose t Inbound ~flow ~remote:None

let assignment t direction flow =
  Option.map
    (fun s -> t.uplinks.(s.border_index).border)
    (Flow.Map.find_opt flow (assignments t direction))

let rebalance_direction t direction =
  match t.policy with
  | Policy.Flow_hash | Policy.Round_robin -> ()
  | Policy.Min_latency | Policy.Min_load | Policy.Weighted _ ->
      let updated =
        Flow.Map.map
          (fun sticky ->
            (* Scores are recomputed per flow and each move notes an
               assignment, so one pass cannot herd every flow onto the
               momentarily-idle uplink. *)
            let scores = candidate_scores t direction ~remote:sticky.remote in
            let best = argmin scores in
            if
              best <> sticky.border_index
              && scores.(best) +. hysteresis < scores.(sticky.border_index)
            then begin
              t.moved <- t.moved + 1;
              note_assignment t direction best;
              { sticky with border_index = best }
            end
            else sticky)
          (assignments t direction)
      in
      set_assignments t direction updated

let rebalance t =
  rebalance_direction t Outbound;
  rebalance_direction t Inbound

let forget_flow t flow =
  t.out_assign <- Flow.Map.remove flow t.out_assign;
  t.in_assign <- Flow.Map.remove flow t.in_assign
