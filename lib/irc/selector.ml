open Nettypes

type direction = Outbound | Inbound

(* Per-border monitoring state.  "Outbound" is the direction leaving the
   domain (router -> provider core), "inbound" the opposite. *)
type uplink_state = {
  border : Topology.Domain.border;
  some_border : Topology.Domain.border option; (* [Some border], made once *)
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

(* The sticky assignments of one direction: an open-addressing table
   keyed by the (src, dst) int pair, stored structure-of-arrays with
   linear probing like [Lispdp.Flow_table].  A slot is free when its
   border index is -1, so a key may be any two ints: PCE_D keys its
   ingress choices by (EID, querying resolver's node id).  Assignments
   are never removed, so there are no tombstones.  The arrays start
   empty and are allocated at the first assignment. *)
type assignments = {
  mutable src : int array;
  mutable dst : int array;
  mutable border_index : int array; (* -1 marks a free slot *)
  mutable remote : int array; (* far-end router node, [no_node] if unknown *)
  mutable count : int;
}

let no_node = -1

type t = {
  domain : Topology.Domain.t;
  graph : Topology.Graph.t;
  policy : Policy.t;
  uplinks : uplink_state array;
  mutable last_observed : float option;
  out_assign : assignments;
  in_assign : assignments;
  mutable rr_out : int;
  mutable rr_in : int;
  mutable moved : int;
}

let fib1 = 0x2545F4914F6CDD1D
let fib2 = 0x1E3779B97F4A7C15

(* The product's high bits are folded into the low bits that pick the
   slot, as in [Int_table]. *)
let slot_of a ~src ~dst =
  let h = (src * fib1) lxor (dst * fib2) in
  (h lxor (h lsr 29)) land (Array.length a.src - 1)

(* The slot holding the pair, or the free slot that ends its probe
   chain.  The table must have been allocated. *)
let probe a ~src ~dst =
  let mask = Array.length a.src - 1 in
  let i = ref (slot_of a ~src ~dst) in
  while
    Array.unsafe_get a.border_index !i >= 0
    && not (Array.unsafe_get a.src !i = src && Array.unsafe_get a.dst !i = dst)
  do
    i := (!i + 1) land mask
  done;
  !i

(* The slot of the pair's assignment, or -1. *)
let find a ~src ~dst =
  if a.count = 0 then -1
  else
    let s = probe a ~src ~dst in
    if Array.unsafe_get a.border_index s >= 0 then s else -1

(* Double the capacity (16 slots the first time), rehashing every
   assignment.  Growing at half occupancy keeps probe chains short and
   always ending at a free slot. *)
let grow a =
  let src = a.src and dst = a.dst and border_index = a.border_index
  and remote = a.remote in
  let cap = Stdlib.max 16 (2 * Array.length src) in
  a.src <- Array.make cap 0;
  a.dst <- Array.make cap 0;
  a.border_index <- Array.make cap (-1);
  a.remote <- Array.make cap no_node;
  for s = 0 to Array.length src - 1 do
    if border_index.(s) >= 0 then begin
      let d = probe a ~src:src.(s) ~dst:dst.(s) in
      a.src.(d) <- src.(s);
      a.dst.(d) <- dst.(s);
      a.border_index.(d) <- border_index.(s);
      a.remote.(d) <- remote.(s)
    end
  done

let assign a ~src ~dst ~border_index ~remote =
  let s =
    match find a ~src ~dst with
    | -1 ->
        if 2 * (a.count + 1) > Array.length a.src then grow a;
        let s = probe a ~src ~dst in
        a.src.(s) <- src;
        a.dst.(s) <- dst;
        a.count <- a.count + 1;
        s
    | s -> s
  in
  a.border_index.(s) <- border_index;
  a.remote.(s) <- remote

(* The occupied slots in (src, dst) order: the order [Flow.compare]
   gives the pair flows they stand for. *)
let sorted_slots a =
  let slots = Array.make a.count 0 in
  let n = ref 0 in
  Array.iteri
    (fun s i ->
      if i >= 0 then begin
        slots.(!n) <- s;
        incr n
      end)
    a.border_index;
  Array.sort
    (fun x y ->
      let c = Int.compare a.src.(x) a.src.(y) in
      if c <> 0 then c else Int.compare a.dst.(x) a.dst.(y))
    slots;
  slots

let empty_assignments () =
  { src = [||]; dst = [||]; border_index = [||]; remote = [||]; count = 0 }

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
        { border; some_border = Some border;
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
    out_assign = empty_assignments (); in_assign = empty_assignments ();
    rr_out = 0; rr_in = 0; moved = 0 }

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
   not known yet ([no_node]). *)
let candidate_latency t ~remote i =
  let border = t.uplinks.(i).border in
  if remote = no_node then Topology.Link.latency border.Topology.Domain.uplink
  else
    (* Link failures can make the remote end unreachable; an infinite
       latency keeps the candidate comparable instead of raising. *)
    match
      Topology.Graph.latency_between t.graph border.Topology.Domain.router
        remote
    with
    | latency -> latency
    | exception Not_found -> infinity

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

(* The flow-hash policy hashes the pair as the port-less TCP flow
   (src, dst, 0, 0). *)
let pick_index t direction ~src ~dst ~remote =
  match t.policy with
  | Policy.Flow_hash ->
      next_up t
        (Flow.hash_fields ~src ~dst ~src_port:0 ~dst_port:0 Flow.Tcp
         mod Array.length t.uplinks)
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

(* The slot of the pair's assignment when its uplink is alive, else -1. *)
let live_slot t a ~(src : Ipv4.addr) ~(dst : Ipv4.addr) =
  let s = find a ~src:(src :> int) ~dst:(dst :> int) in
  if s >= 0 && uplink_up t a.border_index.(s) then s else -1

let choose t direction ~src ~dst ~remote =
  let a = assignments t direction in
  let s = live_slot t a ~src ~dst in
  if s >= 0 then t.uplinks.(a.border_index.(s)).border
  else begin
    (* No live assignment: pick one (a dead sticky assignment is
       overwritten - uplink failure voids stickiness). *)
    let i = pick_index t direction ~src ~dst ~remote in
    note_assignment t direction i;
    assign a ~src:(src :> int) ~dst:(dst :> int) ~border_index:i ~remote;
    t.uplinks.(i).border
  end

let choose_egress t ~src ~dst ?(remote = no_node) () =
  choose t Outbound ~src ~dst ~remote

let choose_ingress t ~src ~dst = choose t Inbound ~src ~dst ~remote:no_node

let live_egress t ~src ~dst =
  let a = t.out_assign in
  let s = live_slot t a ~src ~dst in
  if s >= 0 then t.uplinks.(a.border_index.(s)).some_border else None

let rebalance_direction t direction =
  match t.policy with
  | Policy.Flow_hash | Policy.Round_robin -> ()
  | Policy.Min_latency | Policy.Min_load | Policy.Weighted _ ->
      let a = assignments t direction in
      Array.iter
        (fun s ->
          (* Scores are recomputed per flow and each move notes an
             assignment, so one pass cannot herd every flow onto the
             momentarily-idle uplink; it is also why the pass keeps
             (src, dst) order. *)
          let current = a.border_index.(s) in
          let scores = candidate_scores t direction ~remote:a.remote.(s) in
          let best = argmin scores in
          if best <> current && scores.(best) +. hysteresis < scores.(current)
          then begin
            t.moved <- t.moved + 1;
            note_assignment t direction best;
            a.border_index.(s) <- best
          end)
        (sorted_slots a)

let rebalance t =
  rebalance_direction t Outbound;
  rebalance_direction t Inbound
