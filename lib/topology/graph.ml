(* Valley-free routing runs Dijkstra over (node, phase) states, flattened
   to [node * phases + phase], with three phases:

     0 - still inside the source domain (only internal links used);
     1 - on external links (access / core);
     2 - inside the destination domain (internal links after external).

   Internal links keep phase 0, move 1 -> 2, and keep 2; external links
   move 0 -> 1, keep 1, and are forbidden from phase 2.  This is exactly
   "no domain transits traffic between two providers". *)
let phases = 3

type t = {
  mutable nodes : Node.t array;
  mutable node_count : int;
  mutable adjacency : (Node.id * Link.t) list array;
  (* Links by their dense id; the first [link_count] cells are live. *)
  mutable link_by_id : Link.t array;
  mutable link_count : int;
  (* One shortest-path tree per source, refilled in place.  [dists.(s)]
     holds each state's distance from [s] (infinity when unreached) and
     [preds.(s)] the incoming link's id * phases + the predecessor's
     phase (-1 at the root and when unreached); the predecessor node is
     the link's other end.  A tree is current while [stamps.(s)] equals
     [generation]. *)
  mutable dists : float array array;
  mutable preds : int array array;
  mutable stamps : int array;
  mutable generation : int;
  (* Dijkstra scratch: a binary heap of state ids ordered by (distance,
     state id), and each state's heap position (-1 when not queued, so
     all -1 between builds). *)
  mutable heap : int array;
  mutable heap_pos : int array;
  mutable telemetry : Netsim.Telemetry.t option;
}

let dummy_node : Node.t = { id = -1; kind = Node.Host; label = "" }

let create () =
  { nodes = Array.make 16 dummy_node; node_count = 0;
    adjacency = Array.make 16 []; link_by_id = [||]; link_count = 0;
    dists = Array.make 16 [||]; preds = Array.make 16 [||];
    stamps = Array.make 16 (-1); generation = 0; heap = [||];
    heap_pos = [||]; telemetry = None }

let grown a capacity filler =
  let b = Array.make capacity filler in
  Array.blit a 0 b 0 (Array.length a);
  b

let invalidate_cache t = t.generation <- t.generation + 1

let add_node t ~kind ~label =
  if t.node_count = Array.length t.nodes then begin
    let capacity = 2 * t.node_count in
    t.nodes <- grown t.nodes capacity dummy_node;
    t.adjacency <- grown t.adjacency capacity [];
    t.dists <- grown t.dists capacity [||];
    t.preds <- grown t.preds capacity [||];
    t.stamps <- grown t.stamps capacity (-1)
  end;
  let id = t.node_count in
  t.nodes.(id) <- { Node.id; kind; label };
  t.node_count <- id + 1;
  (* Every tree is sized for the old node count. *)
  invalidate_cache t;
  id

let check_id t id fn =
  if id < 0 || id >= t.node_count then
    invalid_arg (Printf.sprintf "Graph.%s: unknown node %d" fn id)

let node t id =
  check_id t id "node";
  t.nodes.(id)

let node_count t = t.node_count

let link_between t a b =
  check_id t a "link_between";
  check_id t b "link_between";
  List.assoc_opt b t.adjacency.(a)

let connect t a b ~latency ?capacity_bps ?kind () =
  check_id t a "connect";
  check_id t b "connect";
  if a = b then invalid_arg "Graph.connect: self-loop";
  if link_between t a b <> None then
    invalid_arg (Printf.sprintf "Graph.connect: duplicate link %d-%d" a b);
  let id = t.link_count in
  let link = Link.create ~id ~a ~b ~latency ?capacity_bps ?kind () in
  if id = Array.length t.link_by_id then
    t.link_by_id <- grown t.link_by_id (max 16 (2 * id)) link;
  t.link_by_id.(id) <- link;
  t.link_count <- id + 1;
  t.adjacency.(a) <- (b, link) :: t.adjacency.(a);
  t.adjacency.(b) <- (a, link) :: t.adjacency.(b);
  invalidate_cache t;
  link

(* Newest first. *)
let links t = List.init t.link_count (fun i -> t.link_by_id.(t.link_count - 1 - i))
let telemetry t = t.telemetry
let set_telemetry t plane = t.telemetry <- Some plane

let set_link_up t link up =
  if Link.is_up link <> up then begin
    Link.set_up_internal link up;
    invalidate_cache t
  end

let neighbours t id =
  check_id t id "neighbours";
  t.adjacency.(id)

(* The phase a link leads to from [phase], or -1 where it is down or
   forbidden. *)
let next_phase link phase =
  if not (Link.is_up link) then -1
  else
    match (Link.kind link, phase) with
    | Link.Internal, 0 -> 0
    | Link.Internal, _ -> 2
    | Link.External, (0 | 1) -> 1
    | Link.External, _ -> -1

(* Heap order: smaller distance first, then smaller state id — the order
   in which a dense scan for the nearest unsettled state settles them.
   Every heap function takes and returns ints only, so no float is boxed. *)
let before (dist : float array) a b =
  let da = dist.(a) and db = dist.(b) in
  da < db || (da = db && a < b)

let place heap pos i s =
  heap.(i) <- s;
  pos.(s) <- i

let rec sift_up heap pos dist i s =
  let parent = (i - 1) / 2 in
  if i > 0 && before dist s heap.(parent) then begin
    place heap pos i heap.(parent);
    sift_up heap pos dist parent s
  end
  else place heap pos i s

let rec sift_down heap pos dist size i s =
  let l = (2 * i) + 1 in
  if l >= size then place heap pos i s
  else begin
    let c = if l + 1 < size && before dist heap.(l + 1) heap.(l) then l + 1 else l in
    if before dist heap.(c) s then begin
      place heap pos i heap.(c);
      sift_down heap pos dist size c s
    end
    else place heap pos i s
  end

(* Relax every link out of settled state [u] (in [phase]); returns the
   new heap size.  A strict [<] keeps the first relaxation among equal
   candidates. *)
let rec relax t dist pred u phase size = function
  | [] -> size
  | (v, link) :: rest ->
      let next = next_phase link phase in
      let size =
        if next < 0 then size
        else begin
          let s = (v * phases) + next in
          let d = dist.(u) +. Link.latency link in
          if d < dist.(s) then begin
            dist.(s) <- d;
            pred.(s) <- (Link.id link * phases) + phase;
            let i = t.heap_pos.(s) in
            if i >= 0 then begin
              sift_up t.heap t.heap_pos dist i s;
              size
            end
            else begin
              sift_up t.heap t.heap_pos dist size s;
              size + 1
            end
          end
          else size
        end
      in
      relax t dist pred u phase size rest

(* Dijkstra from [src] into [dist] and [pred].  Settling in (distance,
   state id) order with strict-[<] relaxation builds exactly the tree of
   an O(V^2) scan for the nearest unsettled state: same distances, same
   predecessors, same tie-breaks. *)
let dijkstra t src dist pred =
  let heap = t.heap and pos = t.heap_pos in
  Array.fill dist 0 (Array.length dist) infinity;
  Array.fill pred 0 (Array.length pred) (-1);
  let root = src * phases in
  dist.(root) <- 0.0;
  place heap pos 0 root;
  let size = ref 1 in
  while !size > 0 do
    let u = heap.(0) in
    size := !size - 1;
    if !size > 0 then sift_down heap pos dist !size 0 heap.(!size);
    pos.(u) <- -1;
    size := relax t dist pred u (u mod phases) !size t.adjacency.(u / phases)
  done

let ph_routing = Netsim.Prof.phase "routing"

(* Make [src]'s tree current.  Only a cold build enters the [routing]
   phase; a warm lookup stays in its caller's. *)
let ensure_tree t src =
  if t.stamps.(src) <> t.generation then begin
    Netsim.Prof.enter ph_routing;
    let states = t.node_count * phases in
    if Array.length t.dists.(src) <> states then begin
      t.dists.(src) <- Array.make states infinity;
      t.preds.(src) <- Array.make states (-1)
    end;
    if Array.length t.heap <> states then begin
      t.heap <- Array.make states 0;
      t.heap_pos <- Array.make states (-1)
    end;
    dijkstra t src t.dists.(src) t.preds.(src);
    t.stamps.(src) <- t.generation;
    Netsim.Prof.leave ph_routing
  end

(* The reachable state of [b] nearest the source, lowest phase on a tie,
   or -1.  A border router may not be reached through a sibling border
   (phase 2): traffic addressed to its RLOC arrives over its own uplink. *)
let best_state t dist b =
  let s0 = b * phases in
  let s = if dist.(s0 + 1) < dist.(s0) then s0 + 1 else s0 in
  let s =
    match t.nodes.(b).Node.kind with
    | Node.Border_router -> s
    | Node.Host | Node.Dns_server | Node.Pce | Node.Provider_core | Node.Hub ->
        if dist.(s0 + 2) < dist.(s) then s0 + 2 else s
  in
  if dist.(s) = infinity then -1 else s

(* [b]'s best state in [a]'s current tree; raises [Not_found] when
   unreachable. *)
let final_state t a b =
  ensure_tree t a;
  let s = best_state t t.dists.(a) b in
  if s < 0 then raise Not_found else s

let latency_between t a b =
  check_id t a "latency_between";
  check_id t b "latency_between";
  if a = b then 0.0
  else begin
    let s = final_state t a b in
    t.dists.(a).(s)
  end

let path_between t a b =
  check_id t a "path_between";
  check_id t b "path_between";
  if a = b then [ a ]
  else begin
    let final = final_state t a b in
    let pred = t.preds.(a) in
    let rec walk state acc =
      let node = state / phases in
      let packed = pred.(state) in
      if packed < 0 then node :: acc
      else
        let prev = Link.other_end t.link_by_id.(packed / phases) node in
        walk ((prev * phases) + (packed mod phases)) (node :: acc)
    in
    walk final []
  end

(* Charge the tree path into [state], walking back from [final]. *)
let rec charge t pred ~final ~bytes state =
  let packed = pred.(state) in
  if packed >= 0 then begin
    let link = t.link_by_id.(packed / phases) in
    let v = state / phases in
    let u = Link.other_end link v in
    Link.account link ~src:u ~bytes;
    (match t.telemetry with
    | Some tm ->
        Netsim.Telemetry.on_link tm ~link:(Link.id link)
          ~dir:(if u = Link.a link then 0 else 1) ~bytes;
        (* Interior hops transit [v]; endpoints are charged by the
           dataplane as tx/rx instead. *)
        if state <> final then Netsim.Telemetry.on_node_fwd tm ~node:v ~bytes
    | None -> ());
    charge t pred ~final ~bytes ((u * phases) + (packed mod phases))
  end

let account_path t ~src ~dst ~bytes =
  check_id t src "account_path";
  check_id t dst "account_path";
  if src <> dst then begin
    let final = final_state t src dst in
    charge t t.preds.(src) ~final ~bytes final
  end
