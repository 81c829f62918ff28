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
  (* Repair scratch, made at the first repair: a list of the states a
     repair touches, its first [work_len] cells live, and whether each
     state is on a restore's list (all false between repairs). *)
  mutable work : int array;
  mutable work_len : int;
  mutable on_work : bool array;
  mutable telemetry : Netsim.Telemetry.t option;
  drops : Netsim.Drop.t;
}

let dummy_node : Node.t = { id = -1; kind = Node.Host; label = "" }

let create () =
  { nodes = Array.make 16 dummy_node; node_count = 0;
    adjacency = Array.make 16 []; link_by_id = [||]; link_count = 0;
    dists = Array.make 16 [||]; preds = Array.make 16 [||];
    stamps = Array.make 16 (-1); generation = 0; heap = [||];
    heap_pos = [||]; work = [||]; work_len = 0; on_work = [||];
    telemetry = None; drops = Netsim.Drop.create () }

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
let drops t = t.drops
let set_telemetry t plane = t.telemetry <- Some plane

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

(* Queue [s] at its lowered distance, or move it up if it is queued;
   returns the new heap size. *)
let push t dist size s =
  let i = t.heap_pos.(s) in
  if i >= 0 then begin
    sift_up t.heap t.heap_pos dist i s;
    size
  end
  else begin
    sift_up t.heap t.heap_pos dist size s;
    size + 1
  end

let add_work t s =
  t.work.(t.work_len) <- s;
  t.work_len <- t.work_len + 1

(* Put [s] on the repair work list, once. *)
let note t s =
  if not t.on_work.(s) then begin
    t.on_work.(s) <- true;
    add_work t s
  end

(* Relax [link] to node [v] from state [u] (in [phase]); returns the new
   heap size.  A strict [<] keeps the first relaxation among equal
   candidates.  With [record], a state that is lowered or offered exactly
   its distance goes on the work list: its predecessor may change. *)
let[@inline] relax_link t dist pred record u phase size v link =
  let next = next_phase link phase in
  if next < 0 then size
  else begin
    let s = (v * phases) + next in
    let d = dist.(u) +. Link.latency link in
    if d < dist.(s) then begin
      dist.(s) <- d;
      pred.(s) <- (Link.id link * phases) + phase;
      if record then note t s;
      push t dist size s
    end
    else begin
      if record && d = dist.(s) then note t s;
      size
    end
  end

(* Relax every link out of settled state [u]. *)
let rec relax t dist pred record u phase size = function
  | [] -> size
  | (v, link) :: rest ->
      relax t dist pred record u phase
        (relax_link t dist pred record u phase size v link)
        rest

(* Settle the [size] queued states in (distance, state id) order. *)
let rec settle t dist pred record size =
  if size > 0 then begin
    let u = t.heap.(0) in
    let size = size - 1 in
    if size > 0 then sift_down t.heap t.heap_pos dist size 0 t.heap.(size);
    t.heap_pos.(u) <- -1;
    settle t dist pred record
      (relax t dist pred record u (u mod phases) size t.adjacency.(u / phases))
  end

(* Dijkstra from [src] into [dist] and [pred].  Settling in (distance,
   state id) order with strict-[<] relaxation builds exactly the tree of
   an O(V^2) scan for the nearest unsettled state: same distances, same
   predecessors, same tie-breaks. *)
let dijkstra t src dist pred =
  Array.fill dist 0 (Array.length dist) infinity;
  Array.fill pred 0 (Array.length pred) (-1);
  let root = src * phases in
  dist.(root) <- 0.0;
  settle t dist pred false (push t dist 0 root)

(* The state a packed predecessor of a state at [node] names. *)
let pred_state t node packed =
  (Link.other_end t.link_by_id.(packed / phases) node * phases)
  + (packed mod phases)

(* Tree repair.  Because a build settles states in (distance, state id)
   order with strict-[<] relaxation and every latency is positive, a
   state's predecessor depends only on the final distances: among its
   in-neighbour states [u] with [dist u +. latency = dist s], the one
   with the smallest (dist u, u), which settles first.  A repair
   re-settles only the distances a link change moves, then gives every
   state it touched this predecessor, so the tree equals a build bit for
   bit. *)

(* That predecessor of finite-distance state [s], over in-links [links],
   packed as in [preds]; [best] is the best so far, or -1. *)
let rec tree_pred t dist s best = function
  | [] -> best
  | (v, link) :: rest ->
      let best = ref best in
      for q = 0 to phases - 1 do
        let u = (v * phases) + q in
        if next_phase link q = s mod phases
           && dist.(u) +. Link.latency link = dist.(s)
           && (!best < 0 || before dist u (pred_state t (s / phases) !best))
        then best := (Link.id link * phases) + q
      done;
      tree_pred t dist s !best rest

(* Give every state on the work list the predecessor a build would. *)
let repred t dist pred =
  for i = 0 to t.work_len - 1 do
    let s = t.work.(i) in
    pred.(s) <-
      (if dist.(s) < infinity then tree_pred t dist s (-1) t.adjacency.(s / phases)
       else -1)
  done

(* Put on the work list [node]'s states that link [id] leads into. *)
let add_cut_roots t pred id node =
  for p = 0 to phases - 1 do
    let s = (node * phases) + p in
    if pred.(s) >= 0 && pred.(s) / phases = id then add_work t s
  done

(* Put on the work list the tree children of a state in [phase] among
   the states its [links] lead into. *)
let rec add_children t pred phase = function
  | [] -> ()
  | (v, link) :: rest ->
      let next = next_phase link phase in
      if next >= 0 && pred.((v * phases) + next) = (Link.id link * phases) + phase
      then add_work t ((v * phases) + next);
      add_children t pred phase rest

(* Lower [s] to its best distance over [links] from the current ones. *)
let rec seed dist s = function
  | [] -> ()
  | (v, link) :: rest ->
      for q = 0 to phases - 1 do
        if next_phase link q = s mod phases then begin
          let d = dist.((v * phases) + q) +. Link.latency link in
          if d < dist.(s) then dist.(s) <- d
        end
      done;
      seed dist s rest

(* [link] went down.  Only the states below it in the tree move: they
   are reset, seeded from their in-neighbours (a reset one offers
   infinity) and re-settled.  Every other state keeps its distance and
   its predecessor. *)
let cut t dist pred link =
  add_cut_roots t pred (Link.id link) (Link.a link);
  add_cut_roots t pred (Link.id link) (Link.b link);
  (* The list grows as it is read: the subtrees below the roots. *)
  let i = ref 0 in
  while !i < t.work_len do
    let x = t.work.(!i) in
    add_children t pred (x mod phases) t.adjacency.(x / phases);
    incr i
  done;
  for i = 0 to t.work_len - 1 do
    dist.(t.work.(i)) <- infinity
  done;
  let size = ref 0 in
  for i = 0 to t.work_len - 1 do
    let s = t.work.(i) in
    seed dist s t.adjacency.(s / phases);
    if dist.(s) < infinity then size := push t dist !size s
  done;
  settle t dist pred false !size;
  repred t dist pred;
  t.work_len <- 0

(* [link] came up.  A decrease-only Dijkstra from both of its ends
   lowers what it shortens; a state it lowers or offers exactly its
   distance may change predecessor. *)
let restore t dist pred link =
  let a = Link.a link and b = Link.b link in
  let size = ref 0 in
  for q = 0 to phases - 1 do
    if dist.((a * phases) + q) < infinity then
      size := relax_link t dist pred true ((a * phases) + q) q !size b link;
    if dist.((b * phases) + q) < infinity then
      size := relax_link t dist pred true ((b * phases) + q) q !size a link
  done;
  settle t dist pred true !size;
  repred t dist pred;
  for i = 0 to t.work_len - 1 do
    t.on_work.(t.work.(i)) <- false
  done;
  t.work_len <- 0

let ph_routing = Netsim.Prof.phase "routing"

(* Make [src]'s tree current.  A cold build enters the [routing] phase;
   a warm lookup stays in its caller's. *)
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

(* Repair every current tree in place, in the [routing] phase; a
   dropped tree stays dropped. *)
let set_link_up t link up =
  if Link.is_up link <> up then begin
    Link.set_up_internal link up;
    Netsim.Prof.enter ph_routing;
    for src = 0 to t.node_count - 1 do
      if t.stamps.(src) = t.generation then begin
        if Array.length t.work <> Array.length t.heap then begin
          t.work <- Array.make (Array.length t.heap) 0;
          t.on_work <- Array.make (Array.length t.heap) false
        end;
        if up then restore t t.dists.(src) t.preds.(src) link
        else cut t t.dists.(src) t.preds.(src) link
      end
    done;
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
      if packed < 0 then node :: acc else walk (pred_state t node packed) (node :: acc)
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
