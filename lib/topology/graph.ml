type t = {
  mutable nodes : Node.t array;
  mutable node_count : int;
  mutable adjacency : (Node.id * Link.t) list array;
  mutable links : Link.t list;
  (* Per-source Dijkstra results: distance and predecessor arrays. *)
  sssp_cache : (Node.id, float array * int array) Hashtbl.t;
  mutable telemetry : Netsim.Telemetry.t option;
}

let dummy_node : Node.t = { id = -1; kind = Node.Host; label = "" }

let create () =
  { nodes = Array.make 16 dummy_node; node_count = 0;
    adjacency = Array.make 16 []; links = [];
    sssp_cache = Hashtbl.create 64; telemetry = None }

let grow t =
  let capacity = Array.length t.nodes in
  let nodes = Array.make (2 * capacity) dummy_node in
  Array.blit t.nodes 0 nodes 0 t.node_count;
  t.nodes <- nodes;
  let adjacency = Array.make (2 * capacity) [] in
  Array.blit t.adjacency 0 adjacency 0 t.node_count;
  t.adjacency <- adjacency

let add_node t ~kind ~label =
  if t.node_count = Array.length t.nodes then grow t;
  let id = t.node_count in
  t.nodes.(id) <- { Node.id; kind; label };
  t.node_count <- id + 1;
  id

let check_id t id fn =
  if id < 0 || id >= t.node_count then
    invalid_arg (Printf.sprintf "Graph.%s: unknown node %d" fn id)

let node t id =
  check_id t id "node";
  t.nodes.(id)

let node_count t = t.node_count
let invalidate_cache t = Hashtbl.reset t.sssp_cache

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
  (* Dense per-graph ids: [links] is newest first. *)
  let id = match t.links with l :: _ -> Link.id l + 1 | [] -> 0 in
  let link = Link.create ~id ~a ~b ~latency ?capacity_bps ?kind () in
  t.adjacency.(a) <- (b, link) :: t.adjacency.(a);
  t.adjacency.(b) <- (a, link) :: t.adjacency.(b);
  t.links <- link :: t.links;
  invalidate_cache t;
  link

let links t = t.links
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

(* Valley-free Dijkstra from [src].  The search state is (node, phase)
   with three phases:

     0 - still inside the source domain (only internal links used);
     1 - on external links (access / core);
     2 - inside the destination domain (internal links after external).

   Internal links keep phase 0, move 1 -> 2, and keep 2; external links
   move 0 -> 1, keep 1, and are forbidden from phase 2.  This is exactly
   "no domain transits traffic between two providers".  O(V^2) with the
   dense scan, fine at the simulated scales (a few hundred nodes). *)
let phases = 3

let dijkstra t src =
  let n = t.node_count in
  let dist = Array.make (n * phases) infinity in
  let pred = Array.make (n * phases) (-1) in
  let visited = Array.make (n * phases) false in
  dist.(src * phases) <- 0.0;
  let states = n * phases in
  for _ = 1 to states do
    let u = ref (-1) in
    let best = ref infinity in
    for v = 0 to states - 1 do
      if (not visited.(v)) && dist.(v) < !best then begin
        best := dist.(v);
        u := v
      end
    done;
    if !u >= 0 then begin
      visited.(!u) <- true;
      let node = !u / phases and phase = !u mod phases in
      List.iter
        (fun (v, link) ->
          let next_phase =
            if not (Link.is_up link) then None
            else
            match (Link.kind link, phase) with
            | Link.Internal, 0 -> Some 0
            | Link.Internal, (1 | 2) -> Some 2
            | Link.External, (0 | 1) -> Some 1
            | Link.External, 2 -> None
            | (Link.Internal | Link.External), _ -> None
          in
          match next_phase with
          | Some p ->
              let state = (v * phases) + p in
              let candidate = dist.(!u) +. Link.latency link in
              if candidate < dist.(state) then begin
                dist.(state) <- candidate;
                pred.(state) <- !u
              end
          | None -> ignore node)
        t.adjacency.(node)
    end
  done;
  (dist, pred)

let sssp t src =
  match Hashtbl.find_opt t.sssp_cache src with
  | Some r -> r
  | None ->
      let r = dijkstra t src in
      Hashtbl.replace t.sssp_cache src r;
      r

(* A border router may not be reached through a sibling border (phase
   2): traffic addressed to its RLOC arrives over its own uplink. *)
let allowed_phases t node =
  match t.nodes.(node).Node.kind with
  | Node.Border_router -> [ 0; 1 ]
  | Node.Host | Node.Dns_server | Node.Pce | Node.Provider_core | Node.Hub ->
      [ 0; 1; 2 ]

let best_state t dist b =
  List.fold_left
    (fun acc p ->
      let state = (b * phases) + p in
      match acc with
      | Some s when dist.(s) <= dist.(state) -> acc
      | Some _ | None -> if dist.(state) = infinity then acc else Some state)
    None (allowed_phases t b)

let latency_between t a b =
  check_id t a "latency_between";
  check_id t b "latency_between";
  if a = b then 0.0
  else begin
    let dist, _ = sssp t a in
    match best_state t dist b with
    | Some s -> dist.(s)
    | None -> raise Not_found
  end

let path_between t a b =
  check_id t a "path_between";
  check_id t b "path_between";
  if a = b then [ a ]
  else begin
    let dist, pred = sssp t a in
    match best_state t dist b with
    | None -> raise Not_found
    | Some final ->
        let rec walk state acc =
          let node = state / phases in
          if node = a && state mod phases = 0 then node :: acc
          else walk pred.(state) (node :: acc)
        in
        walk final []
  end

let account_path t ~src ~dst ~bytes =
  let path = path_between t src dst in
  let rec charge = function
    | u :: (v :: tail as rest) ->
        let link =
          match link_between t u v with Some l -> l | None -> assert false
        in
        Link.account link ~src:u ~bytes;
        (match t.telemetry with
        | Some tm ->
            Netsim.Telemetry.on_link tm ~link:(Link.id link)
              ~dir:(if u = Link.a link then 0 else 1) ~bytes;
            (* Interior hops transit [v]; endpoints are charged by the
               dataplane as tx/rx instead. *)
            if tail <> [] then Netsim.Telemetry.on_node_fwd tm ~node:v ~bytes
        | None -> ());
        charge rest
    | [ _ ] | [] -> ()
  in
  charge path
