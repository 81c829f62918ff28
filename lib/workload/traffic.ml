open Nettypes

type popularity =
  | Zipf of Netsim.Rng.Zipf.dist
  | Hotspots of { ids : int array; cumulative : float array }

type t = {
  rng : Netsim.Rng.t;
  internet : Topology.Builder.t;
  popularity : popularity;
  mutable next_src_port : int;
  mutable next_dst_port : int;
}

let create ~rng ~internet ?(zipf_alpha = 0.9) ?hotspots () =
  let n = Array.length internet.Topology.Builder.domains in
  let popularity =
    match hotspots with
    | Some weights when weights <> [] ->
        let ids = Array.of_list (List.map fst weights) in
        Array.iter
          (fun id ->
            if id < 0 || id >= n then invalid_arg "Traffic.create: bad hotspot id")
          ids;
        let raw = Array.of_list (List.map snd weights) in
        let total = Array.fold_left ( +. ) 0.0 raw in
        if total <= 0.0 then invalid_arg "Traffic.create: hotspot weights sum to 0";
        let cumulative = Array.make (Array.length raw) 0.0 in
        let acc = ref 0.0 in
        Array.iteri
          (fun i w ->
            acc := !acc +. (w /. total);
            cumulative.(i) <- !acc)
          raw;
        Hotspots { ids; cumulative }
    | Some _ | None -> Zipf (Netsim.Rng.Zipf.create ~n ~alpha:zipf_alpha)
  in
  { rng; internet; popularity; next_src_port = 1024; next_dst_port = 80 }

(* Source ports march through [1024, 65535] (the ephemeral range; also
   the range [Wire.Buf.Writer.u16] can encode).  A run beyond the ~64k
   ports in that range wraps the source port and steps the destination
   port instead, so the full (src, dst, src_port, dst_port) tuple stays
   unique for ~4 billion flows rather than colliding — or overflowing
   u16 — after 64512. *)
let next_ports t =
  let src = t.next_src_port + 1 in
  if src > 65535 then begin
    t.next_src_port <- 1024;
    t.next_dst_port <-
      (if t.next_dst_port >= 65535 then 80 else t.next_dst_port + 1);
    (1024, t.next_dst_port)
  end
  else begin
    t.next_src_port <- src;
    (src, t.next_dst_port)
  end

(* Popularity rank r corresponds to domain id r: domain 0 is the most
   popular destination of a Zipf workload. *)
let destination_rank t rank =
  rank mod Array.length t.internet.Topology.Builder.domains

let draw_destination t =
  match t.popularity with
  | Zipf dist -> destination_rank t (Netsim.Rng.Zipf.sample dist t.rng)
  | Hotspots { ids; cumulative } ->
      let u = Netsim.Rng.float t.rng in
      (* Least index whose cumulative weight exceeds [u] (the last one
         when rounding left the total just below 1), found by bisection
         rather than a linear scan — hotspot lists are small today, but
         the TE experiments sweep them wider at scale. *)
      let rec search lo hi =
        if lo >= hi then lo
        else
          let mid = (lo + hi) / 2 in
          if cumulative.(mid) > u then search lo mid else search (mid + 1) hi
      in
      ids.(search 0 (Array.length cumulative - 1))

let random_flow t ?src_domain ?dst_domain () =
  let domains = t.internet.Topology.Builder.domains in
  let n = Array.length domains in
  if n < 2 then invalid_arg "Traffic.random_flow: need at least two domains";
  let src_id =
    match src_domain with Some i -> i | None -> Netsim.Rng.int t.rng n
  in
  let dst_id =
    match dst_domain with
    | Some i -> i
    | None ->
        let rec draw attempts =
          let candidate = draw_destination t in
          if candidate <> src_id then candidate
          else if attempts > 16 then (src_id + 1) mod n
          else draw (attempts + 1)
        in
        draw 0
  in
  if src_id = dst_id then invalid_arg "Traffic.random_flow: src = dst domain";
  let src_dom = domains.(src_id) and dst_dom = domains.(dst_id) in
  let src_host = Netsim.Rng.int t.rng (Array.length src_dom.Topology.Domain.hosts) in
  let dst_host = Netsim.Rng.int t.rng (Array.length dst_dom.Topology.Domain.hosts) in
  let src_port, dst_port = next_ports t in
  Flow.create
    ~src:(Topology.Domain.host_eid src_dom src_host)
    ~dst:(Topology.Domain.host_eid dst_dom dst_host)
    ~src_port ~dst_port ()
