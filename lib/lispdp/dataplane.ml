open Nettypes

type router = {
  border : Topology.Domain.border;
  router_domain : Topology.Domain.t;
  cache : Map_cache.t;
  flows : Flow_table.t;
}

type miss_decision = Miss_drop of Netsim.Drop.cause | Miss_hold

type control_plane = {
  cp_name : string;
  cp_choose_egress :
    src_domain:Topology.Domain.t -> Flow.t -> Topology.Domain.border;
  cp_handle_miss : router -> Packet.t -> miss_decision;
  cp_note_etr_packet : router -> outer_src:Ipv4.addr option -> Packet.t -> unit;
}

type counters = {
  mutable sent : int;
  mutable delivered : int;
  mutable dropped : int;
  mutable held : int;
  mutable encapsulated : int;
  mutable decapsulated : int;
  mutable intra_domain : int;
  mutable delivered_bytes : int;
}

type t = {
  engine : Netsim.Engine.t;
  internet : Topology.Builder.t;
  control_plane : control_plane;
  routers : router array array; (* indexed by domain id, then border index *)
  receivers : (Packet.t -> unit) option Int_table.t;
      (* EID -> [Some host callback], made when the callback is set *)
  obs : Obs.Hub.t;
  counters : counters;
}

let internet t = t.internet
let control_plane t = t.control_plane
let counters t = t.counters
let graph t = t.internet.Topology.Builder.graph

let create ~engine ~internet ~control_plane ?(cache_capacity = 10_000)
    ?(cache_policy = Map_cache.Lru) ?glean_cap ?(flow_ttl = 300.0) ?obs () =
  let obs = Obs.Hub.or_disabled ~engine obs in
  let routers =
    Array.map
      (fun domain ->
        Array.map
          (fun border ->
            { border; router_domain = domain;
              cache =
                Map_cache.create ~policy:cache_policy
                  ~capacity:cache_capacity ?glean_cap ();
              flows = Flow_table.create ~ttl:flow_ttl () })
          domain.Topology.Domain.borders)
      internet.Topology.Builder.domains
  in
  let t =
    { engine; internet; control_plane; routers;
      receivers = Int_table.create ~dummy:None (); obs;
      counters =
        { sent = 0; delivered = 0; dropped = 0; held = 0; encapsulated = 0;
          decapsulated = 0; intra_domain = 0; delivered_bytes = 0 } }
  in
  Array.iter
    (Array.iter (fun r ->
         let emit_death mapping =
           if Obs.Hub.enabled obs then
             Obs.Hub.emit obs
               ~actor:(r.router_domain.Topology.Domain.name ^ "-itr")
               (Obs.Event.Cache_evict { prefix = mapping.Mapping.eid_prefix })
         in
         Map_cache.set_evict_hook r.cache (Some emit_death);
         Map_cache.set_expire_hook r.cache (Some emit_death);
         (* Admission rejections are control-plane refusals, not packet
            deaths: they go to the drop ledger and the event stream but
            never through [record_drop] (the packet itself was delivered
            normally — only its gleaned copy was refused). *)
         let node = r.border.Topology.Domain.router in
         let on_reject mapping =
           Netsim.Drop.record (Topology.Graph.drops (graph t)) ~node
             Netsim.Drop.Glean_admission_rejected;
           if Obs.Hub.enabled obs then
             Obs.Hub.emit obs
               ~actor:(r.router_domain.Topology.Domain.name ^ "-etr")
               (Obs.Event.Glean_rejected
                  { eid = Ipv4.prefix_network mapping.Mapping.eid_prefix })
         in
         Map_cache.set_reject_hook r.cache (Some on_reject)))
    routers;
  t

let routers_of_domain t domain = t.routers.(domain.Topology.Domain.id)

(* Routers are found through the internet's RLOC index, which gives the
   (domain, border index) their array is laid out by. *)
let router_of_rloc t rloc =
  match Topology.Builder.border_of_rloc t.internet rloc with
  | Some (domain, i) -> Some t.routers.(domain.Topology.Domain.id).(i)
  | None -> None

let router_for_border t border =
  match Topology.Builder.border_of_rloc t.internet border.Topology.Domain.rloc with
  | Some (domain, i) -> t.routers.(domain.Topology.Domain.id).(i)
  | None -> invalid_arg "Dataplane.router_for_border: unknown border"

let install_mapping t router ?provenance mapping =
  Map_cache.insert router.cache ~now:(Netsim.Engine.now t.engine) ?provenance
    mapping

let install_mapping_all t domain mapping =
  Array.iter (fun r -> install_mapping t r mapping) (routers_of_domain t domain)

let install_flow_entry t router entry =
  Flow_table.install router.flows ~now:(Netsim.Engine.now t.engine) entry

let install_flow_entry_all t domain entry =
  Array.iter (fun r -> install_flow_entry t r entry) (routers_of_domain t domain)

let set_host_receiver t eid receiver =
  match receiver with
  | Some _ -> Int_table.add t.receivers (Ipv4.addr_to_int eid) receiver
  | None -> Int_table.remove t.receivers (Ipv4.addr_to_int eid)

(* The single choke point for packet deaths: every drop carries a typed
   cause and, when attributable, the node it died at, and goes to the
   graph's drop ledger.  The [Packet_drop] event carries the cause's
   label. *)
let record_drop t ?packet ?(node = -1) cause =
  t.counters.dropped <- t.counters.dropped + 1;
  Netsim.Drop.record (Topology.Graph.drops (graph t)) ~node cause;
  (match Topology.Graph.telemetry (graph t) with
  | Some tm -> Netsim.Telemetry.touch tm ~now:(Netsim.Engine.now t.engine)
  | None -> ());
  if Obs.Hub.enabled t.obs then
    Obs.Hub.emit t.obs ~actor:"dp"
      ?flow:(Option.map (fun p -> Obs.Event.flow_id p.Packet.flow) packet)
      (Obs.Event.Packet_drop { cause = Netsim.Drop.label cause })

(* A control plane gave up on packets it had answered [Miss_hold] for:
   they leave the simulation here so abandoned hold queues show up in
   drop accounting instead of leaking. *)
let drop_held t ?node packet ~cause = record_drop t ~packet ?node cause

let drop_causes t =
  List.filter_map
    (fun (cause, n) ->
      if Netsim.Drop.is_packet cause then Some (Netsim.Drop.label cause, n)
      else None)
    (Netsim.Drop.totals (Topology.Graph.drops (graph t)))

(* Packet movement and delivery run under the "dataplane" profiler
   phase; calls into the pluggable control plane (miss handling, ETR
   packet notes) are charged to "map_resolution" so cache-miss cost
   separates from pure forwarding in the self-profile. *)
let ph_dp = Netsim.Prof.phase "dataplane"
let ph_map = Netsim.Prof.phase "map_resolution"

(* Move [packet] from node [src] to node [dst]: charge the links on the
   shortest path and invoke [k] after the path latency.  If link
   failures have disconnected the endpoints the packet is dropped under
   [No_route]. *)
let wire t ~src ~dst packet k =
  if src = dst then k ()
  else begin
    let g = graph t in
    match Topology.Graph.latency_between g src dst with
    | latency ->
        (match Topology.Graph.telemetry g with
        | Some tm -> Netsim.Telemetry.touch tm ~now:(Netsim.Engine.now t.engine)
        | None -> ());
        Topology.Graph.account_path g ~src ~dst ~bytes:(Packet.size packet);
        ignore
          (Netsim.Engine.schedule t.engine ~delay:latency
             (Netsim.Prof.wrap ph_dp k))
    | exception Not_found ->
        record_drop t ~packet ~node:src Netsim.Drop.No_route
  end

(* The node of the host that owns [eid], or -1. *)
let host_node_of_eid t eid =
  match Topology.Builder.domain_of_eid t.internet eid with
  | None -> -1
  | Some domain ->
      let i = Topology.Domain.host_index domain eid in
      if i < 0 then -1 else domain.Topology.Domain.hosts.(i)

(* Final hop: packet is at [router]'s node (or directly at the domain
   edge) and must reach the host owning its destination EID. *)
let deliver_to_host t ~from_node packet =
  let dst_eid = packet.Packet.flow.Flow.dst in
  match host_node_of_eid t dst_eid with
  | -1 -> record_drop t ~packet ~node:from_node Netsim.Drop.No_such_eid
  | host_node ->
      wire t ~src:from_node ~dst:host_node packet (fun () ->
          match
            Int_table.find_or t.receivers (Ipv4.addr_to_int dst_eid)
              ~default:None
          with
          | Some receiver ->
              t.counters.delivered <- t.counters.delivered + 1;
              t.counters.delivered_bytes <-
                t.counters.delivered_bytes + Packet.size packet;
              (match Topology.Graph.telemetry (graph t) with
              | Some tm ->
                  Netsim.Telemetry.on_node_rx tm ~node:host_node
                    ~bytes:(Packet.size packet)
              | None -> ());
              receiver packet
          | None ->
              record_drop t ~packet ~node:host_node
                Netsim.Drop.No_receiver)

(* A packet arrived at a border router from the core side. *)
let etr_receive t router packet =
  let inner, outer_src =
    if Packet.is_encapsulated packet then begin
      t.counters.decapsulated <- t.counters.decapsulated + 1;
      let outer =
        match packet.Packet.encap with Some e -> e | None -> assert false
      in
      (Packet.decapsulate packet, Some outer.Packet.outer_src)
    end
    else (packet, None)
  in
  (match outer_src with
  | Some outer_src when Obs.Hub.enabled t.obs ->
      Obs.Hub.emit t.obs
        ~actor:(router.router_domain.Topology.Domain.name ^ "-etr")
        ~flow:(Obs.Event.flow_id inner.Packet.flow)
        (Obs.Event.Decap { outer_src })
  | Some _ | None -> ());
  Netsim.Prof.enter ph_map;
  t.control_plane.cp_note_etr_packet router ~outer_src inner;
  Netsim.Prof.leave ph_map;
  deliver_to_host t ~from_node:router.border.Topology.Domain.router inner

let deliver_via t router packet ~extra_delay =
  if extra_delay < 0.0 then invalid_arg "Dataplane.deliver_via: negative delay";
  ignore
    (Netsim.Engine.schedule t.engine ~delay:extra_delay
       (Netsim.Prof.wrap ph_dp (fun () -> etr_receive t router packet)))

(* Tunnel [packet] from ITR [router] using the given outer header. *)
let tunnel t router packet ~outer_src ~outer_dst =
  let router_node = router.border.Topology.Domain.router in
  match Topology.Builder.border_of_rloc t.internet outer_dst with
  | None ->
      record_drop t ~packet ~node:router_node Netsim.Drop.No_such_rloc
  | Some (domain, i) ->
      let remote = t.routers.(domain.Topology.Domain.id).(i) in
      if not (Topology.Link.is_up remote.border.Topology.Domain.uplink) then
        (* The RLOC's access link is down: inter-domain routing has no
           path to this locator. *)
        record_drop t ~packet ~node:router_node Netsim.Drop.Rloc_unreachable
      else begin
        let encapsulated = Packet.encapsulate packet ~outer_src ~outer_dst in
        t.counters.encapsulated <- t.counters.encapsulated + 1;
        if Obs.Hub.enabled t.obs then
          Obs.Hub.emit t.obs
            ~actor:(router.router_domain.Topology.Domain.name ^ "-itr")
            ~flow:(Obs.Event.flow_id packet.Packet.flow)
            (Obs.Event.Encap { outer_src; outer_dst });
        wire t ~src:router_node ~dst:remote.border.Topology.Domain.router
          encapsulated (fun () -> etr_receive t remote encapsulated)
      end

(* Mapping lookup at an ITR: per-flow entry first (PCE tuples, which may
   impose a foreign source RLOC), then the LISP map-cache.  On a hit the
   packet is tunnelled and the result is [true]; a miss tunnels
   nothing. *)
let tunnel_if_mapped t router ~now packet =
  let flow = packet.Packet.flow in
  match
    Flow_table.lookup router.flows ~now ~src_eid:flow.Flow.src
      ~dst_eid:flow.Flow.dst
  with
  | Some entry ->
      tunnel t router packet ~outer_src:entry.Mapping.src_rloc
        ~outer_dst:entry.Mapping.dst_rloc;
      true
  | None -> (
      match Map_cache.lookup router.cache ~now flow.Flow.dst with
      | Some mapping ->
          if Obs.Hub.enabled t.obs then
            Obs.Hub.emit t.obs
              ~actor:(router.router_domain.Topology.Domain.name ^ "-itr")
              ~flow:(Obs.Event.flow_id flow)
              (Obs.Event.Cache_hit { eid = flow.Flow.dst });
          let r = Mapping.select_rloc mapping ~hash:(Flow.hash flow) in
          tunnel t router packet ~outer_src:router.border.Topology.Domain.rloc
            ~outer_dst:r.Mapping.rloc_addr;
          true
      | None ->
          if Obs.Hub.enabled t.obs then
            Obs.Hub.emit t.obs
              ~actor:(router.router_domain.Topology.Domain.name ^ "-itr")
              ~flow:(Obs.Event.flow_id flow)
              (Obs.Event.Cache_miss { eid = flow.Flow.dst });
          false)

let itr_process t router packet =
  let now = Netsim.Engine.now t.engine in
  if not (tunnel_if_mapped t router ~now packet) then begin
    Netsim.Prof.enter ph_map;
    let decision = t.control_plane.cp_handle_miss router packet in
    Netsim.Prof.leave ph_map;
    match decision with
    | Miss_drop cause ->
        record_drop t ~packet ~node:router.border.Topology.Domain.router cause
    | Miss_hold -> t.counters.held <- t.counters.held + 1
  end

let transmit_from_itr t router packet =
  let now = Netsim.Engine.now t.engine in
  if not (tunnel_if_mapped t router ~now packet) then
    record_drop t ~packet ~node:router.border.Topology.Domain.router
      Netsim.Drop.Post_resolution_miss

let send_from_host t packet =
  let flow = packet.Packet.flow in
  match Topology.Builder.domain_of_eid t.internet flow.Flow.src with
  | None -> invalid_arg "Dataplane.send_from_host: unknown source EID"
  | Some src_domain ->
      t.counters.sent <- t.counters.sent + 1;
      let src_host = Topology.Domain.host_index src_domain flow.Flow.src in
      if src_host < 0 then
        invalid_arg "Dataplane.send_from_host: source EID is not a host";
      let src_node = src_domain.Topology.Domain.hosts.(src_host) in
      (match Topology.Graph.telemetry (graph t) with
      | Some tm ->
          Netsim.Telemetry.touch tm ~now:(Netsim.Engine.now t.engine);
          Netsim.Telemetry.on_node_tx tm ~node:src_node
            ~bytes:(Packet.size packet);
          Netsim.Telemetry.on_flow_packet tm
            ~eid:(Ipv4.addr_to_int flow.Flow.dst)
            ~flow:(Obs.Event.flow_id flow)
      | None -> ());
      if Topology.Domain.owns_eid src_domain flow.Flow.dst then begin
        (* Intra-domain traffic never touches LISP. *)
        t.counters.intra_domain <- t.counters.intra_domain + 1;
        deliver_to_host t ~from_node:src_node packet
      end
      else begin
        let border = t.control_plane.cp_choose_egress ~src_domain flow in
        let router = router_for_border t border in
        wire t ~src:src_node ~dst:border.Topology.Domain.router packet
          (fun () -> itr_process t router packet)
      end

let cache_stats_totals t =
  let acc =
    { Map_cache.hits = 0; misses = 0; insertions = 0; evictions = 0;
      expirations = 0; invalidations = 0; glean_rejections = 0 }
  in
  Array.iter
    (Array.iter (fun r ->
         let s = Map_cache.stats r.cache in
         acc.Map_cache.hits <- acc.Map_cache.hits + s.Map_cache.hits;
         acc.Map_cache.misses <- acc.Map_cache.misses + s.Map_cache.misses;
         acc.Map_cache.insertions <- acc.Map_cache.insertions + s.Map_cache.insertions;
         acc.Map_cache.evictions <- acc.Map_cache.evictions + s.Map_cache.evictions;
         acc.Map_cache.expirations <- acc.Map_cache.expirations + s.Map_cache.expirations;
         acc.Map_cache.invalidations <-
           acc.Map_cache.invalidations + s.Map_cache.invalidations;
         acc.Map_cache.glean_rejections <-
           acc.Map_cache.glean_rejections + s.Map_cache.glean_rejections))
    t.routers;
  acc

let flow_entries_total t =
  let now = Netsim.Engine.now t.engine in
  let total = ref 0 in
  Array.iter
    (Array.iter (fun r -> total := !total + Flow_table.length r.flows ~now))
    t.routers;
  !total

let cache_entries_total t =
  let total = ref 0 in
  Array.iter
    (Array.iter (fun r -> total := !total + Map_cache.length r.cache))
    t.routers;
  !total

let gleaned_total t =
  let total = ref 0 in
  Array.iter
    (Array.iter (fun r -> total := !total + Map_cache.gleaned r.cache))
    t.routers;
  !total
