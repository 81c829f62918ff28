open Nettypes

type mode = Drop_while_pending | Queue_while_pending of int | Detour_via_cp

let mode_name = function
  | Drop_while_pending -> "pull-drop"
  | Queue_while_pending _ -> "pull-queue"
  | Detour_via_cp -> "pull-detour"

type auth = {
  nonce_check : bool;
  signatures : bool;
  sig_cpu_cost : float;
}

let no_auth =
  { nonce_check = false; signatures = false;
    sig_cpu_cost = Wire.Auth.default_sig_cpu_cost }

(* Any class-E address: never a registered RLOC, so traffic tunneled to
   a forged mapping blackholes under the [No_such_rloc] drop cause. *)
let attacker_rloc = Ipv4.addr_of_int 0xF000_0042

(* One in-flight resolution: an ITR (identified by its router node)
   waiting for the mapping of a destination domain.  The key it was
   inserted under is stored so every removal path uses the same one. *)
type resolution = {
  key : int * int;
  mutable queued : Packet.t list; (* newest first *)
  mutable queued_len : int; (* |queued|, kept for an O(1) overflow check *)
  mutable attempts : int; (* map-requests sent, including retransmissions *)
  mutable timer : Netsim.Engine.handle option; (* armed retry timer *)
  mutable abandoned : bool;
}

type t = {
  engine : Netsim.Engine.t;
  internet : Topology.Builder.t;
  registry : Registry.t;
  alt : Alt.t;
  mode : mode;
  name : string;
  latency_of : src:int -> dst:int -> float;
  resolution_latency :
    (router:Lispdp.Dataplane.router -> dst_domain:Topology.Domain.t -> float)
    option;
  stats : Cp_stats.t;
  glean : Glean.t;
  pending : (int * int, resolution) Hashtbl.t; (* router node, dst domain *)
  smr : bool;
  faults : Netsim.Faults.t option;
  retry : Netsim.Faults.retry option;
  lifecycle : Netsim.Lifecycle.t option;
  (* Which remote ITRs (by RLOC) cache each domain's mapping — learned
     from the tunnel headers at the domain's ETRs, used by SMR. *)
  cached_at : (int, (int, unit) Hashtbl.t) Hashtbl.t;
  nonces : Nonce.t;
  adversary : Netsim.Adversary.t option;
  auth : auth;
  mutable dataplane : Lispdp.Dataplane.t option;
  obs : Obs.Hub.t;
}

(* Lifetime of a gleaned host route, and the map-request processing
   time at the answering server. *)
let glean_ttl = 60.0
let server_processing = 0.0005

let create ~engine ~internet ~registry ~alt ~mode ?name ?latency_of
    ?resolution_latency ?(smr = false) ?faults ?retry ?lifecycle ?nonce_rng
    ?adversary ?(auth = no_auth) ?glean_cap ?obs () =
  let latency_of =
    match latency_of with
    | Some f -> f
    | None -> fun ~src ~dst -> Alt.request_latency alt ~src ~dst
  in
  { engine; internet; registry; alt; mode;
    name = Option.value name ~default:(mode_name mode);
    latency_of; resolution_latency; smr;
    faults; retry; lifecycle; cached_at = Hashtbl.create 16;
    stats = Cp_stats.create ();
    glean = Glean.create ?cap:glean_cap (); pending = Hashtbl.create 64;
    nonces = Nonce.create ?rng:nonce_rng (); adversary; auth;
    dataplane = None; obs = Obs.Hub.or_disabled ~engine obs }

(* Asynchronous resolution work — map-reply arrivals, retry timers,
   SMR propagation — is charged to the shared "map_resolution" phase
   (the dataplane charges its synchronous calls into this control
   plane to the same phase). *)
let ph_map = Netsim.Prof.phase "map_resolution"

let attach t dataplane =
  match t.dataplane with
  | Some _ -> invalid_arg "Pull.attach: already attached"
  | None -> t.dataplane <- Some dataplane

let dataplane_exn t =
  match t.dataplane with
  | Some dp -> dp
  | None -> invalid_arg "Pull: control plane used before attach"

let stats t = t.stats
let drops t = Topology.Graph.drops t.internet.Topology.Builder.graph
let pending_resolutions t = Hashtbl.length t.pending

let choose_egress t ~src_domain flow =
  let borders = src_domain.Topology.Domain.borders in
  match
    Glean.lookup t.glean ~domain:src_domain.Topology.Domain.id
      ~remote_eid:flow.Flow.dst
  with
  | Some border -> border (* symmetric return through the forward ETR *)
  | None -> borders.(Flow.hash flow mod Array.length borders)

(* The map-reply source: the destination's authoritative ETR. *)
let authoritative_router t mapping =
  let rloc = Registry.authoritative_rloc mapping in
  match Topology.Builder.border_of_rloc t.internet rloc with
  | Some (domain, i) -> domain.Topology.Domain.borders.(i)
  | None -> invalid_arg "Pull: registry RLOC has no border router"

let cancel_timer t resolution =
  match resolution.timer with
  | Some handle ->
      Netsim.Engine.cancel t.engine handle;
      resolution.timer <- None
  | None -> ()

(* Give up: remove the resolution and drain anything it held as counted
   drops — the pre-fix behaviour left such packets held forever. *)
let abandon t resolution ~cause =
  if not resolution.abandoned then begin
    resolution.abandoned <- true;
    cancel_timer t resolution;
    Hashtbl.remove t.pending resolution.key;
    let queued = List.rev resolution.queued in
    resolution.queued <- [];
    resolution.queued_len <- 0;
    match queued with
    | [] -> ()
    | _ :: _ ->
        let dp = dataplane_exn t in
        let node, _ = resolution.key in
        List.iter
          (fun p -> Lispdp.Dataplane.drop_held dp ~node p ~cause)
          queued
  end

let complete t resolution router =
  cancel_timer t resolution;
  Hashtbl.remove t.pending resolution.key;
  t.stats.Cp_stats.resolutions <- t.stats.Cp_stats.resolutions + 1;
  let dp = dataplane_exn t in
  let queued = List.rev resolution.queued in
  resolution.queued <- [];
  resolution.queued_len <- 0;
  List.iter (Lispdp.Dataplane.transmit_from_itr dp router) queued

(* The requesting ITR as an event actor, built only for an enabled
   hub. *)
let itr_actor router =
  (router.Lispdp.Dataplane.router_domain).Topology.Domain.name ^ "-itr"

(* One transmission of the map-request (initial or retransmitted).  The
   path latency is recomputed per attempt so a retransmission succeeds
   once a partition heals; the fault model is consulted for both the
   request and the reply leg at send time. *)
let rec send_attempt t resolution router dst_domain mapping ~flow () =
  let dp = dataplane_exn t in
  resolution.attempts <- resolution.attempts + 1;
  let src_id = (router.Lispdp.Dataplane.router_domain).Topology.Domain.id in
  let dst_id = dst_domain.Topology.Domain.id in
  let nonce = Nonce.fresh t.nonces in
  let request_eid =
    Ipv4.prefix_network
      (Registry.mapping_of_domain t.registry dst_id).Mapping.eid_prefix
  in
  let request =
    Wire.Codec.Map_request
      { nonce;
        source_rloc = router.Lispdp.Dataplane.border.Topology.Domain.rloc;
        eid = request_eid }
  in
  t.stats.Cp_stats.map_requests <- t.stats.Cp_stats.map_requests + 1;
  t.stats.Cp_stats.control_bytes <-
    t.stats.Cp_stats.control_bytes + Wire.Codec.size request;
  if Obs.Hub.enabled t.obs then
    Obs.Hub.emit t.obs ~actor:(itr_actor router) ?flow
      (Obs.Event.Map_request { eid = request_eid });
  Alt.note_request t.alt ~src:src_id ~dst:dst_id;
  let total =
    match t.resolution_latency with
    | Some f -> f ~router ~dst_domain +. server_processing
    | None ->
        let request_latency = t.latency_of ~src:src_id ~dst:dst_id in
        let authoritative = authoritative_router t mapping in
        let graph = t.internet.Topology.Builder.graph in
        let requester = router.Lispdp.Dataplane.border.Topology.Domain.router in
        let reply_latency =
          match
            Topology.Graph.latency_between graph
              authoritative.Topology.Domain.router requester
          with
          | latency -> latency
          | exception Not_found -> (
              (* The requesting ITR's own uplink is down: the reply is
                 routed to the domain (any live uplink) and forwarded
                 internally. *)
              let hub =
                (router.Lispdp.Dataplane.router_domain).Topology.Domain.hub
              in
              match
                Topology.Graph.latency_between graph
                  authoritative.Topology.Domain.router hub
              with
              | to_hub ->
                  to_hub +. Topology.Graph.latency_between graph hub requester
              | exception Not_found -> infinity)
        in
        request_latency +. server_processing +. reply_latency
  in
  (* Lifecycle windows are consulted before any fault draw so that a
     run whose crash schedule is empty takes exactly the same RNG
     stream as one with no lifecycle at all. *)
  let server_down =
    match t.lifecycle with
    | Some lc when total < infinity ->
        Netsim.Lifecycle.is_down lc ~role:Netsim.Lifecycle.Map_server
          ~now:(Netsim.Engine.now t.engine)
    | Some _ | None -> false
  in
  if server_down && Obs.Hub.enabled t.obs then
    Obs.Hub.emit t.obs ~actor:(itr_actor router) ?flow
      (Obs.Event.Cp_loss { message = "map-server-down" });
  let lost =
    if server_down then true
    else match t.faults with
    | Some faults when total < infinity ->
        let now = Netsim.Engine.now t.engine in
        if Netsim.Faults.drops_message faults ~now ~src:src_id ~dst:dst_id
        then begin
          if Obs.Hub.enabled t.obs then
            Obs.Hub.emit t.obs ~actor:(itr_actor router) ?flow
              (Obs.Event.Cp_loss { message = "map-request" });
          true
        end
        else if
          Netsim.Faults.drops_message faults ~now ~src:dst_id ~dst:src_id
        then begin
          if Obs.Hub.enabled t.obs then
            Obs.Hub.emit t.obs ~actor:(itr_actor router) ?flow
              (Obs.Event.Cp_loss { message = "map-reply" });
          true
        end
        else false
    | Some _ | None -> false
  in
  (* Off-path attacker: races the resolution with forged or replayed
     replies.  Draws happen only when the corresponding rate is
     positive, and only against a request whose reply path exists (an
     infinite [total] means the attacker has nothing to race). *)
  (match t.adversary with
  | Some adv when total < infinity ->
      let node = router.Lispdp.Dataplane.border.Topology.Domain.router in
      let race_delay =
        Float.max 0.0 (total -. Netsim.Adversary.spoof_head_start adv)
      in
      if Netsim.Adversary.forges_reply adv then begin
        (* The attacker never saw the request: it guesses the nonce and
           cannot produce a valid signature. *)
        let guessed = Netsim.Adversary.guess_nonce adv in
        ignore
          (Netsim.Engine.schedule t.engine ~delay:race_delay
             (Netsim.Prof.wrap ph_map (fun () ->
               let accepted =
                 ((not t.auth.nonce_check) || guessed = nonce)
                 && not t.auth.signatures
               in
               if Obs.Hub.enabled t.obs then
                 Obs.Hub.emit t.obs ~actor:(itr_actor router) ?flow
                   (Obs.Event.Spoofed_reply { eid = request_eid; accepted });
               if accepted then begin
                 t.stats.Cp_stats.spoofed_accepted <-
                   t.stats.Cp_stats.spoofed_accepted + 1;
                 let forged =
                   Mapping.create ~eid_prefix:mapping.Mapping.eid_prefix
                     ~rlocs:[ Mapping.rloc attacker_rloc ]
                     ~ttl:mapping.Mapping.ttl
                 in
                 Lispdp.Dataplane.install_mapping dp router forged;
                 match Hashtbl.find_opt t.pending resolution.key with
                 | Some r when r == resolution -> complete t resolution router
                 | Some _ | None -> ()
               end
               else begin
                 t.stats.Cp_stats.spoofed_rejected <-
                   t.stats.Cp_stats.spoofed_rejected + 1;
                 Netsim.Drop.record (drops t) ~node
                   Netsim.Drop.Spoofed_reply_rejected
               end)))
      end;
      if Netsim.Adversary.replays_reply adv then
        (* A captured earlier genuine reply: the signature verifies, so
           only the nonce echo can tell it from a fresh answer. *)
        ignore
          (Netsim.Engine.schedule t.engine ~delay:race_delay
             (Netsim.Prof.wrap ph_map (fun () ->
               let accepted = not t.auth.nonce_check in
               if Obs.Hub.enabled t.obs then
                 Obs.Hub.emit t.obs ~actor:(itr_actor router) ?flow
                   (Obs.Event.Replayed_reply { eid = request_eid; accepted });
               if accepted then begin
                 t.stats.Cp_stats.replayed_accepted <-
                   t.stats.Cp_stats.replayed_accepted + 1;
                 Lispdp.Dataplane.install_mapping dp router mapping;
                 match Hashtbl.find_opt t.pending resolution.key with
                 | Some r when r == resolution -> complete t resolution router
                 | Some _ | None -> ()
               end
               else begin
                 t.stats.Cp_stats.replayed_rejected <-
                   t.stats.Cp_stats.replayed_rejected + 1;
                 Netsim.Drop.record (drops t) ~node
                   Netsim.Drop.Replayed_reply_rejected
               end)))
  | Some _ | None -> ());
  if total < infinity && not lost then begin
    let jitter =
      match t.faults with
      | Some faults -> Netsim.Faults.extra_delay faults
      | None -> 0.0
    in
    (* Signed replies pay a per-packet verification cost (lands in
       T_map_resol) and carry the signature option on the wire. *)
    let sig_cost = if t.auth.signatures then t.auth.sig_cpu_cost else 0.0 in
    ignore
      (Netsim.Engine.schedule t.engine ~delay:(total +. jitter +. sig_cost)
         (Netsim.Prof.wrap ph_map (fun () ->
           t.stats.Cp_stats.map_replies <- t.stats.Cp_stats.map_replies + 1;
           t.stats.Cp_stats.control_bytes <-
             t.stats.Cp_stats.control_bytes
             + Wire.Codec.size (Wire.Codec.Map_reply { nonce; mapping })
             + (if t.auth.signatures then Wire.Auth.signature_bytes else 0);
           if Obs.Hub.enabled t.obs then
             Obs.Hub.emit t.obs ~actor:(itr_actor router) ?flow
               (Obs.Event.Map_reply { eid = request_eid });
           Lispdp.Dataplane.install_mapping dp router mapping;
           match Hashtbl.find_opt t.pending resolution.key with
           | Some r when r == resolution -> complete t resolution router
           | Some _ | None ->
               (* A late or duplicate reply: the mapping is installed but
                  there is no (or a newer) resolution to complete. *)
               ())))
  end;
  match t.retry with
  | None ->
      if total = infinity || lost then
        (* No reply will ever come and retransmission is off: give up
           now.  Queued packets become counted drops (pre-fix they were
           silently held forever) and a later miss starts over. *)
        abandon t resolution ~cause:Netsim.Drop.Resolution_abandoned
  | Some retry ->
      let delay = Netsim.Faults.retry_delay retry ~attempt:resolution.attempts in
      resolution.timer <-
        Some
          (Netsim.Engine.schedule t.engine ~delay
             (Netsim.Prof.wrap ph_map (fun () ->
               resolution.timer <- None;
               if not resolution.abandoned then
                 if resolution.attempts > retry.Netsim.Faults.budget then begin
                   t.stats.Cp_stats.timeouts <- t.stats.Cp_stats.timeouts + 1;
                   if Obs.Hub.enabled t.obs then
                     Obs.Hub.emit t.obs ~actor:(itr_actor router) ?flow
                       (Obs.Event.Cp_timeout
                          { eid = request_eid; message = "map-request" });
                   abandon t resolution ~cause:Netsim.Drop.Resolution_timeout
                 end
                 else begin
                   t.stats.Cp_stats.retransmissions <-
                     t.stats.Cp_stats.retransmissions + 1;
                   if Obs.Hub.enabled t.obs then
                     Obs.Hub.emit t.obs ~actor:(itr_actor router) ?flow
                       (Obs.Event.Cp_retry
                          { eid = request_eid; attempt = resolution.attempts;
                            message = "map-request" });
                   send_attempt t resolution router dst_domain mapping ~flow ()
                 end)))

let handle_miss t router packet =
  let dst = packet.Packet.flow.Flow.dst in
  match Topology.Builder.domain_of_eid t.internet dst with
  | None -> Lispdp.Dataplane.Miss_drop Netsim.Drop.No_such_eid_domain
  | Some dst_domain -> (
      let mapping = Registry.mapping_of_domain t.registry dst_domain.Topology.Domain.id in
      let key =
        (router.Lispdp.Dataplane.border.Topology.Domain.router,
         dst_domain.Topology.Domain.id)
      in
      let resolution =
        match Hashtbl.find_opt t.pending key with
        | Some r -> r
        | None ->
            let r =
              { key; queued = []; queued_len = 0; attempts = 0; timer = None;
                abandoned = false }
            in
            Hashtbl.replace t.pending key r;
            send_attempt t r router dst_domain mapping
              ~flow:
                (if Obs.Hub.enabled t.obs then
                   Some (Obs.Event.flow_id packet.Packet.flow)
                 else None)
              ();
            r
      in
      match t.mode with
      | Drop_while_pending ->
          Lispdp.Dataplane.Miss_drop Netsim.Drop.Mapping_resolution_drop
      | Queue_while_pending limit ->
          (* [send_attempt] may have abandoned synchronously (unreachable
             destination, no retry): never queue into a dead record. *)
          if resolution.abandoned then
            Lispdp.Dataplane.Miss_drop Netsim.Drop.Resolution_abandoned
          else if resolution.queued_len >= limit then
            Lispdp.Dataplane.Miss_drop Netsim.Drop.Resolution_queue_overflow
          else begin
            resolution.queued <- packet :: resolution.queued;
            resolution.queued_len <- resolution.queued_len + 1;
            Lispdp.Dataplane.Miss_hold
          end
      | Detour_via_cp ->
          (* The data packet rides the mapping overlay to the
             destination's authoritative ETR. *)
          let dp = dataplane_exn t in
          let etr =
            Lispdp.Dataplane.router_for_border dp (authoritative_router t mapping)
          in
          let src_id = (router.Lispdp.Dataplane.router_domain).Topology.Domain.id in
          let overlay =
            t.latency_of ~src:src_id ~dst:dst_domain.Topology.Domain.id
          in
          t.stats.Cp_stats.detoured_packets <-
            t.stats.Cp_stats.detoured_packets + 1;
          t.stats.Cp_stats.control_bytes <-
            t.stats.Cp_stats.control_bytes + Packet.size packet;
          Lispdp.Dataplane.deliver_via dp etr packet ~extra_delay:overlay;
          Lispdp.Dataplane.Miss_hold)

let note_etr_packet t router ~outer_src packet =
  match outer_src with
  | None -> ()
  | Some itr_rloc ->
      let dp = dataplane_exn t in
      let src_eid = packet.Packet.flow.Flow.src in
      let domain = router.Lispdp.Dataplane.router_domain in
      if t.smr then begin
        let holders =
          match Hashtbl.find_opt t.cached_at domain.Topology.Domain.id with
          | Some set -> set
          | None ->
              let set = Hashtbl.create 8 in
              Hashtbl.replace t.cached_at domain.Topology.Domain.id set;
              set
        in
        Hashtbl.replace holders (Ipv4.addr_to_int itr_rloc) ()
      end;
      Glean.note t.glean ~domain:domain.Topology.Domain.id ~remote_eid:src_eid
        ~border:router.Lispdp.Dataplane.border;
      (* Host route toward the remote ITR so the reverse tunnel is
         symmetric without a resolution. *)
      let gleaned =
        Mapping.create ~eid_prefix:(Ipv4.prefix src_eid 32)
          ~rlocs:[ Mapping.rloc itr_rloc ] ~ttl:glean_ttl
      in
      Lispdp.Dataplane.install_mapping dp router
        ~provenance:Lispdp.Map_cache.Gleaned gleaned

let smr_bytes = 24

let notify_mapping_change t ~domain =
  if t.smr then
    match Hashtbl.find_opt t.cached_at domain with
    | None -> ()
    | Some holders ->
        let dp = dataplane_exn t in
        let prefix =
          (Registry.mapping_of_domain t.registry domain).Mapping.eid_prefix
        in
        let graph = t.internet.Topology.Builder.graph in
        let speakers =
          (* Any live border of the changed domain can emit the SMRs. *)
          t.internet.Topology.Builder.domains.(domain).Topology.Domain.borders
        in
        Hashtbl.iter
          (fun rloc_int () ->
            match Lispdp.Dataplane.router_of_rloc dp (Ipv4.addr_of_int rloc_int) with
            | None -> ()
            | Some holder ->
                let target = holder.Lispdp.Dataplane.border.Topology.Domain.router in
                let latency =
                  Array.fold_left
                    (fun acc b ->
                      match
                        Topology.Graph.latency_between graph
                          b.Topology.Domain.router target
                      with
                      | l -> Float.min acc l
                      | exception Not_found -> acc)
                    infinity speakers
                in
                if latency < infinity then begin
                  t.stats.Cp_stats.push_messages <-
                    t.stats.Cp_stats.push_messages + 1;
                  t.stats.Cp_stats.control_bytes <-
                    t.stats.Cp_stats.control_bytes + smr_bytes;
                  ignore
                    (Netsim.Engine.schedule t.engine ~delay:latency
                       (Netsim.Prof.wrap ph_map (fun () ->
                            (* The solicit invalidates the site mapping
                               and any gleaned host routes under it. *)
                            ignore
                              (Lispdp.Map_cache.remove_covered
                                 holder.Lispdp.Dataplane.cache prefix))))
                end)
          holders;
        Hashtbl.remove t.cached_at domain

let control_plane t =
  { Lispdp.Dataplane.cp_name = t.name;
    cp_choose_egress = (fun ~src_domain flow -> choose_egress t ~src_domain flow);
    cp_handle_miss = (fun router packet -> handle_miss t router packet);
    cp_note_etr_packet =
      (fun router ~outer_src packet -> note_etr_packet t router ~outer_src packet) }
