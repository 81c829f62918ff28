open Nettypes

type cache_entry =
  | Cached_address of Ipv4.addr * float (* expiry *)
  | Cached_referral of Name.t * Topology.Node.id * float

type resolver = {
  node : Topology.Node.id;
  cache : (Name.t, cache_entry) Hashtbl.t;
  mutable observer : (client_eid:Ipv4.addr -> qname:Name.t -> unit) option;
}

type tap_context = {
  tap_qname : Name.t;
  tap_answer : Ipv4.addr;
  tap_server : Topology.Node.id;
  tap_resolver : Topology.Node.id;
  tap_wire_latency : float;
  tap_complete : unit -> unit;
}

type counters = {
  mutable client_queries : int;
  mutable iterative_queries : int;
  mutable responses : int;
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable wire_bytes : int;
  mutable tap_bypasses : int;
  mutable outage_failures : int;
  mutable poisoned_accepted : int;
  mutable poisoned_rejected : int;
}

(* Watchdog that lets a server answer around a crashed response tap
   (the PCE bypass path): while [guard_down] holds, the final answer
   is delivered un-tapped after [guard_watchdog] seconds. *)
type tap_guard = {
  guard_down : unit -> bool;
  guard_watchdog : float;
  guard_on_bypass : (qname:Name.t -> unit) option;
}

type t = {
  engine : Netsim.Engine.t;
  internet : Topology.Builder.t;
  zones : (Topology.Node.id, Zone.t) Hashtbl.t;
  resolvers : (Topology.Node.id, resolver) Hashtbl.t;
  taps : (Topology.Node.id, tap_context -> unit) Hashtbl.t;
  tap_guards : (Topology.Node.id, tap_guard) Hashtbl.t;
  outages : (Topology.Node.id, unit -> bool) Hashtbl.t;
  obs : Obs.Hub.t;
  counters : counters;
  (* Off-path answer forgery: consulted once per final address answer;
     [Some forged] races the genuine record for the resolver's cache.
     [authenticated] models DNSSEC-style origin authentication — the
     resolver detects and discards the forgery. *)
  mutable poisoner : (qname:Name.t -> Ipv4.addr option) option;
  mutable authenticated : bool;
}

let engine t = t.engine
let internet t = t.internet
let counters t = t.counters

let node_label t id = (Topology.Graph.node t.internet.Topology.Builder.graph id).Topology.Node.label
let drops t = Topology.Graph.drops t.internet.Topology.Builder.graph

let populate t ~record_ttl =
  let internet = t.internet in
  let root_zone =
    Zone.create ~apex:Name.root ~server:internet.Topology.Builder.root_dns
      ~ttl:record_ttl
  in
  let net = Name.of_string "net." in
  Zone.delegate root_zone ~child_apex:net
    ~child_server:internet.Topology.Builder.tld_dns;
  Hashtbl.replace t.zones internet.Topology.Builder.root_dns root_zone;
  let tld_zone =
    Zone.create ~apex:net ~server:internet.Topology.Builder.tld_dns
      ~ttl:record_ttl
  in
  Hashtbl.replace t.zones internet.Topology.Builder.tld_dns tld_zone;
  Array.iter
    (fun domain ->
      let apex = Name.of_string (Topology.Domain.fqdn domain) in
      let dns = domain.Topology.Domain.dns in
      Zone.delegate tld_zone ~child_apex:apex ~child_server:dns;
      let zone = Zone.create ~apex ~server:dns ~ttl:record_ttl in
      Array.iteri
        (fun i _host ->
          Zone.add_a zone
            (Name.of_string (Topology.Domain.host_name domain i))
            (Topology.Domain.host_eid domain i))
        domain.Topology.Domain.hosts;
      Hashtbl.replace t.zones dns zone;
      Hashtbl.replace t.resolvers dns
        { node = dns; cache = Hashtbl.create 64; observer = None })
    internet.Topology.Builder.domains

let server_processing = 0.0005

(* How long a querier waits on a crashed node before giving up. *)
let outage_timeout = 2.0

let create ~engine ~internet ?(record_ttl = 3600.0) ?obs () =
  let t =
    { engine; internet; zones = Hashtbl.create 16; resolvers = Hashtbl.create 16;
      taps = Hashtbl.create 4; tap_guards = Hashtbl.create 4;
      outages = Hashtbl.create 4;
      obs = Obs.Hub.or_disabled ~engine obs;
      counters =
        { client_queries = 0; iterative_queries = 0; responses = 0;
          cache_hits = 0; cache_misses = 0; wire_bytes = 0; tap_bypasses = 0;
          outage_failures = 0; poisoned_accepted = 0; poisoned_rejected = 0 };
      poisoner = None; authenticated = false }
  in
  populate t ~record_ttl;
  t

let set_response_tap t ~server tap =
  match tap with
  | Some f -> Hashtbl.replace t.taps server f
  | None -> Hashtbl.remove t.taps server

let set_tap_guard t ~server guard =
  match guard with
  | Some g -> Hashtbl.replace t.tap_guards server g
  | None -> Hashtbl.remove t.tap_guards server

let set_poisoner t p = t.poisoner <- p
let set_authenticated t b = t.authenticated <- b

let set_server_outage t ~server down =
  match down with
  | Some pred -> Hashtbl.replace t.outages server pred
  | None -> Hashtbl.remove t.outages server

let node_down t node =
  match Hashtbl.find_opt t.outages node with
  | Some pred -> pred ()
  | None -> false

let resolver_exn t node =
  match Hashtbl.find_opt t.resolvers node with
  | Some r -> r
  | None -> invalid_arg (Printf.sprintf "Dnssim.System: node %d is not a resolver" node)

let set_query_observer t ~resolver observer =
  (resolver_exn t resolver).observer <- observer

let flush_caches t =
  Hashtbl.iter (fun _ r -> Hashtbl.reset r.cache) t.resolvers

(* All asynchronous DNS work — wire hops, server processing, outage
   timers — runs under the "dns" profiler phase, so its share of the
   engine's dispatch time is visible in the self-profile. *)
let ph_dns = Netsim.Prof.phase "dns"

(* Transmit [bytes] from [src] to [dst]: accounts link bytes and invokes
   [k] after the shortest-path latency. *)
let send t ~src ~dst ~bytes k =
  let graph = t.internet.Topology.Builder.graph in
  t.counters.wire_bytes <- t.counters.wire_bytes + bytes;
  if src <> dst then Topology.Graph.account_path graph ~src ~dst ~bytes;
  let latency = Topology.Graph.latency_between graph src dst in
  ignore
    (Netsim.Engine.schedule t.engine ~delay:latency (Netsim.Prof.wrap ph_dns k))

let query_size qname = 12 + Name.wire_size qname + 4

let cache_lookup t resolver qname =
  let now = Netsim.Engine.now t.engine in
  match Hashtbl.find_opt resolver.cache qname with
  | Some (Cached_address (addr, expiry)) when expiry > now -> Some addr
  | Some (Cached_address _) ->
      Hashtbl.remove resolver.cache qname;
      None
  | Some (Cached_referral _) | None -> None

(* Deepest live cached referral applying to [qname], else the root. *)
let starting_server t resolver qname =
  let now = Netsim.Engine.now t.engine in
  let rec probe name best =
    let best =
      match Hashtbl.find_opt resolver.cache name with
      | Some (Cached_referral (apex, server, expiry)) when expiry > now -> (
          match best with
          | Some (prev_apex, _) when Name.label_count prev_apex >= Name.label_count apex ->
              best
          | Some _ | None -> Some (apex, server))
      | Some (Cached_referral _ | Cached_address _) | None -> best
    in
    match Name.parent name with None -> best | Some p -> probe p best
  in
  match probe qname None with
  | Some (_, server) -> server
  | None -> t.internet.Topology.Builder.root_dns

let resolve t ~resolver:resolver_id ~client ~client_eid ?flow qname ~callback =
  let resolver = resolver_exn t resolver_id in
  let graph = t.internet.Topology.Builder.graph in
  t.counters.client_queries <- t.counters.client_queries + 1;
  if Obs.Hub.enabled t.obs then
    Obs.Hub.emit t.obs ~actor:(node_label t client) ?flow
      (Obs.Event.Dns_query { qname = Name.to_string qname });
  (* Reply travels resolver -> client once resolution finishes. *)
  let answer_client result =
    t.counters.responses <- t.counters.responses + 1;
    send t ~src:resolver_id ~dst:client ~bytes:(query_size qname + 16) (fun () ->
        if Obs.Hub.enabled t.obs then
          Obs.Hub.emit t.obs ~actor:(node_label t client) ?flow
            (Obs.Event.Dns_reply
               { qname = Name.to_string qname; answered = result <> None });
        callback result)
  in
  (* Iterative resolution loop at the resolver. *)
  let rec iterate server steps_left =
    if steps_left = 0 then answer_client None
    else begin
      t.counters.iterative_queries <- t.counters.iterative_queries + 1;
      if Obs.Hub.enabled t.obs then
        Obs.Hub.emit t.obs ~actor:(node_label t resolver_id) ?flow
          (Obs.Event.Dns_iterate
             { qname = Name.to_string qname; server = node_label t server });
      send t ~src:resolver_id ~dst:server ~bytes:(query_size qname) (fun () ->
          if node_down t server then begin
            (* Crashed authoritative server: the query dies and the
               resolver gives up on the whole resolution after its
               query timeout. *)
            t.counters.outage_failures <- t.counters.outage_failures + 1;
            Netsim.Drop.record (drops t) ~node:server
              Netsim.Drop.Outage_failure;
            ignore
              (Netsim.Engine.schedule t.engine ~delay:outage_timeout
                 (Netsim.Prof.wrap ph_dns (fun () -> answer_client None)))
          end
          else
          (* Server-side processing, then answer. *)
          ignore
            (Netsim.Engine.schedule t.engine ~delay:server_processing
               (Netsim.Prof.wrap ph_dns (fun () ->
                 let zone =
                   match Hashtbl.find_opt t.zones server with
                   | Some z -> z
                   | None -> assert false
                 in
                 let answer = Zone.answer zone qname in
                 let bytes = Zone.answer_wire_size qname answer in
                 let wire_latency =
                   Topology.Graph.latency_between graph server resolver_id
                 in
                 match answer with
                 | Zone.Address addr -> (
                     let complete () =
                       (* Off-path forgery races the genuine record as it
                          reaches the resolver; with [authenticated] the
                          resolver validates and keeps the real one. *)
                       let addr =
                         match t.poisoner with
                         | None -> addr
                         | Some p -> (
                             match p ~qname with
                             | None -> addr
                             | Some forged ->
                                 let accepted = not t.authenticated in
                                 if Obs.Hub.enabled t.obs then
                                   Obs.Hub.emit t.obs
                                     ~actor:(node_label t resolver_id) ?flow
                                     (Obs.Event.Poisoned_answer
                                        { qname = Name.to_string qname;
                                          accepted });
                                 if accepted then begin
                                   t.counters.poisoned_accepted <-
                                     t.counters.poisoned_accepted + 1;
                                   forged
                                 end
                                 else begin
                                   t.counters.poisoned_rejected <-
                                     t.counters.poisoned_rejected + 1;
                                   addr
                                 end)
                       in
                       let expiry =
                         Netsim.Engine.now t.engine +. Zone.ttl zone
                       in
                       Hashtbl.replace resolver.cache qname
                         (Cached_address (addr, expiry));
                       answer_client (Some addr)
                     in
                     match Hashtbl.find_opt t.taps server with
                     | Some tap -> (
                         match Hashtbl.find_opt t.tap_guards server with
                         | Some g when g.guard_down () ->
                             (* The tap's PCE is crashed: wait out the
                                watchdog, then answer past it,
                                un-piggybacked. *)
                             t.counters.tap_bypasses <-
                               t.counters.tap_bypasses + 1;
                             (match g.guard_on_bypass with
                             | Some f -> f ~qname
                             | None -> ());
                             ignore
                               (Netsim.Engine.schedule t.engine
                                  ~delay:g.guard_watchdog (fun () ->
                                    send t ~src:server ~dst:resolver_id ~bytes
                                      complete))
                         | Some _ | None ->
                             t.counters.wire_bytes <-
                               t.counters.wire_bytes + bytes;
                             tap
                               { tap_qname = qname; tap_answer = addr;
                                 tap_server = server;
                                 tap_resolver = resolver_id;
                                 tap_wire_latency = wire_latency;
                                 tap_complete = complete })
                     | None -> send t ~src:server ~dst:resolver_id ~bytes complete)
                 | Zone.Referral (child_apex, child_server) ->
                     send t ~src:server ~dst:resolver_id ~bytes (fun () ->
                         let expiry =
                           Netsim.Engine.now t.engine +. Zone.ttl zone
                         in
                         Hashtbl.replace resolver.cache child_apex
                           (Cached_referral (child_apex, child_server, expiry));
                         iterate child_server (steps_left - 1))
                 | Zone.Name_error ->
                     send t ~src:server ~dst:resolver_id ~bytes (fun () ->
                         answer_client None)))))
    end
  in
  (* Client -> resolver wire, then observer + cache check. *)
  send t ~src:client ~dst:resolver_id ~bytes:(query_size qname) (fun () ->
      if node_down t resolver_id then begin
        (* Crashed resolver: the client's query is never answered; it
           observes a failed resolution after its own timeout. *)
        t.counters.outage_failures <- t.counters.outage_failures + 1;
        Netsim.Drop.record (drops t) ~node:resolver_id
          Netsim.Drop.Outage_failure;
        ignore
          (Netsim.Engine.schedule t.engine ~delay:outage_timeout
             (Netsim.Prof.wrap ph_dns (fun () ->
                  if Obs.Hub.enabled t.obs then
                    Obs.Hub.emit t.obs ~actor:(node_label t client) ?flow
                      (Obs.Event.Dns_reply
                         { qname = Name.to_string qname; answered = false });
                  callback None)))
      end
      else begin
      (match resolver.observer with
      | Some f -> f ~client_eid ~qname
      | None -> ());
      match cache_lookup t resolver qname with
      | Some addr ->
          t.counters.cache_hits <- t.counters.cache_hits + 1;
          answer_client (Some addr)
      | None ->
          t.counters.cache_misses <- t.counters.cache_misses + 1;
          iterate (starting_server t resolver qname) 16
      end)
