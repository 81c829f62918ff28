open Nettypes

type cp_kind =
  | Cp_pull_drop
  | Cp_pull_queue of int
  | Cp_pull_smr of int
  | Cp_pull_detour
  | Cp_nerd
  | Cp_cons
  | Cp_msmr
  | Cp_pce of Pce_control.options

let cp_label = function
  | Cp_pull_drop -> "pull-drop"
  | Cp_pull_queue n -> Printf.sprintf "pull-queue(%d)" n
  | Cp_pull_smr n -> Printf.sprintf "pull-smr(%d)" n
  | Cp_pull_detour -> "pull-detour"
  | Cp_nerd -> "nerd-push"
  | Cp_cons -> "cons"
  | Cp_msmr -> "msmr"
  | Cp_pce _ -> "pce"

type fault_script =
  | Flap of { at : float; duration : float; domain : int }
  | Partition of { from_ : float; until : float; a : int; b : int }

type cp_fault_profile = {
  cp_loss : float;
  cp_jitter : float;
  cp_rto : float;
  cp_backoff : float;
  cp_retries : int;
  cp_scripts : fault_script list;
}

let default_cp_faults =
  { cp_loss = 0.0; cp_jitter = 0.0; cp_rto = 0.5; cp_backoff = 2.0;
    cp_retries = 3; cp_scripts = [] }

type node_fault_profile = {
  node_windows : (Netsim.Lifecycle.role * float * float) list;
  pce_watchdog : float;
  fallback_queue : int;
}

let default_node_faults =
  { node_windows = []; pce_watchdog = 0.25; fallback_queue = 32 }

type attack_profile = {
  atk_spoof : float;
  atk_spoof_head_start : float;
  atk_replay : float;
  atk_dns_poison : float;
  atk_flood_rate : float;
  atk_flood_eids : int;
  atk_flood_from : float;
  atk_flood_until : float;
  atk_flood_victim : int;
}

let default_attack =
  { atk_spoof = 0.0; atk_spoof_head_start = 0.002; atk_replay = 0.0;
    atk_dns_poison = 0.0; atk_flood_rate = 0.0; atk_flood_eids = 1024;
    atk_flood_from = 0.0; atk_flood_until = infinity; atk_flood_victim = 0 }

(* Forged source EID of the [idx]-th scan identity: unallocated space
   (no generated topology owns 200.0.0.0/8), so the gleaned host route
   is pure pollution.  Exposed so experiments can probe end-of-run
   caches for attacker-owned entries. *)
let flood_eid idx = Ipv4.addr_of_int (0xC800_0000 lor idx)

type auth_profile = {
  auth_nonce : bool;
  auth_sig : bool;
  auth_sig_cpu : float;
  auth_dnssec : bool;
  auth_glean_cap : int option;
}

let default_auth =
  { auth_nonce = false; auth_sig = false;
    auth_sig_cpu = Wire.Auth.default_sig_cpu_cost; auth_dnssec = false;
    auth_glean_cap = None }

type config = {
  seed : int;
  topology :
    [ `Figure1 | `Figure1_scaled of float | `Random of Topology.Builder.params ];
  cp : cp_kind;
  mapping_ttl : float;
  dns_record_ttl : float;
  cache_capacity : int;
  cache_policy : Lispdp.Map_cache.policy;
  data_gap : float;
  nerd_propagation : float;  (** NERD database-update propagation delay *)
  cp_faults : cp_fault_profile option;
      (** control-plane loss/retry model; [None] = lossless legacy *)
  node_faults : node_fault_profile option;
      (** node crash/restart schedule; [None] = every node always up *)
  telemetry : Netsim.Telemetry.config option;
      (** enable the telemetry plane with this window/sketch config;
          [None] = disabled (zero hot-path cost) *)
  attack : attack_profile option;
      (** adversarial injection; [None] = no adversary, byte-identical
          to pre-adversary behaviour *)
  auth : auth_profile option;
      (** countermeasures; [None] = none (legacy behaviour) *)
  run_label : string option;
      (** overrides the exporter run label (default: [cp_label]) so one
          sweep can report several differently-armed cells of the same
          control plane *)
}

let default_config =
  { seed = 1; topology = `Figure1; cp = Cp_pce Pce_control.default_options;
    mapping_ttl = 60.0; dns_record_ttl = 3600.0; cache_capacity = 10_000;
    cache_policy = Lispdp.Map_cache.Lru; data_gap = 0.002;
    nerd_propagation = 30.0; cp_faults = None; node_faults = None;
    telemetry = None; attack = None; auth = None; run_label = None }

type connection = {
  flow : Flow.t;
  opened_at : float;
  mutable dns_time : float option;
  mutable resolution_failed : bool;
  mutable tcp : Workload.Tcp.conn option;
}

let total_setup_time connection =
  match (connection.dns_time, connection.tcp) with
  | Some dns, Some tcp_conn -> (
      match Workload.Tcp.handshake_time tcp_conn with
      | Some handshake -> Some (dns +. handshake)
      | None -> None)
  | _, _ -> None

type cp_instance =
  | Pull_instance of Mapsys.Pull.t
  | Nerd_instance of Mapsys.Nerd.t
  | Cons_instance of Mapsys.Cons.t
  | Msmr_instance of Mapsys.Msmr.t
  | Pce_instance of Pce_control.t

type t = {
  config : config;
  engine : Netsim.Engine.t;
  internet : Topology.Builder.t;
  dns : Dnssim.System.t;
  registry : Mapsys.Registry.t;
  dataplane : Lispdp.Dataplane.t;
  tcp : Workload.Tcp.t;
  cp : cp_instance;
  rng : Netsim.Rng.t;
  faults : Netsim.Faults.t option;
  lifecycle : Netsim.Lifecycle.t option;
  adversary : Netsim.Adversary.t option;
  fallback_pull : Mapsys.Pull.t option;
  obs : Obs.Hub.t;
  obs_registry : Obs.Registry.t;
  dns_time_hist : Obs.Registry.histogram;
  setup_time_hist : Obs.Registry.histogram;
  mutable connections_rev : connection list;
}

let engine t = t.engine
let internet t = t.internet
let dns t = t.dns
let dataplane t = t.dataplane
let tcp t = t.tcp
let registry t = t.registry
let rng t = t.rng
let faults t = t.faults
let lifecycle t = t.lifecycle
let adversary t = t.adversary
let fallback_pull t = t.fallback_pull
let telemetry t = Topology.Graph.telemetry t.internet.Topology.Builder.graph
let config t = t.config
let obs t = t.obs
let obs_registry t = t.obs_registry
let connections t = List.rev t.connections_rev

let cp_stats t =
  match t.cp with
  | Pull_instance p -> Mapsys.Pull.stats p
  | Nerd_instance n -> Mapsys.Nerd.stats n
  | Cons_instance c -> Mapsys.Cons.stats c
  | Msmr_instance m -> Mapsys.Msmr.stats m
  | Pce_instance p -> Pce_control.stats p

let pce t =
  match t.cp with
  | Pce_instance p -> Some p
  | Pull_instance _ | Nerd_instance _ | Cons_instance _ | Msmr_instance _ ->
      None

(* Gauge row producers shared between the registry registration below
   and report code that samples directly: one computation, whichever
   surface ([obs] summary, [telemetry] subcommand, exporters) reads
   it. *)
let cache_gauge_rows dataplane =
  let fi = float_of_int in
  let s = Lispdp.Dataplane.cache_stats_totals dataplane in
  let lookups = s.Lispdp.Map_cache.hits + s.Lispdp.Map_cache.misses in
  [ ("hits", fi s.Lispdp.Map_cache.hits);
    ("misses", fi s.Lispdp.Map_cache.misses);
    ("insertions", fi s.Lispdp.Map_cache.insertions);
    ("evictions", fi s.Lispdp.Map_cache.evictions);
    ("expirations", fi s.Lispdp.Map_cache.expirations);
    ("invalidations", fi s.Lispdp.Map_cache.invalidations);
    ("entries", fi (Lispdp.Dataplane.cache_entries_total dataplane));
    ( "hit_ratio",
      if lookups = 0 then 0.0
      else fi s.Lispdp.Map_cache.hits /. fi lookups ) ]

let flow_gauge_rows dataplane =
  [ ("entries", float_of_int (Lispdp.Dataplane.flow_entries_total dataplane)) ]

(* Topology construction, zone setup and registration are one-off but
   not free at scale; the self-profile separates them from the run. *)
let ph_build = Netsim.Prof.phase "build"

let build config =
  Netsim.Prof.with_phase ph_build @@ fun () ->
  let rng = Netsim.Rng.create config.seed in
  let engine = Netsim.Engine.create () in
  let internet =
    match config.topology with
    | `Figure1 -> Topology.Builder.figure1 ()
    | `Figure1_scaled scale -> Topology.Builder.figure1 ~scale ()
    | `Random params -> Topology.Builder.generate (Netsim.Rng.split rng) params
  in
  (* The scenario's own telemetry plane, on the internet's graph before
     any event: its window origin is simulated t=0, its nodes carry the
     graph's labels, and it learns the provider attachment of every
     access link up front, so per-provider aggregation is a flat array
     index on the hot path. *)
  let graph = internet.Topology.Builder.graph in
  let telemetry =
    Option.map
      (fun tconfig ->
        let tm =
          Netsim.Telemetry.create ~config:tconfig ~now:0.0
            ~node_name:(fun n ->
              (Topology.Graph.node graph n).Topology.Node.label)
            ~drops:(Topology.Graph.drops graph) ()
        in
        Array.iter
          (fun domain ->
            Array.iter
              (fun b ->
                let uplink = b.Topology.Domain.uplink in
                Netsim.Telemetry.register_uplink tm
                  ~link:(Topology.Link.id uplink)
                  ~provider:b.Topology.Domain.provider
                  ~egress_dir:
                    (if Topology.Link.a uplink = b.Topology.Domain.router then 0
                     else 1))
              domain.Topology.Domain.borders)
          internet.Topology.Builder.domains;
        Topology.Graph.set_telemetry graph tm;
        tm)
      config.telemetry
  in
  (* The hub starts disabled: instrumented call sites pay one boolean
     test until an exporter, a walkthrough or a test enables it. *)
  let obs = Obs.Hub.create ~clock:(fun () -> Netsim.Engine.now engine) () in
  let dns =
    Dnssim.System.create ~engine ~internet ~record_ttl:config.dns_record_ttl
      ~obs ()
  in
  let registry = Mapsys.Registry.create ~internet ~ttl:config.mapping_ttl in
  let alt =
    Mapsys.Alt.create
      ~domains:(Array.length internet.Topology.Builder.domains) ()
  in
  let flow_ttl =
    match config.cp with
    | Cp_pce options -> options.Pce_control.flow_ttl
    | Cp_pull_drop | Cp_pull_queue _ | Cp_pull_smr _ | Cp_pull_detour
    | Cp_nerd | Cp_cons | Cp_msmr ->
        300.0
  in
  (* The adversary's stream, like the fault model's, is derived from the
     seed independently of the workload streams; without an attack
     profile no adversary exists and no hook takes any draw. *)
  let adversary =
    match config.attack with
    | None -> None
    | Some a ->
        Some
          (Netsim.Adversary.create
             ~rng:(Netsim.Rng.create (config.seed lxor 0xAD5A))
             ~spoof_rate:a.atk_spoof ~spoof_head_start:a.atk_spoof_head_start
             ~replay_rate:a.atk_replay ~dns_poison_rate:a.atk_dns_poison
             ~flood_rate:a.atk_flood_rate ~flood_eids:a.atk_flood_eids
             ~flood_from:a.atk_flood_from ~flood_until:a.atk_flood_until ())
  in
  (* Nonce stream: always created (nonce values feed no observable
     quantity except the adversary's guess comparison), dedicated so
     countermeasure toggles never perturb workload draws. *)
  let nonce_rng = Netsim.Rng.create (config.seed lxor 0x4E43) in
  let pull_auth =
    match config.auth with
    | None -> None
    | Some p ->
        Some
          { Mapsys.Pull.nonce_check = p.auth_nonce; signatures = p.auth_sig;
            sig_cpu_cost = p.auth_sig_cpu }
  in
  let glean_cap =
    match config.auth with Some p -> p.auth_glean_cap | None -> None
  in
  let make_dataplane control_plane =
    Lispdp.Dataplane.create ~engine ~internet ~control_plane
      ~cache_capacity:config.cache_capacity ~cache_policy:config.cache_policy
      ?glean_cap ~flow_ttl ~obs ()
  in
  (* Split unconditionally so every control plane leaves the scenario
     RNG in the same state — workloads drawn from later splits must be
     identical across control planes.  No control plane draws from
     this split; the call keeps the later splits where they are. *)
  ignore (Netsim.Rng.split rng);
  (* The fault model's stream is derived from the seed, NOT split from
     the scenario RNG: a profile must never shift the workload streams,
     so loss-free and lossy runs stay comparable flow for flow. *)
  let faults, retry =
    match config.cp_faults with
    | None -> (None, None)
    | Some profile ->
        let f =
          Netsim.Faults.create
            ~rng:(Netsim.Rng.create (config.seed lxor 0xFA17))
            ~loss:profile.cp_loss ~jitter:profile.cp_jitter
            ~drops:(Topology.Graph.drops graph) ()
        in
        List.iter
          (function
            | Flap { at; duration; domain } ->
                Netsim.Faults.flap f ~at ~duration ~domain
            | Partition { from_; until; a; b } ->
                Netsim.Faults.partition f ~from_ ~until ~a ~b)
          profile.cp_scripts;
        let r =
          Netsim.Faults.retry ~rto:profile.cp_rto ~backoff:profile.cp_backoff
            ~budget:profile.cp_retries ()
        in
        (Some f, Some r)
  in
  (* The node-lifecycle schedule, like the loss model, exists only
     under its opt-in profile: without it no lifecycle value is ever
     created and every hook keeps its pre-profile behaviour. *)
  let lifecycle =
    match config.node_faults with
    | None -> None
    | Some profile ->
        let lc = Netsim.Lifecycle.create () in
        List.iter
          (fun (role, from_, until) ->
            Netsim.Lifecycle.add_window lc ~role ~from_ ~until)
          profile.node_windows;
        Some lc
  in
  let fallback_pull = ref None in
  let cp, dataplane =
    match config.cp with
    | Cp_pull_drop | Cp_pull_queue _ | Cp_pull_smr _ | Cp_pull_detour ->
        let mode, smr =
          match config.cp with
          | Cp_pull_drop -> (Mapsys.Pull.Drop_while_pending, false)
          | Cp_pull_queue n -> (Mapsys.Pull.Queue_while_pending n, false)
          | Cp_pull_smr n -> (Mapsys.Pull.Queue_while_pending n, true)
          | Cp_pull_detour -> (Mapsys.Pull.Detour_via_cp, false)
          | Cp_nerd | Cp_cons | Cp_msmr | Cp_pce _ -> assert false
        in
        let name =
          match config.cp with Cp_pull_smr _ -> Some "pull-smr" | _ -> None
        in
        let pull =
          Mapsys.Pull.create ~engine ~internet ~registry ~alt ~mode ?name ~smr
            ?faults ?retry ?lifecycle ~nonce_rng ?adversary ?auth:pull_auth
            ?glean_cap ~obs ()
        in
        let dp = make_dataplane (Mapsys.Pull.control_plane pull) in
        Mapsys.Pull.attach pull dp;
        (Pull_instance pull, dp)
    | Cp_nerd ->
        let nerd =
          Mapsys.Nerd.create ~engine ~internet ~registry
            ~propagation_delay:config.nerd_propagation ?faults ~obs ()
        in
        let dp = make_dataplane (Mapsys.Nerd.control_plane nerd) in
        Mapsys.Nerd.attach nerd dp;
        (Nerd_instance nerd, dp)
    | Cp_cons ->
        let cons =
          Mapsys.Cons.create ~engine ~internet ~registry ~alt ?faults ?retry
            ~nonce_rng ?adversary ?auth:pull_auth ?glean_cap ~obs ()
        in
        let dp = make_dataplane (Mapsys.Cons.control_plane cons) in
        Mapsys.Cons.attach cons dp;
        (Cons_instance cons, dp)
    | Cp_msmr ->
        let msmr =
          Mapsys.Msmr.create ~engine ~internet ~registry ~alt ?faults ?retry
            ~nonce_rng ?adversary ?auth:pull_auth ?glean_cap ~obs ()
        in
        let dp = make_dataplane (Mapsys.Msmr.control_plane msmr) in
        Mapsys.Msmr.attach msmr dp;
        (Msmr_instance msmr, dp)
    | Cp_pce options ->
        (* Under the node-fault profile the PCE gets a pull fallback:
           cache misses the crashed control plane can no longer prevent
           resolve through the ordinary mapping system instead of
           dropping. *)
        let fallback, watchdog =
          match (lifecycle, config.node_faults) with
          | Some lc, Some profile ->
              ( Some
                  (Mapsys.Pull.create ~engine ~internet ~registry ~alt
                     ~mode:
                       (Mapsys.Pull.Queue_while_pending profile.fallback_queue)
                     ~name:"pce-pull-fallback" ?faults ?retry ~lifecycle:lc
                     ~nonce_rng ?adversary ?auth:pull_auth ?glean_cap ~obs ()),
                profile.pce_watchdog )
          | _ -> (None, 0.25)
        in
        fallback_pull := fallback;
        let pce_control =
          Pce_control.create ~engine ~internet ~dns ~options ?faults
            ?push_retry:retry ?lifecycle ?fallback ~watchdog ~registry ~obs ()
        in
        let dp = make_dataplane (Pce_control.control_plane pce_control) in
        Pce_control.attach pce_control dp;
        (match fallback with
        | Some pull -> Mapsys.Pull.attach pull dp
        | None -> ());
        Pce_control.schedule_lifecycle pce_control;
        (Pce_instance pce_control, dp)
  in
  let tcp =
    Workload.Tcp.create ~engine ~dataplane ~data_gap:config.data_gap ~obs ()
  in
  (* DNSSEC-style validation is a resolver property, independent of
     whether an attacker is present. *)
  (match config.auth with
  | Some p when p.auth_dnssec -> Dnssim.System.set_authenticated dns true
  | Some _ | None -> ());
  (match (adversary, config.attack) with
  | Some adv, Some a ->
      (* Off-path DNS poisoning: each final answer is raced with a
         forged class-E address per the adversary's rate. *)
      if a.atk_dns_poison > 0.0 then
        Dnssim.System.set_poisoner dns
          (Some
             (fun ~qname:_ ->
               if Netsim.Adversary.poisons_answer adv then
                 Some (Ipv4.addr_of_int 0xF000_0024)
               else None));
      (* EID-scan flood: spoofed packets arriving at the victim domain's
         ETRs from forged source EIDs, driving gleaned-entry pollution
         through the control plane's [cp_note_etr_packet] hook. *)
      if Netsim.Adversary.flood_configured adv then begin
        let victim =
          if
            a.atk_flood_victim < 0
            || a.atk_flood_victim
               >= Array.length internet.Topology.Builder.domains
          then invalid_arg "Scenario.build: flood victim domain out of range"
          else internet.Topology.Builder.domains.(a.atk_flood_victim)
        in
        let routers = Lispdp.Dataplane.routers_of_domain dataplane victim in
        let victim_eid = Topology.Domain.host_eid victim 0 in
        let cp_hook = Lispdp.Dataplane.control_plane dataplane in
        let rec pump () =
          let now = Netsim.Engine.now engine in
          if Netsim.Adversary.flood_active adv ~now then begin
            let idx = Netsim.Adversary.flood_eid_index adv in
            (* Forged source EID ({!flood_eid}) with a matching forged
               outer-source RLOC: the gleaned host route is pure
               pollution. *)
            let src = flood_eid idx in
            let flow = Flow.create ~src ~dst:victim_eid () in
            let packet =
              Packet.make ~flow ~segment:Packet.Ack ~sent_at:now
            in
            let router = routers.(idx mod Array.length routers) in
            cp_hook.Lispdp.Dataplane.cp_note_etr_packet router
              ~outer_src:(Some (Ipv4.addr_of_int (0xF100_0000 lor idx)))
              packet
          end;
          if now < a.atk_flood_until then
            ignore
              (Netsim.Engine.schedule engine
                 ~delay:(Netsim.Adversary.flood_interarrival adv) pump)
        in
        ignore (Netsim.Engine.schedule_at engine ~time:a.atk_flood_from pump)
      end
  | _ -> ());
  (match lifecycle with
  | None -> ()
  | Some lc ->
      (* DNS-node outages: queries to a crashed server/resolver die and
         fail at the querier after the outage timeout. *)
      List.iter
        (fun (role, _, _) ->
          match role with
          | Netsim.Lifecycle.Dns_server d ->
              let node =
                internet.Topology.Builder.domains.(d).Topology.Domain.dns
              in
              Dnssim.System.set_server_outage dns ~server:node
                (Some
                   (fun () ->
                     Netsim.Lifecycle.is_down lc ~role
                       ~now:(Netsim.Engine.now engine)))
          | Netsim.Lifecycle.Pce _ | Netsim.Lifecycle.Map_server -> ())
        (Netsim.Lifecycle.windows lc);
      (* Crash/restart markers for non-PCE roles; PCE transitions (and
         their state-loss/recovery side effects) are scheduled by
         [Pce_control.schedule_lifecycle]. *)
      List.iter
        (fun (role, from_, until) ->
          match role with
          | Netsim.Lifecycle.Pce _ -> ()
          | Netsim.Lifecycle.Dns_server _ | Netsim.Lifecycle.Map_server ->
              let actor =
                match role with
                | Netsim.Lifecycle.Dns_server d ->
                    internet.Topology.Builder.domains.(d).Topology.Domain.name
                    ^ "-dns"
                | Netsim.Lifecycle.Map_server | Netsim.Lifecycle.Pce _ ->
                    "map-server"
              in
              let label = Netsim.Lifecycle.role_label role in
              ignore
                (Netsim.Engine.schedule_at engine ~time:from_ (fun () ->
                     if Obs.Hub.enabled obs then
                       Obs.Hub.emit obs ~actor
                         (Obs.Event.Node_crash { role = label })));
              if until < infinity then
                ignore
                  (Netsim.Engine.schedule_at engine ~time:until (fun () ->
                       if Obs.Hub.enabled obs then
                         Obs.Hub.emit obs ~actor
                           (Obs.Event.Node_restart { role = label }))))
        (Netsim.Lifecycle.windows lc));
  (* Every layer's live counters, exposed as read-on-snapshot gauges so
     there is no double bookkeeping anywhere. *)
  let obs_registry = Obs.Registry.create () in
  let gauge name f = Obs.Registry.register_gauge obs_registry name f in
  let fi = float_of_int in
  gauge "engine.pending" (fun () -> fi (Netsim.Engine.pending engine));
  gauge "engine.pending_hwm" (fun () -> fi (Netsim.Engine.pending_hwm engine));
  gauge "engine.events_processed" (fun () ->
      fi (Netsim.Engine.events_processed engine));
  gauge "engine.compactions" (fun () ->
      fi (Netsim.Engine.compactions engine));
  (* Allocator pressure, read straight off Gc.quick_stat: a sampled
     timeline shows collections and heap high-water alongside the
     simulation counters. *)
  Obs.Prof.register_gc_gauges obs_registry;
  (* Wall-clock throughput between consecutive samples.  Only metered
     when the self-profiler is on: real-time rates would make metrics
     exports nondeterministic for ordinary runs. *)
  if Netsim.Prof.enabled () then begin
    let last_events = ref 0 and last_t = ref (Netsim.Prof.now_s ()) in
    gauge "engine.events_per_sec" (fun () ->
        let e = Netsim.Engine.events_processed engine in
        let t = Netsim.Prof.now_s () in
        let rate =
          if t > !last_t then fi (e - !last_events) /. (t -. !last_t) else 0.0
        in
        last_events := e;
        last_t := t;
        rate)
  end;
  let dpc = Lispdp.Dataplane.counters dataplane in
  gauge "dp.sent" (fun () -> fi dpc.Lispdp.Dataplane.sent);
  gauge "dp.delivered" (fun () -> fi dpc.Lispdp.Dataplane.delivered);
  gauge "dp.dropped" (fun () -> fi dpc.Lispdp.Dataplane.dropped);
  gauge "dp.held" (fun () -> fi dpc.Lispdp.Dataplane.held);
  gauge "dp.encapsulated" (fun () -> fi dpc.Lispdp.Dataplane.encapsulated);
  gauge "dp.decapsulated" (fun () -> fi dpc.Lispdp.Dataplane.decapsulated);
  gauge "dp.intra_domain" (fun () -> fi dpc.Lispdp.Dataplane.intra_domain);
  gauge "dp.delivered_bytes" (fun () -> fi dpc.Lispdp.Dataplane.delivered_bytes);
  Obs.Registry.register_many obs_registry "dp.drop" (fun () ->
      List.map
        (fun (cause, n) -> (cause, fi n))
        (Lispdp.Dataplane.drop_causes dataplane));
  Obs.Registry.register_many obs_registry "cache" (fun () ->
      cache_gauge_rows dataplane);
  (match telemetry with
  | None -> ()
  | Some tm ->
      (* Flow/cache occupancy travels through the same registry family
         the telemetry CLI renders, so `obs` and `telemetry` summaries
         read one source of truth. *)
      Obs.Registry.register_many obs_registry "flows" (fun () ->
          flow_gauge_rows dataplane);
      Obs.Telemetry.register_gauges obs_registry tm);
  let cps =
    match cp with
    | Pull_instance p -> Mapsys.Pull.stats p
    | Nerd_instance n -> Mapsys.Nerd.stats n
    | Cons_instance c -> Mapsys.Cons.stats c
    | Msmr_instance m -> Mapsys.Msmr.stats m
    | Pce_instance p -> Pce_control.stats p
  in
  gauge "cp.map_requests" (fun () -> fi cps.Mapsys.Cp_stats.map_requests);
  gauge "cp.map_replies" (fun () -> fi cps.Mapsys.Cp_stats.map_replies);
  gauge "cp.push_messages" (fun () -> fi cps.Mapsys.Cp_stats.push_messages);
  gauge "cp.control_bytes" (fun () -> fi cps.Mapsys.Cp_stats.control_bytes);
  gauge "cp.detoured_packets" (fun () ->
      fi cps.Mapsys.Cp_stats.detoured_packets);
  gauge "cp.resolutions" (fun () -> fi cps.Mapsys.Cp_stats.resolutions);
  gauge "cp.retransmissions" (fun () ->
      fi cps.Mapsys.Cp_stats.retransmissions);
  gauge "cp.timeouts" (fun () -> fi cps.Mapsys.Cp_stats.timeouts);
  (match faults with
  | None -> ()
  | Some f ->
      gauge "faults.losses" (fun () -> fi (Netsim.Faults.losses f));
      gauge "faults.blocked" (fun () -> fi (Netsim.Faults.blocked f)));
  let dnsc = Dnssim.System.counters dns in
  gauge "dns.client_queries" (fun () -> fi dnsc.Dnssim.System.client_queries);
  gauge "dns.iterative_queries" (fun () ->
      fi dnsc.Dnssim.System.iterative_queries);
  gauge "dns.responses" (fun () -> fi dnsc.Dnssim.System.responses);
  gauge "dns.cache_hits" (fun () -> fi dnsc.Dnssim.System.cache_hits);
  gauge "dns.cache_misses" (fun () -> fi dnsc.Dnssim.System.cache_misses);
  gauge "dns.wire_bytes" (fun () -> fi dnsc.Dnssim.System.wire_bytes);
  (match config.node_faults with
  | None -> ()
  | Some _ ->
      gauge "cp.bypasses" (fun () -> fi cps.Mapsys.Cp_stats.bypasses);
      gauge "cp.recoveries" (fun () -> fi cps.Mapsys.Cp_stats.recoveries);
      gauge "dns.tap_bypasses" (fun () ->
          fi dnsc.Dnssim.System.tap_bypasses);
      gauge "dns.outage_failures" (fun () ->
          fi dnsc.Dnssim.System.outage_failures);
      (match !fallback_pull with
      | None -> ()
      | Some pull ->
          let ps = Mapsys.Pull.stats pull in
          gauge "cp.fallback_resolutions" (fun () ->
              fi ps.Mapsys.Cp_stats.resolutions)));
  (match adversary with
  | None -> ()
  | Some adv ->
      gauge "adversary.forged_replies" (fun () ->
          fi (Netsim.Adversary.forged_replies adv));
      gauge "adversary.replayed_replies" (fun () ->
          fi (Netsim.Adversary.replayed_replies adv));
      gauge "adversary.poisoned_answers" (fun () ->
          fi (Netsim.Adversary.poisoned_answers adv));
      gauge "adversary.flood_packets" (fun () ->
          fi (Netsim.Adversary.flood_packets adv));
      gauge "cp.spoofed_accepted" (fun () ->
          fi cps.Mapsys.Cp_stats.spoofed_accepted);
      gauge "cp.spoofed_rejected" (fun () ->
          fi cps.Mapsys.Cp_stats.spoofed_rejected);
      gauge "cp.replayed_accepted" (fun () ->
          fi cps.Mapsys.Cp_stats.replayed_accepted);
      gauge "cp.replayed_rejected" (fun () ->
          fi cps.Mapsys.Cp_stats.replayed_rejected);
      gauge "dns.poisoned_accepted" (fun () ->
          fi dnsc.Dnssim.System.poisoned_accepted);
      gauge "dns.poisoned_rejected" (fun () ->
          fi dnsc.Dnssim.System.poisoned_rejected);
      gauge "cache.gleaned" (fun () ->
          fi (Lispdp.Dataplane.gleaned_total dataplane));
      gauge "cache.glean_rejections" (fun () ->
          fi
            (Lispdp.Dataplane.cache_stats_totals dataplane)
              .Lispdp.Map_cache.glean_rejections));
  let dns_time_hist = Obs.Registry.histogram obs_registry "conn.dns_time" in
  let setup_time_hist = Obs.Registry.histogram obs_registry "conn.setup_time" in
  (* Exporters installed by the CLI pick the scenario up here; without
     an installed runtime this is a no-op and the hub stays disabled. *)
  Obs.Runtime.attach
    ~label:(Option.value config.run_label ~default:(cp_label config.cp))
    ~hub:obs ~registry:obs_registry ();
  { config; engine; internet; dns; registry; dataplane; tcp; cp; rng; faults;
    lifecycle; adversary; fallback_pull = !fallback_pull; obs;
    obs_registry; dns_time_hist; setup_time_hist; connections_rev = [] }

let open_connection t ~flow ?data_packets ?data_bytes ?on_established
    ?on_complete () =
  let src_domain =
    match Topology.Builder.domain_of_eid t.internet flow.Flow.src with
    | Some d -> d
    | None -> invalid_arg "Scenario.open_connection: unknown source EID"
  in
  let dst_domain =
    match Topology.Builder.domain_of_eid t.internet flow.Flow.dst with
    | Some d -> d
    | None -> invalid_arg "Scenario.open_connection: unknown destination EID"
  in
  let dst_host =
    match Topology.Domain.host_of_eid dst_domain flow.Flow.dst with
    | Some i -> i
    | None -> invalid_arg "Scenario.open_connection: destination is not a host"
  in
  let src_host =
    match Topology.Domain.host_of_eid src_domain flow.Flow.src with
    | Some i -> i
    | None -> invalid_arg "Scenario.open_connection: source is not a host"
  in
  let qname =
    Dnssim.Name.of_string (Topology.Domain.host_name dst_domain dst_host)
  in
  let connection =
    { flow; opened_at = Netsim.Engine.now t.engine; dns_time = None;
      resolution_failed = false; tcp = None }
  in
  t.connections_rev <- connection :: t.connections_rev;
  (* Root marker for the span layer: setup starts here, with the DNS
     lookup; the matching close is Conn_established / Conn_failed. *)
  if Obs.Hub.enabled t.obs then
    Obs.Hub.emit t.obs ~actor:(src_domain.Topology.Domain.name ^ "-host")
      ~flow:(Obs.Event.flow_id flow)
      (Obs.Event.Conn_open { dst = flow.Flow.dst });
  let established _ =
    (match total_setup_time connection with
    | Some setup -> Obs.Registry.observe t.setup_time_hist setup
    | None -> ());
    match on_established with Some f -> f connection | None -> ()
  in
  Dnssim.System.resolve t.dns ~resolver:src_domain.Topology.Domain.dns
    ~client:src_domain.Topology.Domain.hosts.(src_host)
    ~client_eid:flow.Flow.src
    ?flow:
      (if Obs.Hub.enabled t.obs then Some (Obs.Event.flow_id flow) else None)
    qname
    ~callback:(fun answer ->
      let dns_time = Netsim.Engine.now t.engine -. connection.opened_at in
      connection.dns_time <- Some dns_time;
      Obs.Registry.observe t.dns_time_hist dns_time;
      match answer with
      | None ->
          connection.resolution_failed <- true;
          if Obs.Hub.enabled t.obs then
            Obs.Hub.emit t.obs
              ~actor:(src_domain.Topology.Domain.name ^ "-host")
              ~flow:(Obs.Event.flow_id flow)
              (Obs.Event.Conn_failed { reason = "resolution-failed" })
      | Some _addr ->
          let tcp_conn =
            Workload.Tcp.start_connection t.tcp ~flow ?data_packets
              ?data_bytes ~on_established:established
              ?on_complete:(Option.map (fun f _ -> f connection) on_complete)
              ()
          in
          connection.tcp <- Some tcp_conn);
  connection

let walkthrough t =
  let sink, events = Obs.Hub.memory_sink () in
  Obs.Hub.add_sink t.obs sink;
  Obs.Hub.set_enabled t.obs true;
  events

let run ?until t =
  Netsim.Engine.run ?until t.engine;
  (* Closing metrics sample for an installed exporter (no-op otherwise). *)
  Obs.Runtime.finish_run ~now:(Netsim.Engine.now t.engine)

let uplink_utilisation (_ : t) domain ~direction ~duration =
  Array.map
    (fun border ->
      let link = border.Topology.Domain.uplink in
      let router = border.Topology.Domain.router in
      let node =
        match direction with
        | `Outbound -> router
        | `Inbound -> Topology.Link.other_end link router
      in
      Topology.Link.utilisation_from link node ~duration)
    domain.Topology.Domain.borders

let reset_uplink_counters t =
  List.iter Topology.Link.reset_counters
    (Topology.Graph.links t.internet.Topology.Builder.graph)

let reregister t ~domain mapping =
  Mapsys.Registry.update_mapping t.registry domain mapping;
  match t.cp with
  | Nerd_instance nerd -> Mapsys.Nerd.push_update nerd ~domain mapping
  | Pull_instance pull -> Mapsys.Pull.notify_mapping_change pull ~domain
  | Cons_instance _ | Msmr_instance _ | Pce_instance _ -> ()

let set_uplink t ~domain ~border up =
  let d = t.internet.Topology.Builder.domains.(domain) in
  let b = d.Topology.Domain.borders.(border) in
  Topology.Graph.set_link_up t.internet.Topology.Builder.graph
    b.Topology.Domain.uplink up;
  if Obs.Hub.enabled t.obs then
    Obs.Hub.emit t.obs ~actor:(d.Topology.Domain.name ^ "-border")
      (if up then Obs.Event.Link_up { rloc = b.Topology.Domain.rloc }
       else Obs.Event.Link_down { rloc = b.Topology.Domain.rloc });
  (* The domain re-registers its mapping without (or again with) the
     affected locator. *)
  reregister t ~domain (Topology.Domain.advertised_mapping d ~ttl:t.config.mapping_ttl)

let fail_uplink t ~domain ~border = set_uplink t ~domain ~border false
let restore_uplink t ~domain ~border = set_uplink t ~domain ~border true
