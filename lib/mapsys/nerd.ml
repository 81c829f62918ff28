open Nettypes

type t = {
  engine : Netsim.Engine.t;
  internet : Topology.Builder.t;
  registry : Registry.t;
  propagation_delay : float;
  stats : Cp_stats.t;
  faults : Netsim.Faults.t option;
  mutable dataplane : Lispdp.Dataplane.t option;
  obs : Obs.Hub.t;
}

(* Database entries are permanent until replaced; give them an expiry far
   beyond any simulation horizon. *)
let database_ttl = 1e12

let create ~engine ~internet ~registry ?(propagation_delay = 30.0) ?faults ?obs
    () =
  { engine; internet; registry; propagation_delay; stats = Cp_stats.create ();
    faults; dataplane = None; obs = Obs.Hub.or_disabled ~engine obs }

(* NERD distribution is mapping-system work: charge the deferred
   install fan-out to the shared "map_resolution" phase. *)
let ph_map = Netsim.Prof.phase "map_resolution"

let stats t = t.stats
let database_entries_per_router t = Registry.size t.registry

let dataplane_exn t =
  match t.dataplane with
  | Some dp -> dp
  | None -> invalid_arg "Nerd: control plane used before attach"

let eternal mapping = { mapping with Mapping.ttl = database_ttl }

let router_count t =
  Array.fold_left
    (fun acc d -> acc + Array.length d.Topology.Domain.borders)
    0 t.internet.Topology.Builder.domains

let install_everywhere t mapping =
  let dp = dataplane_exn t in
  Array.iter
    (fun domain -> Lispdp.Dataplane.install_mapping_all dp domain (eternal mapping))
    t.internet.Topology.Builder.domains

let attach t dataplane =
  (match t.dataplane with
  | Some _ -> invalid_arg "Nerd.attach: already attached"
  | None -> t.dataplane <- Some dataplane);
  Registry.iter t.registry ~f:(fun _ mapping -> install_everywhere t mapping);
  let routers = router_count t in
  t.stats.Cp_stats.push_messages <- t.stats.Cp_stats.push_messages + routers;
  (* One full-database transfer per router, at its real encoded size. *)
  t.stats.Cp_stats.control_bytes <-
    t.stats.Cp_stats.control_bytes
    + (routers * Registry.total_wire_bytes t.registry);
  if Obs.Hub.enabled t.obs then
    Obs.Hub.emit t.obs ~actor:"nerd"
      (Obs.Event.Mapping_push { targets = routers })

let push_update t ~domain mapping =
  Registry.update_mapping t.registry domain mapping;
  let routers = router_count t in
  let update_bytes =
    Wire.Codec.size (Wire.Codec.Database_push { mappings = [ mapping ] })
  in
  t.stats.Cp_stats.push_messages <- t.stats.Cp_stats.push_messages + routers;
  t.stats.Cp_stats.control_bytes <-
    t.stats.Cp_stats.control_bytes + (routers * update_bytes);
  if Obs.Hub.enabled t.obs then
    Obs.Hub.emit t.obs ~actor:"nerd"
      (Obs.Event.Mapping_push { targets = routers });
  ignore
    (Netsim.Engine.schedule t.engine ~delay:t.propagation_delay
       (Netsim.Prof.wrap ph_map (fun () ->
         match t.faults with
         | None -> install_everywhere t mapping
         | Some faults ->
             (* Per-domain delivery: a domain that loses the update keeps
                serving the stale mapping (NERD distribution has no
                acknowledgement; the next full refresh repairs it). *)
             let dp = dataplane_exn t in
             let now = Netsim.Engine.now t.engine in
             Array.iter
               (fun d ->
                 let id = d.Topology.Domain.id in
                 if
                   id <> domain
                   && Netsim.Faults.drops_message faults ~now ~src:domain
                        ~dst:id
                 then begin
                   if Obs.Hub.enabled t.obs then
                     Obs.Hub.emit t.obs ~actor:"nerd"
                       (Obs.Event.Cp_loss { message = "nerd-push" })
                 end
                 else
                   Lispdp.Dataplane.install_mapping_all dp d (eternal mapping))
               t.internet.Topology.Builder.domains)))

let choose_egress ~src_domain flow =
  let borders = src_domain.Topology.Domain.borders in
  borders.(Flow.hash flow mod Array.length borders)

let control_plane (_ : t) =
  { Lispdp.Dataplane.cp_name = "nerd-push";
    cp_choose_egress = (fun ~src_domain flow -> choose_egress ~src_domain flow);
    cp_handle_miss =
      (fun _router _packet ->
        Lispdp.Dataplane.Miss_drop Netsim.Drop.Nerd_database_miss);
    cp_note_etr_packet = (fun _router ~outer_src:_ _packet -> ()) }
