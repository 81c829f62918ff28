type t = {
  pull : Pull.t;
  internet : Topology.Builder.t;
  registry : Registry.t;
}

(* Per-delegation-hop lookup cost inside the mapping system. *)
let ddt_hop_latency = 0.010

let create ~engine ~internet ~registry ~alt ?faults ?retry ?nonce_rng ?adversary ?auth ?glean_cap ?obs () =
  (* The MR/MS complex sits in the first provider's core. *)
  let mr_node = internet.Topology.Builder.providers.(0).Topology.Builder.core in
  let graph = internet.Topology.Builder.graph in
  (* ITR -> MR, the delegation walk inside the mapping system, and the
     map-server's proxy reply MR -> ITR. *)
  let resolution_latency ~router ~dst_domain =
    ignore dst_domain;
    let itr = router.Lispdp.Dataplane.border.Topology.Domain.router in
    let leg a b =
      match Topology.Graph.latency_between graph a b with
      | l -> l
      | exception Not_found -> infinity
    in
    leg itr mr_node
    +. (float_of_int (Alt.depth alt) *. ddt_hop_latency)
    +. leg mr_node itr
  in
  let pull =
    Pull.create ~engine ~internet ~registry ~alt ~mode:Pull.Drop_while_pending
      ~name:"msmr" ~resolution_latency ?faults ?retry ?nonce_rng ?adversary
      ?auth ?glean_cap ?obs ()
  in
  { pull; internet; registry }

let control_plane t = Pull.control_plane t.pull
let stats t = Pull.stats t.pull

(* One map-register per border router, sized as a one-mapping database
   transfer. *)
let refresh_registrations t =
  let stats = Pull.stats t.pull in
  Array.iter
    (fun domain ->
      let mapping =
        Registry.mapping_of_domain t.registry domain.Topology.Domain.id
      in
      let bytes =
        Wire.Codec.size (Wire.Codec.Database_push { mappings = [ mapping ] })
      in
      Array.iter
        (fun _border ->
          stats.Cp_stats.push_messages <- stats.Cp_stats.push_messages + 1;
          stats.Cp_stats.control_bytes <- stats.Cp_stats.control_bytes + bytes)
        domain.Topology.Domain.borders)
    t.internet.Topology.Builder.domains

let attach t dataplane =
  Pull.attach t.pull dataplane;
  refresh_registrations t
