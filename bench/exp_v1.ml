(* V1 — simulator validation: closed-form vs simulated timings.

   Every latency in the simulator is a sum of shortest-path legs and
   fixed processing delays, so the headline quantities have closed
   forms on the deterministic Figure-1 topology.  This experiment
   recomputes them analytically and checks the discrete-event results
   against them to the microsecond — the self-check that the measured
   tables rest on correct event mechanics. *)

open Core

let id = "v1"
let title = "V1: validation — analytic vs simulated timings (Figure 1)"

(* Closed-form cold T_DNS: client->resolver, three iterative legs
   (query + processing + response), resolver->client. *)
let analytic_t_dns internet =
  let as_s = internet.Topology.Builder.domains.(0) in
  let as_d = internet.Topology.Builder.domains.(1) in
  let lat = Topology.Builder.latency internet in
  let client = as_s.Topology.Domain.hosts.(0) in
  let resolver = as_s.Topology.Domain.dns in
  let leg server =
    (2.0 *. lat resolver server) +. Dnssim.System.server_processing
  in
  lat client resolver
  +. leg internet.Topology.Builder.root_dns
  +. leg internet.Topology.Builder.tld_dns
  +. leg as_d.Topology.Domain.dns
  +. lat resolver client

(* The PCE detour replaces the authoritative response leg: the answer
   travels DNS_D -> (ipc) -> PCE_D -> DNS_S wire -> (ipc at PCE_S,
   which also pushes) -> DNS_S. *)
let analytic_t_dns_pce internet options =
  let as_s = internet.Topology.Builder.domains.(0) in
  let as_d = internet.Topology.Builder.domains.(1) in
  let lat = Topology.Builder.latency internet in
  let resolver = as_s.Topology.Domain.dns in
  let direct_response = lat as_d.Topology.Domain.dns resolver in
  let via_pces =
    options.Pce_control.ipc_latency
    +. lat as_d.Topology.Domain.pce resolver
    +. options.Pce_control.ipc_latency
  in
  analytic_t_dns internet -. direct_response +. via_pces

(* Handshake under an always-mapped control plane: SYN out and SYN/ACK
   back over the LISP tunnels chosen by the data plane.  The borders
   are selected by flow hash (NERD) — recomputed here the same way. *)
let analytic_handshake internet flow =
  let as_s = internet.Topology.Builder.domains.(0) in
  let as_d = internet.Topology.Builder.domains.(1) in
  let lat = Topology.Builder.latency internet in
  let host_s = as_s.Topology.Domain.hosts.(0) in
  let host_d = as_d.Topology.Domain.hosts.(0) in
  let border domain f =
    domain.Topology.Domain.borders.(Nettypes.Flow.hash f
                                    mod Array.length domain.Topology.Domain.borders)
  in
  let registry_rloc domain f =
    (* select_rloc over the advertised mapping, as the ITR does *)
    let mapping = Topology.Domain.advertised_mapping domain ~ttl:60.0 in
    (Nettypes.Mapping.select_rloc mapping ~hash:(Nettypes.Flow.hash f))
      .Nettypes.Mapping.rloc_addr
  in
  let router_of internet rloc =
    match Topology.Builder.border_of_rloc internet rloc with
    | Some (d, i) -> d.Topology.Domain.borders.(i).Topology.Domain.router
    | None -> assert false
  in
  let fwd_itr = (border as_s flow).Topology.Domain.router in
  let fwd_etr = router_of internet (registry_rloc as_d flow) in
  let reverse = Nettypes.Flow.reverse flow in
  (* The reverse direction gleans: it exits AS_D through the ETR that
     received the SYN and tunnels back to the forward ITR. *)
  let syn = lat host_s fwd_itr +. lat fwd_itr fwd_etr +. lat fwd_etr host_d in
  ignore reverse;
  let syn_ack = lat host_d fwd_etr +. lat fwd_etr fwd_itr +. lat fwd_itr host_s in
  syn +. syn_ack

let tables () =
  let table =
    Metrics.Table.create ~title
      ~columns:[ "quantity"; "analytic (ms)"; "simulated (ms)"; "delta (us)" ]
  in
  let row label analytic simulated =
    Metrics.Table.add_row table
      [ label; Metrics.Table.cell_ms analytic; Metrics.Table.cell_ms simulated;
        Printf.sprintf "%.2f" ((simulated -. analytic) *. 1e6) ]
  in
  (* NERD run: T_DNS untouched, handshake over hash-chosen tunnels. *)
  let scenario =
    Scenario.build { Scenario.default_config with Scenario.cp = Scenario.Cp_nerd }
  in
  let internet = Scenario.internet scenario in
  let flow =
    Nettypes.Flow.create
      ~src:(Topology.Domain.host_eid internet.Topology.Builder.domains.(0) 0)
      ~dst:(Topology.Domain.host_eid internet.Topology.Builder.domains.(1) 0)
      ~src_port:46000 ()
  in
  let c = Scenario.open_connection scenario ~flow ~data_packets:1 () in
  Scenario.run scenario;
  row "T_DNS, cold (plain DNS)" (analytic_t_dns internet)
    (Option.value ~default:nan c.Scenario.dns_time);
  row "TCP handshake (always-mapped)" (analytic_handshake internet flow)
    (Option.value ~default:nan
       (Option.bind c.Scenario.tcp Workload.Tcp.handshake_time));
  (* PCE run: the detoured T_DNS. *)
  let options = Pce_control.default_options in
  let scenario2 =
    Scenario.build
      { Scenario.default_config with Scenario.cp = Scenario.Cp_pce options }
  in
  let internet2 = Scenario.internet scenario2 in
  let flow2 =
    Nettypes.Flow.create
      ~src:(Topology.Domain.host_eid internet2.Topology.Builder.domains.(0) 0)
      ~dst:(Topology.Domain.host_eid internet2.Topology.Builder.domains.(1) 0)
      ~src_port:46001 ()
  in
  let c2 = Scenario.open_connection scenario2 ~flow:flow2 ~data_packets:1 () in
  Scenario.run scenario2;
  row "T_DNS, cold (via both PCEs)"
    (analytic_t_dns_pce internet2 options)
    (Option.value ~default:nan c2.Scenario.dns_time);
  [ table ]

let print () = List.iter Metrics.Table.print (tables ())
