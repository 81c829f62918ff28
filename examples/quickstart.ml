(* Quickstart: the paper's Figure 1, step by step.

   Builds the two-domain scenario (AS_S multihomed to providers A and B,
   AS_D to X and Y), runs one DNS-then-TCP connection under the
   PCE-based control plane, and prints the full event trace: the client
   query (step 1), the iterative resolution (steps 2-5), PCE_D's
   interception and encapsulation of the final answer (step 6), PCE_S's
   decapsulation and ITR configuration (steps 7a/7b), the answer
   reaching the client (step 8), and finally the TCP handshake flowing
   through tunnels that were ready before the first SYN left the host.

   Run with:  dune exec examples/quickstart.exe *)

open Core

let () =
  let scenario = Scenario.build Scenario.default_config in
  let walkthrough = Scenario.walkthrough scenario in

  let internet = Scenario.internet scenario in
  let as_s = internet.Topology.Builder.domains.(0) in
  let as_d = internet.Topology.Builder.domains.(1) in
  Format.printf "Topology (the paper's Figure 1):@.";
  Array.iter
    (fun d ->
      Format.printf "  %a@." Topology.Domain.pp d;
      Array.iter
        (fun b ->
          let p = internet.Topology.Builder.providers.(b.Topology.Domain.provider) in
          Format.printf "    border %a via provider %s (%a)@."
            Nettypes.Ipv4.pp_addr b.Topology.Domain.rloc
            p.Topology.Builder.provider_name Nettypes.Ipv4.pp_prefix
            p.Topology.Builder.prefix)
        d.Topology.Domain.borders)
    internet.Topology.Builder.domains;
  Format.printf "@.";

  (* The client behaviour of the paper: resolve h0.as1.net., then
     connect. *)
  let flow =
    Nettypes.Flow.create
      ~src:(Topology.Domain.host_eid as_s 0)
      ~dst:(Topology.Domain.host_eid as_d 0)
      ~src_port:40000 ()
  in
  Format.printf "Opening %a (resolves %s first)@.@." Nettypes.Flow.pp flow
    (Topology.Domain.host_name as_d 0);
  let connection = Scenario.open_connection scenario ~flow ~data_packets:3 () in
  Scenario.run scenario;

  Format.printf "Event trace:@.%a@." Netsim.Trace.pp walkthrough;

  let counters = Lispdp.Dataplane.counters (Scenario.dataplane scenario) in
  let dns = Option.value ~default:nan connection.Scenario.dns_time in
  let handshake =
    Option.value ~default:nan
      (Option.bind connection.Scenario.tcp Workload.Tcp.handshake_time)
  in
  Format.printf "Results:@.";
  Format.printf "  T_DNS (cold)         : %.1f ms@." (dns *. 1e3);
  Format.printf "  TCP handshake        : %.1f ms@." (handshake *. 1e3);
  Format.printf "  total setup          : %.1f ms@."
    ((Option.value ~default:nan (Scenario.total_setup_time connection)) *. 1e3);
  Format.printf "  packets dropped      : %d  <- claim (i): none@."
    counters.Lispdp.Dataplane.dropped;
  Format.printf "  mapping overhead     : %.2f ms beyond T_DNS  <- claim (ii)@."
    (((Option.value ~default:nan (Scenario.total_setup_time connection))
     -. dns -. handshake)
    *. 1e3);
  Format.printf
    "  control messages     : %d (1 encapsulated answer + ITR pushes)@."
    (Mapsys.Cp_stats.message_total (Scenario.cp_stats scenario))
