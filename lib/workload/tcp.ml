open Nettypes

type conn = {
  flow : Flow.t;
  started_at : float;
  mutable established_at : float option;
  mutable failed : bool;
  mutable syn_transmissions : int;
  mutable first_syn_arrival : float option;
  mutable data_sent : int;
  mutable data_delivered : int;
  mutable completed_at : float option;
}

type conn_state = {
  conn : conn;
  data_packets : int;
  data_bytes : int;
  on_established : (conn -> unit) option;
  on_complete : (conn -> unit) option;
  mutable rto_timer : Netsim.Engine.handle option;
}

type t = {
  engine : Netsim.Engine.t;
  dataplane : Lispdp.Dataplane.t;
  data_gap : float;
  obs : Obs.Hub.t;
  (* Keyed by the initiator-side flow. *)
  states : (Flow.t, conn_state) Hashtbl.t;
}

(* Handshake events feed the span layer; each is emitted as the host
   it happens at.  Call sites test [Obs.Hub.enabled] first, so a
   disabled run allocates nothing. *)
let host_actor t eid =
  match
    Topology.Builder.domain_of_eid (Lispdp.Dataplane.internet t.dataplane) eid
  with
  | Some d -> d.Topology.Domain.name ^ "-host"
  | None -> "host"

let handshake_time conn =
  Option.map (fun e -> e -. conn.started_at) conn.established_at

(* Demultiplex a packet delivered to a host.  A packet whose flow is a
   key in [states] travels responder -> initiator (the responder swaps
   the flow when replying); the initiator-to-responder direction
   arrives with the reversed key. *)
let rec on_receive t packet =
  let flow = packet.Packet.flow in
  let now = Netsim.Engine.now t.engine in
  match packet.Packet.segment with
  | Packet.Syn -> (
      (* Arrived at the responder; the packet carries the initiator's
         flow, which is exactly the state key. *)
      match Hashtbl.find_opt t.states flow with
      | None -> () (* stray SYN; no listener state *)
      | Some st ->
          if st.conn.first_syn_arrival = None then begin
            st.conn.first_syn_arrival <- Some now;
            if Obs.Hub.enabled t.obs then
              Obs.Hub.emit t.obs ~actor:(host_actor t flow.Flow.dst)
                ~flow:(Obs.Event.flow_id flow) Obs.Event.Syn_received
          end;
          (* Reply SYN/ACK on the reversed flow. *)
          let reply =
            Packet.make ~flow:(Flow.reverse flow) ~segment:Packet.Syn_ack
              ~sent_at:now
          in
          Lispdp.Dataplane.send_from_host t.dataplane reply)
  | Packet.Ack -> () (* handshake-completing ACK at the responder *)
  | Packet.Syn_ack -> (
      (* Arrived back at the initiator on the reversed flow. *)
      match Hashtbl.find_opt t.states (Flow.reverse flow) with
      | None -> ()
      | Some st ->
          if st.conn.established_at = None && not st.conn.failed then begin
            st.conn.established_at <- Some now;
            if Obs.Hub.enabled t.obs then
              Obs.Hub.emit t.obs ~actor:(host_actor t st.conn.flow.Flow.src)
                ~flow:(Obs.Event.flow_id st.conn.flow)
                Obs.Event.Conn_established;
            (match st.rto_timer with
            | Some h ->
                Netsim.Engine.cancel t.engine h;
                st.rto_timer <- None
            | None -> ());
            let ack = Packet.make ~flow ~segment:Packet.Ack ~sent_at:now in
            Lispdp.Dataplane.send_from_host t.dataplane ack;
            (match st.on_established with Some f -> f st.conn | None -> ());
            send_data t st 0
          end)
  | Packet.Data _ -> (
      match Hashtbl.find_opt t.states flow with
      | None -> ()
      | Some st ->
          st.conn.data_delivered <- st.conn.data_delivered + 1;
          if
            st.conn.data_delivered = st.data_packets
            && st.conn.completed_at = None
          then begin
            st.conn.completed_at <- Some now;
            match st.on_complete with Some f -> f st.conn | None -> ()
          end)
  | Packet.Fin -> ()

and send_data t st i =
  if i < st.data_packets then begin
    let packet =
      Packet.make ~flow:st.conn.flow ~segment:(Packet.Data st.data_bytes)
        ~sent_at:(Netsim.Engine.now t.engine)
    in
    st.conn.data_sent <- st.conn.data_sent + 1;
    Lispdp.Dataplane.send_from_host t.dataplane packet;
    ignore
      (Netsim.Engine.schedule t.engine ~delay:t.data_gap (fun () ->
           send_data t st (i + 1)))
  end

(* RFC 6298 style SYN retransmission: the timer starts at 1 s and
   doubles, for at most 6 retransmissions. *)
let initial_rto = 1.0
let max_syn_retries = 6

let create ~engine ~dataplane ?(data_gap = 0.002) ?obs () =
  let t =
    { engine; dataplane; data_gap;
      obs = Obs.Hub.or_disabled ~engine obs;
      states = Hashtbl.create 256 }
  in
  let internet = Lispdp.Dataplane.internet dataplane in
  Array.iter
    (fun domain ->
      Array.iteri
        (fun i _ ->
          Lispdp.Dataplane.set_host_receiver dataplane
            (Topology.Domain.host_eid domain i)
            (Some (fun packet -> on_receive t packet)))
        domain.Topology.Domain.hosts)
    internet.Topology.Builder.domains;
  t

let rec send_syn t st ~attempt =
  let now = Netsim.Engine.now t.engine in
  let syn = Packet.make ~flow:st.conn.flow ~segment:Packet.Syn ~sent_at:now in
  st.conn.syn_transmissions <- st.conn.syn_transmissions + 1;
  if Obs.Hub.enabled t.obs then
    Obs.Hub.emit t.obs ~actor:(host_actor t st.conn.flow.Flow.src)
      ~flow:(Obs.Event.flow_id st.conn.flow)
      (Obs.Event.Syn_sent { attempt = attempt + 1 });
  Lispdp.Dataplane.send_from_host t.dataplane syn;
  let rto = initial_rto *. (2.0 ** float_of_int attempt) in
  st.rto_timer <-
    Some
      (Netsim.Engine.schedule t.engine ~delay:rto (fun () ->
           st.rto_timer <- None;
           if st.conn.established_at = None then
             if attempt + 1 > max_syn_retries then begin
               st.conn.failed <- true;
               if Obs.Hub.enabled t.obs then
                 Obs.Hub.emit t.obs ~actor:(host_actor t st.conn.flow.Flow.src)
                   ~flow:(Obs.Event.flow_id st.conn.flow)
                   (Obs.Event.Conn_failed { reason = "syn-retries-exhausted" })
             end
             else send_syn t st ~attempt:(attempt + 1)))

let start_connection t ~flow ?(data_packets = 10) ?(data_bytes = 1200)
    ?on_established ?on_complete () =
  if Hashtbl.mem t.states flow then
    invalid_arg "Tcp.start_connection: flow already active";
  let conn =
    { flow; started_at = Netsim.Engine.now t.engine; established_at = None;
      failed = false; syn_transmissions = 0; first_syn_arrival = None;
      data_sent = 0; data_delivered = 0; completed_at = None }
  in
  let st =
    { conn; data_packets; data_bytes; on_established; on_complete;
      rto_timer = None }
  in
  Hashtbl.replace t.states flow st;
  send_syn t st ~attempt:0;
  conn
