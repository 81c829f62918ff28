open Nettypes

type kind =
  | Dns_query of { qname : string }
  | Dns_reply of { qname : string; answered : bool }
  | Map_request of { eid : Ipv4.addr }
  | Map_reply of { eid : Ipv4.addr }
  | Cache_hit of { eid : Ipv4.addr }
  | Cache_miss of { eid : Ipv4.addr }
  | Cache_evict of { prefix : Ipv4.prefix }
  | Mapping_push of { targets : int }
  | Packet_drop of { cause : string }
  | Encap of { outer_src : Ipv4.addr; outer_dst : Ipv4.addr }
  | Decap of { outer_src : Ipv4.addr }
  | Irc_decision of { rloc : Ipv4.addr }
  | Link_up of { rloc : Ipv4.addr }
  | Link_down of { rloc : Ipv4.addr }
  | Cp_loss of { message : string }
  | Cp_retry of { eid : Ipv4.addr; attempt : int; message : string }
  | Cp_timeout of { eid : Ipv4.addr; message : string }
  | Conn_open of { dst : Ipv4.addr }
  | Conn_established
  | Conn_failed of { reason : string }
  | Syn_sent of { attempt : int }
  | Syn_received
  | Run_start of { label : string }
  | Note of string
  | Node_crash of { role : string }
  | Node_restart of { role : string }
  | Pce_bypass of { qname : string }
  | Degraded_to_pull of { eid : Ipv4.addr }
  | Spoofed_reply of { eid : Ipv4.addr; accepted : bool }
  | Replayed_reply of { eid : Ipv4.addr; accepted : bool }
  | Poisoned_answer of { qname : string; accepted : bool }
  | Glean_rejected of { eid : Ipv4.addr }
  | Ipc_query of { qname : string; client : Ipv4.addr }
  | Dns_iterate of { qname : string; server : string }
  | Answer_intercept of { qname : string; eid : Ipv4.addr; rloc : Ipv4.addr }
  | Answer_decap of { qname : string; pending : int }
  | Tuple_push of { entry : Mapping.flow_entry; targets : int }
  | Reverse_learn of { entry : Mapping.flow_entry }

type t = { time : float; actor : string; flow : int option; kind : kind }

(* Direction-insensitive flow identifier: the SYN and its SYN/ACK (a
   reversed 4-tuple) must correlate to the same id. *)
let flow_id (f : Flow.t) =
  let a = (Ipv4.addr_to_int f.Flow.src * 65536) + f.Flow.src_port in
  let b = (Ipv4.addr_to_int f.Flow.dst * 65536) + f.Flow.dst_port in
  let lo = Stdlib.min a b and hi = Stdlib.max a b in
  let mix acc x = (acc * 0x01000193) lxor x land max_int in
  List.fold_left mix 0x811C9DC5 [ lo; hi ]

let kind_name = function
  | Dns_query _ -> "dns_query"
  | Dns_reply _ -> "dns_reply"
  | Map_request _ -> "map_request"
  | Map_reply _ -> "map_reply"
  | Cache_hit _ -> "cache_hit"
  | Cache_miss _ -> "cache_miss"
  | Cache_evict _ -> "cache_evict"
  | Mapping_push _ -> "mapping_push"
  | Packet_drop _ -> "packet_drop"
  | Encap _ -> "encap"
  | Decap _ -> "decap"
  | Irc_decision _ -> "irc_decision"
  | Link_up _ -> "link_up"
  | Link_down _ -> "link_down"
  | Cp_loss _ -> "cp_loss"
  | Cp_retry _ -> "cp_retry"
  | Cp_timeout _ -> "cp_timeout"
  | Conn_open _ -> "conn_open"
  | Conn_established -> "conn_established"
  | Conn_failed _ -> "conn_failed"
  | Syn_sent _ -> "syn_sent"
  | Syn_received -> "syn_received"
  | Run_start _ -> "run_start"
  | Note _ -> "note"
  | Node_crash _ -> "node_crash"
  | Node_restart _ -> "node_restart"
  | Pce_bypass _ -> "pce_bypass"
  | Degraded_to_pull _ -> "degraded_to_pull"
  | Spoofed_reply _ -> "spoofed_reply"
  | Replayed_reply _ -> "replayed_reply"
  | Poisoned_answer _ -> "poisoned_answer"
  | Glean_rejected _ -> "glean_rejected"
  | Ipc_query _ -> "ipc_query"
  | Dns_iterate _ -> "dns_iterate"
  | Answer_intercept _ -> "answer_intercept"
  | Answer_decap _ -> "answer_decap"
  | Tuple_push _ -> "tuple_push"
  | Reverse_learn _ -> "reverse_learn"

let describe_kind = function
  | Dns_query { qname } -> Printf.sprintf "DNS query %s (step 1)" qname
  | Dns_reply { qname; answered } ->
      Printf.sprintf "DNS answer for %s %s" qname
        (if answered then "received (step 8)" else "failed")
  | Map_request { eid } ->
      Printf.sprintf "map-request for %s" (Ipv4.addr_to_string eid)
  | Map_reply { eid } ->
      Printf.sprintf "map-reply for %s" (Ipv4.addr_to_string eid)
  | Cache_hit { eid } ->
      Printf.sprintf "map-cache hit %s" (Ipv4.addr_to_string eid)
  | Cache_miss { eid } ->
      Printf.sprintf "map-cache miss %s" (Ipv4.addr_to_string eid)
  | Cache_evict { prefix } ->
      Printf.sprintf "map-cache evict %s" (Ipv4.prefix_to_string prefix)
  | Mapping_push { targets } ->
      Printf.sprintf "mapping push to %d target(s)" targets
  | Packet_drop { cause } -> Printf.sprintf "packet drop (%s)" cause
  | Encap { outer_src; outer_dst } ->
      Printf.sprintf "ITR tunnels %s => %s"
        (Ipv4.addr_to_string outer_src)
        (Ipv4.addr_to_string outer_dst)
  | Decap { outer_src } ->
      Printf.sprintf "ETR decapsulates from %s" (Ipv4.addr_to_string outer_src)
  | Irc_decision { rloc } ->
      Printf.sprintf "IRC egress decision: %s" (Ipv4.addr_to_string rloc)
  | Link_up { rloc } -> Printf.sprintf "link up (RLOC %s)" (Ipv4.addr_to_string rloc)
  | Link_down { rloc } ->
      Printf.sprintf "link down (RLOC %s)" (Ipv4.addr_to_string rloc)
  | Cp_loss { message } -> Printf.sprintf "control message lost (%s)" message
  | Cp_retry { eid; attempt; message } ->
      Printf.sprintf "retransmission %d of %s for %s" attempt message
        (Ipv4.addr_to_string eid)
  | Cp_timeout { eid; message } ->
      Printf.sprintf "%s timeout for %s" message (Ipv4.addr_to_string eid)
  | Conn_open { dst } ->
      Printf.sprintf "connection open to %s" (Ipv4.addr_to_string dst)
  | Conn_established -> "connection established"
  | Conn_failed { reason } -> Printf.sprintf "connection failed (%s)" reason
  | Syn_sent { attempt } -> Printf.sprintf "SYN sent (transmission %d)" attempt
  | Syn_received -> "first SYN reached the responder"
  | Run_start { label } -> Printf.sprintf "run start: %s" label
  | Note text -> text
  | Node_crash { role } -> Printf.sprintf "node crash: %s" role
  | Node_restart { role } -> Printf.sprintf "node restart: %s" role
  | Pce_bypass { qname } ->
      Printf.sprintf "DNS bypassed dead PCE for %s" qname
  | Degraded_to_pull { eid } ->
      Printf.sprintf "miss for %s: degrading to pull resolution"
        (Ipv4.addr_to_string eid)
  | Spoofed_reply { eid; accepted } ->
      Printf.sprintf "forged map-reply for %s %s" (Ipv4.addr_to_string eid)
        (if accepted then "accepted" else "rejected")
  | Replayed_reply { eid; accepted } ->
      Printf.sprintf "replayed map-reply for %s %s" (Ipv4.addr_to_string eid)
        (if accepted then "accepted" else "rejected")
  | Poisoned_answer { qname; accepted } ->
      Printf.sprintf "poisoned answer for %s %s" qname
        (if accepted then "accepted" else "rejected (authenticated)")
  | Glean_rejected { eid } ->
      Printf.sprintf "gleaned mapping for %s rejected by admission"
        (Ipv4.addr_to_string eid)
  | Ipc_query { qname; client } ->
      Printf.sprintf "step 1: IPC reveals query %s from %s" qname
        (Ipv4.addr_to_string client)
  | Dns_iterate { qname; server } ->
      Printf.sprintf "iterative query %s -> %s" qname server
  | Answer_intercept { qname; eid; rloc } ->
      Printf.sprintf
        "step 6: intercept and encapsulate DNS answer for %s with mapping %s \
         -> %s"
        qname (Ipv4.addr_to_string eid) (Ipv4.addr_to_string rloc)
  | Answer_decap { qname; pending } ->
      Printf.sprintf "step 7: decapsulate answer for %s; %d pending client(s)"
        qname pending
  | Tuple_push { entry; targets } ->
      Format.asprintf "step 7b: push %a to %d ITR(s)" Mapping.pp_flow_entry
        entry targets
  | Reverse_learn { entry } ->
      Format.asprintf "reverse mapping %a learned at ETR %a"
        Mapping.pp_flow_entry entry Ipv4.pp_addr entry.Mapping.src_rloc

let describe e = describe_kind e.kind

let to_json e =
  let addr a = Json.String (Ipv4.addr_to_string a) in
  let tuple (entry : Mapping.flow_entry) =
    [ ("src_eid", addr entry.src_eid); ("dst_eid", addr entry.dst_eid);
      ("src_rloc", addr entry.src_rloc); ("dst_rloc", addr entry.dst_rloc) ]
  in
  let payload =
    match e.kind with
    | Dns_query { qname } -> [ ("qname", Json.String qname) ]
    | Dns_reply { qname; answered } ->
        [ ("qname", Json.String qname); ("answered", Json.Bool answered) ]
    | Map_request { eid } | Map_reply { eid } -> [ ("eid", addr eid) ]
    | Cache_hit { eid } | Cache_miss { eid } -> [ ("eid", addr eid) ]
    | Cache_evict { prefix } ->
        [ ("prefix", Json.String (Ipv4.prefix_to_string prefix)) ]
    | Mapping_push { targets } -> [ ("targets", Json.Int targets) ]
    | Packet_drop { cause } -> [ ("cause", Json.String cause) ]
    | Encap { outer_src; outer_dst } ->
        [ ("outer_src", addr outer_src); ("outer_dst", addr outer_dst) ]
    | Decap { outer_src } -> [ ("outer_src", addr outer_src) ]
    | Irc_decision { rloc } | Link_up { rloc } | Link_down { rloc } ->
        [ ("rloc", addr rloc) ]
    | Cp_loss { message } -> [ ("message", Json.String message) ]
    | Cp_retry { eid; attempt; message } ->
        [ ("eid", addr eid); ("attempt", Json.Int attempt);
          ("message", Json.String message) ]
    | Cp_timeout { eid; message } ->
        [ ("eid", addr eid); ("message", Json.String message) ]
    | Conn_open { dst } -> [ ("dst", addr dst) ]
    | Conn_established -> []
    | Conn_failed { reason } -> [ ("reason", Json.String reason) ]
    | Syn_sent { attempt } -> [ ("attempt", Json.Int attempt) ]
    | Syn_received -> []
    | Run_start { label } -> [ ("label", Json.String label) ]
    | Note text -> [ ("text", Json.String text) ]
    | Node_crash { role } | Node_restart { role } ->
        [ ("role", Json.String role) ]
    | Pce_bypass { qname } -> [ ("qname", Json.String qname) ]
    | Degraded_to_pull { eid } -> [ ("eid", addr eid) ]
    | Spoofed_reply { eid; accepted } | Replayed_reply { eid; accepted } ->
        [ ("eid", addr eid); ("accepted", Json.Bool accepted) ]
    | Poisoned_answer { qname; accepted } ->
        [ ("qname", Json.String qname); ("accepted", Json.Bool accepted) ]
    | Glean_rejected { eid } -> [ ("eid", addr eid) ]
    | Ipc_query { qname; client } ->
        [ ("qname", Json.String qname); ("client", addr client) ]
    | Dns_iterate { qname; server } ->
        [ ("qname", Json.String qname); ("server", Json.String server) ]
    | Answer_intercept { qname; eid; rloc } ->
        [ ("qname", Json.String qname); ("eid", addr eid); ("rloc", addr rloc) ]
    | Answer_decap { qname; pending } ->
        [ ("qname", Json.String qname); ("pending", Json.Int pending) ]
    | Tuple_push { entry; targets } ->
        tuple entry @ [ ("targets", Json.Int targets) ]
    | Reverse_learn { entry } -> tuple entry
  in
  Json.Obj
    ([ ("time", Json.Float e.time); ("actor", Json.String e.actor);
       ("kind", Json.String (kind_name e.kind)) ]
    @ (match e.flow with Some id -> [ ("flow", Json.Int id) ] | None -> [])
    @ payload)

let of_json json =
  let ( let* ) x f = match x with Some v -> f v | None -> Error "bad event" in
  let field name conv = Option.bind (Json.member name json) conv in
  let* time = field "time" Json.to_float_opt in
  let* actor = field "actor" Json.to_string_opt in
  let* kind_str = field "kind" Json.to_string_opt in
  let flow = field "flow" Json.to_int_opt in
  (* Payload readers: [let+ ... and+ ...] is [Some] only when every
     field is present and well-formed. *)
  let ( let+ ) x f = Option.map f x in
  let ( and+ ) a b =
    match (a, b) with Some a, Some b -> Some (a, b) | _ -> None
  in
  let str name = field name Json.to_string_opt in
  let int name = field name Json.to_int_opt in
  let bool name = field name Json.to_bool_opt in
  let parsed of_string name =
    Option.bind (str name) (fun s -> try Some (of_string s) with _ -> None)
  in
  let addr = parsed Ipv4.addr_of_string in
  let tuple () =
    let+ src_eid = addr "src_eid" and+ dst_eid = addr "dst_eid"
    and+ src_rloc = addr "src_rloc" and+ dst_rloc = addr "dst_rloc" in
    { Mapping.src_eid; dst_eid; src_rloc; dst_rloc }
  in
  (* [message] is absent in pre-span JSONL streams: default it so old
     files keep parsing. *)
  let message () = Option.value ~default:"map-request" (str "message") in
  let kind =
    match kind_str with
    | "dns_query" -> let+ qname = str "qname" in Dns_query { qname }
    | "dns_reply" ->
        let+ qname = str "qname" and+ answered = bool "answered" in
        Dns_reply { qname; answered }
    | "map_request" -> let+ eid = addr "eid" in Map_request { eid }
    | "map_reply" -> let+ eid = addr "eid" in Map_reply { eid }
    | "cache_hit" -> let+ eid = addr "eid" in Cache_hit { eid }
    | "cache_miss" -> let+ eid = addr "eid" in Cache_miss { eid }
    | "cache_evict" ->
        let+ prefix = parsed Ipv4.prefix_of_string "prefix" in
        Cache_evict { prefix }
    | "mapping_push" -> let+ targets = int "targets" in Mapping_push { targets }
    | "packet_drop" -> let+ cause = str "cause" in Packet_drop { cause }
    | "encap" ->
        let+ outer_src = addr "outer_src" and+ outer_dst = addr "outer_dst" in
        Encap { outer_src; outer_dst }
    | "decap" -> let+ outer_src = addr "outer_src" in Decap { outer_src }
    | "irc_decision" -> let+ rloc = addr "rloc" in Irc_decision { rloc }
    | "link_up" -> let+ rloc = addr "rloc" in Link_up { rloc }
    | "link_down" -> let+ rloc = addr "rloc" in Link_down { rloc }
    | "cp_loss" -> let+ message = str "message" in Cp_loss { message }
    | "cp_retry" ->
        let+ eid = addr "eid" and+ attempt = int "attempt" in
        Cp_retry { eid; attempt; message = message () }
    | "cp_timeout" ->
        let+ eid = addr "eid" in
        Cp_timeout { eid; message = message () }
    | "conn_open" -> let+ dst = addr "dst" in Conn_open { dst }
    | "conn_established" -> Some Conn_established
    | "conn_failed" -> let+ reason = str "reason" in Conn_failed { reason }
    | "syn_sent" -> let+ attempt = int "attempt" in Syn_sent { attempt }
    | "syn_received" -> Some Syn_received
    | "run_start" -> let+ label = str "label" in Run_start { label }
    | "note" -> let+ text = str "text" in Note text
    | "node_crash" -> let+ role = str "role" in Node_crash { role }
    | "node_restart" -> let+ role = str "role" in Node_restart { role }
    | "pce_bypass" -> let+ qname = str "qname" in Pce_bypass { qname }
    | "degraded_to_pull" -> let+ eid = addr "eid" in Degraded_to_pull { eid }
    | "spoofed_reply" ->
        let+ eid = addr "eid" and+ accepted = bool "accepted" in
        Spoofed_reply { eid; accepted }
    | "replayed_reply" ->
        let+ eid = addr "eid" and+ accepted = bool "accepted" in
        Replayed_reply { eid; accepted }
    | "poisoned_answer" ->
        let+ qname = str "qname" and+ accepted = bool "accepted" in
        Poisoned_answer { qname; accepted }
    | "glean_rejected" -> let+ eid = addr "eid" in Glean_rejected { eid }
    | "ipc_query" ->
        let+ qname = str "qname" and+ client = addr "client" in
        Ipc_query { qname; client }
    | "dns_iterate" ->
        let+ qname = str "qname" and+ server = str "server" in
        Dns_iterate { qname; server }
    | "answer_intercept" ->
        let+ qname = str "qname" and+ eid = addr "eid"
        and+ rloc = addr "rloc" in
        Answer_intercept { qname; eid; rloc }
    | "answer_decap" ->
        let+ qname = str "qname" and+ pending = int "pending" in
        Answer_decap { qname; pending }
    | "tuple_push" ->
        let+ entry = tuple () and+ targets = int "targets" in
        Tuple_push { entry; targets }
    | "reverse_learn" -> let+ entry = tuple () in Reverse_learn { entry }
    | _ -> None
  in
  match kind with
  | Some kind -> Ok { time; actor; flow; kind }
  | None -> Error (Printf.sprintf "bad or unknown event kind %S" kind_str)
