(* Control-plane cost counters: each control-plane instance owns one
   [t] and bumps it in place. *)
type t = {
  mutable map_requests : int;
  mutable map_replies : int;
  mutable push_messages : int;
  mutable control_bytes : int;
  mutable detoured_packets : int;
  mutable resolutions : int;
  mutable retransmissions : int;
  mutable timeouts : int;
  mutable bypasses : int;
  mutable recoveries : int;
  mutable spoofed_accepted : int;
  mutable spoofed_rejected : int;
  mutable replayed_accepted : int;
  mutable replayed_rejected : int;
}

let create () =
  { map_requests = 0; map_replies = 0; push_messages = 0; control_bytes = 0;
    detoured_packets = 0; resolutions = 0; retransmissions = 0; timeouts = 0;
    bypasses = 0; recoveries = 0; spoofed_accepted = 0; spoofed_rejected = 0;
    replayed_accepted = 0; replayed_rejected = 0 }

let message_total t = t.map_requests + t.map_replies + t.push_messages

let pp ppf t =
  Format.fprintf ppf
    "req=%d rep=%d push=%d bytes=%d detour=%d resolved=%d retx=%d timeout=%d \
     bypass=%d recover=%d"
    t.map_requests t.map_replies t.push_messages t.control_bytes
    t.detoured_packets t.resolutions t.retransmissions t.timeouts t.bypasses
    t.recoveries;
  (* Adversary verdicts only appear when an attack actually ran, so
     attack-free summaries stay byte-identical to pre-adversary output. *)
  if
    t.spoofed_accepted + t.spoofed_rejected + t.replayed_accepted
    + t.replayed_rejected
    > 0
  then
    Format.fprintf ppf " spoof=%d/%d replay=%d/%d" t.spoofed_accepted
      (t.spoofed_accepted + t.spoofed_rejected)
      t.replayed_accepted
      (t.replayed_accepted + t.replayed_rejected)
