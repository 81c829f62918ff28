open Nettypes

type pending = {
  client_eid : Ipv4.addr;
  ingress_rloc : Ipv4.addr;
  query_time : float;
}

type t = {
  domain : Topology.Domain.t;
  selector : Irc.Selector.t;
  pending : (Dnssim.Name.t, pending list) Hashtbl.t; (* newest first *)
  entries : (int * int, Mapping.flow_entry) Hashtbl.t;
  names : (Dnssim.Name.t, Ipv4.addr * Ipv4.addr * float) Hashtbl.t;
      (* qname -> (E_D, RLOC_D, expiry) *)
  advertised : (int * int, advertisement) Hashtbl.t; (* (eid, peer) *)
}

and advertisement = {
  adv_qname : Dnssim.Name.t;
  adv_eid : Ipv4.addr;
  adv_peer : Ipv4.addr;
  mutable adv_rloc : Ipv4.addr;
}

let create ~domain ~graph ~policy =
  { domain;
    selector = Irc.Selector.create ~domain ~graph ~policy;
    pending = Hashtbl.create 32; entries = Hashtbl.create 64;
    names = Hashtbl.create 64; advertised = Hashtbl.create 64 }

let domain t = t.domain
let selector t = t.selector

(* A crash loses everything held in memory: pending observations, the
   flow database, learned names, advertisement bookkeeping.  The IRC
   selector's EWMA load state survives only because the restarted PCE
   immediately re-observes load; resetting it too would be equally
   defensible but would perturb TE decisions for flows the crash never
   touched. *)
let reset t =
  Hashtbl.reset t.pending;
  Hashtbl.reset t.entries;
  Hashtbl.reset t.names;
  Hashtbl.reset t.advertised

let note_client_query t ~now ~client_eid ~qname =
  (* RLOC_S for the reverse direction, chosen by IRC on inbound load.
     The remote end is unknown at step 1, exactly as in the paper. *)
  let border =
    Irc.Selector.choose_ingress t.selector ~src:client_eid ~dst:client_eid
  in
  let entry =
    { client_eid; ingress_rloc = border.Topology.Domain.rloc; query_time = now }
  in
  let existing = Option.value ~default:[] (Hashtbl.find_opt t.pending qname) in
  Hashtbl.replace t.pending qname (entry :: existing)

let take_pending t ~qname =
  match Hashtbl.find_opt t.pending qname with
  | Some entries ->
      Hashtbl.remove t.pending qname;
      List.rev entries
  | None -> []

let pending_count t =
  Hashtbl.fold (fun _ l acc -> acc + List.length l) t.pending 0

let ingress_rloc_for_eid t ~eid ?peer () =
  let dst = Option.value peer ~default:eid in
  let border = Irc.Selector.choose_ingress t.selector ~src:eid ~dst in
  border.Topology.Domain.rloc

let key ~src_eid ~dst_eid = (Ipv4.addr_to_int src_eid, Ipv4.addr_to_int dst_eid)

let remember_entry t entry =
  Hashtbl.replace t.entries
    (key ~src_eid:entry.Mapping.src_eid ~dst_eid:entry.Mapping.dst_eid)
    entry

let find_entry t ~src_eid ~dst_eid = Hashtbl.find_opt t.entries (key ~src_eid ~dst_eid)
let entry_count t = Hashtbl.length t.entries

let learn_name_mapping t ~qname ~dst_eid ~dst_rloc ~now ~ttl =
  Hashtbl.replace t.names qname (dst_eid, dst_rloc, now +. ttl)

let record_advertisement t ~qname ~eid ~peer ~rloc =
  let key = (Ipv4.addr_to_int eid, Ipv4.addr_to_int peer) in
  match Hashtbl.find_opt t.advertised key with
  | Some adv -> adv.adv_rloc <- rloc
  | None ->
      Hashtbl.replace t.advertised key
        { adv_qname = qname; adv_eid = eid; adv_peer = peer; adv_rloc = rloc }

let advertisements_via t ~rloc =
  Hashtbl.fold
    (fun _ adv acc ->
      if Ipv4.addr_equal adv.adv_rloc rloc then adv :: acc else acc)
    t.advertised []

let entries_toward t ~dst_eid =
  Hashtbl.fold
    (fun _ e acc ->
      if Ipv4.addr_equal e.Mapping.dst_eid dst_eid then e :: acc else acc)
    t.entries []

let entries_with_src_rloc t ~rloc =
  Hashtbl.fold
    (fun _ e acc ->
      if Ipv4.addr_equal e.Mapping.src_rloc rloc then e :: acc else acc)
    t.entries []

let known_name t ~qname ~now =
  match Hashtbl.find_opt t.names qname with
  | Some (dst_eid, dst_rloc, expiry) when expiry > now -> Some (dst_eid, dst_rloc)
  | Some _ ->
      Hashtbl.remove t.names qname;
      None
  | None -> None
