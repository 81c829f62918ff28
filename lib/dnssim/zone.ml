type t = {
  apex : Name.t;
  server : Topology.Node.id;
  ttl : float;
  records : (Name.t, Nettypes.Ipv4.addr) Hashtbl.t;
  mutable delegations : (Name.t * Topology.Node.id) list;
}

let create ~apex ~server ~ttl =
  if ttl <= 0.0 then invalid_arg "Zone.create: non-positive TTL";
  { apex; server; ttl; records = Hashtbl.create 16; delegations = [] }

let server t = t.server
let ttl t = t.ttl

let add_a t name addr =
  if not (Name.in_zone name ~zone:t.apex) then
    invalid_arg
      (Printf.sprintf "Zone.add_a: %s outside zone %s" (Name.to_string name)
         (Name.to_string t.apex));
  Hashtbl.replace t.records name addr

let delegate t ~child_apex ~child_server =
  if
    (not (Name.in_zone child_apex ~zone:t.apex))
    || Name.equal child_apex t.apex
  then
    invalid_arg
      (Printf.sprintf "Zone.delegate: %s not below %s"
         (Name.to_string child_apex) (Name.to_string t.apex));
  t.delegations <- (child_apex, child_server) :: t.delegations

let record_count t = Hashtbl.length t.records

type answer =
  | Address of Nettypes.Ipv4.addr
  | Referral of Name.t * Topology.Node.id
  | Name_error

let answer t qname =
  if not (Name.in_zone qname ~zone:t.apex) then Name_error
  else
    match Hashtbl.find_opt t.records qname with
    | Some addr -> Address addr
    | None -> (
        (* Deepest delegation containing the query name wins. *)
        let best =
          List.fold_left
            (fun acc (child_apex, child_server) ->
              if Name.in_zone qname ~zone:child_apex then
                match acc with
                | Some (prev, _) when Name.label_count prev >= Name.label_count child_apex ->
                    acc
                | Some _ | None -> Some (child_apex, child_server)
              else acc)
            None t.delegations
        in
        match best with
        | Some (child_apex, child_server) -> Referral (child_apex, child_server)
        | None -> Name_error)

let answer_wire_size qname = function
  | Address _ -> 12 + Name.wire_size qname + 16
  | Referral (child, _) -> 12 + Name.wire_size qname + Name.wire_size child + 20
  | Name_error -> 12 + Name.wire_size qname
