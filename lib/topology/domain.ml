open Nettypes

type border = {
  router : Node.id;
  rloc : Ipv4.addr;
  provider : int;
  uplink : Link.t;
}

type t = {
  id : int;
  name : string;
  eid_prefix : Ipv4.prefix;
  hosts : Node.id array;
  borders : border array;
  hub : Node.id;
  dns : Node.id;
  pce : Node.id;
}

let pp ppf t =
  Format.fprintf ppf "%s eid=%a hosts=%d borders=%d" t.name Ipv4.pp_prefix
    t.eid_prefix (Array.length t.hosts) (Array.length t.borders)

let host_eid t i =
  if i < 0 || i >= Array.length t.hosts then
    invalid_arg "Domain.host_eid: no such host";
  Ipv4.prefix_nth t.eid_prefix (i + 1)

let owns_eid t addr = Ipv4.prefix_mem t.eid_prefix addr

let host_index t addr =
  if not (owns_eid t addr) then -1
  else
    let i =
      Ipv4.addr_to_int addr
      - Ipv4.addr_to_int (Ipv4.prefix_network t.eid_prefix)
      - 1
    in
    if i >= 0 && i < Array.length t.hosts then i else -1

let rlocs t = Array.to_list (Array.map (fun b -> b.rloc) t.borders)

let advertised_mapping t ~ttl =
  (* A domain only registers locators whose access link is alive; after
     an uplink failure, re-registration drops the dead RLOC. *)
  let live =
    List.filter (fun b -> Link.is_up b.uplink) (Array.to_list t.borders)
  in
  let live = if live = [] then Array.to_list t.borders else live in
  let total_capacity =
    List.fold_left (fun acc b -> acc +. Link.capacity_bps b.uplink) 0.0 live
  in
  let rloc_records =
    List.map
      (fun b ->
        let weight =
          int_of_float (100.0 *. Link.capacity_bps b.uplink /. total_capacity)
        in
        Mapping.rloc ~priority:1 ~weight:(Stdlib.max 1 weight) b.rloc)
      live
  in
  Mapping.create ~eid_prefix:t.eid_prefix ~rlocs:rloc_records ~ttl

let fqdn t = t.name ^ ".net."
let host_name t i = "h" ^ string_of_int i ^ "." ^ fqdn t
