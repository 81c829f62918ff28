type rloc = { rloc_addr : Ipv4.addr; priority : int; weight : int }

let rloc ?(priority = 1) ?(weight = 100) rloc_addr = { rloc_addr; priority; weight }

let pp_rloc ppf r =
  Format.fprintf ppf "%a(p%d/w%d)" Ipv4.pp_addr r.rloc_addr r.priority r.weight

type t = { eid_prefix : Ipv4.prefix; rlocs : rloc list; ttl : float }

let create ~eid_prefix ~rlocs ~ttl =
  if rlocs = [] then invalid_arg "Mapping.create: empty RLOC list";
  if ttl <= 0.0 then invalid_arg "Mapping.create: non-positive TTL";
  { eid_prefix; rlocs; ttl }

let pp ppf m =
  Format.fprintf ppf "%a -> [%a] ttl=%gs" Ipv4.pp_prefix m.eid_prefix
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ")
       pp_rloc)
    m.rlocs m.ttl

let covers m addr = Ipv4.prefix_mem m.eid_prefix addr

let best_rlocs m =
  let best_priority =
    List.fold_left (fun acc r -> Stdlib.min acc r.priority) max_int m.rlocs
  in
  List.filter (fun r -> r.priority = best_priority) m.rlocs

let select_rloc m ~hash =
  let candidates = best_rlocs m in
  let total = List.fold_left (fun acc r -> acc + Stdlib.max 1 r.weight) 0 candidates in
  let target = (hash land max_int) mod total in
  let rec pick acc = function
    | [] -> assert false
    | [ last ] -> ignore acc; last
    | r :: rest ->
        let acc = acc + Stdlib.max 1 r.weight in
        if target < acc then r else pick acc rest
  in
  pick 0 candidates

let wire_size m = 12 + (12 * List.length m.rlocs)

type flow_entry = {
  src_eid : Ipv4.addr;
  dst_eid : Ipv4.addr;
  src_rloc : Ipv4.addr;
  dst_rloc : Ipv4.addr;
}

let pp_flow_entry ppf e =
  Format.fprintf ppf "(%a -> %a via %a => %a)" Ipv4.pp_addr e.src_eid
    Ipv4.pp_addr e.dst_eid Ipv4.pp_addr e.src_rloc Ipv4.pp_addr e.dst_rloc

