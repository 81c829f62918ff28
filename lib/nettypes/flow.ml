type proto = Tcp | Udp

let pp_proto ppf = function
  | Tcp -> Format.pp_print_string ppf "tcp"
  | Udp -> Format.pp_print_string ppf "udp"

module T = struct
  type t = {
    src : Ipv4.addr;
    dst : Ipv4.addr;
    src_port : int;
    dst_port : int;
    proto : proto;
  }

  let compare a b =
    let c = Ipv4.addr_compare a.src b.src in
    if c <> 0 then c
    else
      let c = Ipv4.addr_compare a.dst b.dst in
      if c <> 0 then c
      else
        let c = Int.compare a.src_port b.src_port in
        if c <> 0 then c
        else
          let c = Int.compare a.dst_port b.dst_port in
          if c <> 0 then c else Stdlib.compare a.proto b.proto
end

include T

let create ~src ~dst ?(src_port = 0) ?(dst_port = 80) ?(proto = Tcp) () =
  { src; dst; src_port; dst_port; proto }

let equal a b = compare a b = 0

(* FNV-style fold over the five fields, in field order, written out so
   that no list of them is built. *)
let[@inline] mix acc x = (acc * 0x01000193) lxor x land max_int

let hash_fields ~src ~dst ~src_port ~dst_port proto =
  let acc = mix 0x811C9DC5 (Ipv4.addr_to_int src) in
  let acc = mix acc (Ipv4.addr_to_int dst) in
  let acc = mix acc src_port in
  let acc = mix acc dst_port in
  mix acc (match proto with Tcp -> 6 | Udp -> 17)

let hash t =
  hash_fields ~src:t.src ~dst:t.dst ~src_port:t.src_port ~dst_port:t.dst_port
    t.proto

let reverse t =
  { src = t.dst; dst = t.src; src_port = t.dst_port; dst_port = t.src_port;
    proto = t.proto }

let pp ppf t =
  Format.fprintf ppf "%a:%d -> %a:%d/%a" Ipv4.pp_addr t.src t.src_port
    Ipv4.pp_addr t.dst t.dst_port pp_proto t.proto

module Set = Set.Make (T)
