type segment = Syn | Syn_ack | Ack | Data of int | Fin

let pp_segment ppf = function
  | Syn -> Format.pp_print_string ppf "SYN"
  | Syn_ack -> Format.pp_print_string ppf "SYN/ACK"
  | Ack -> Format.pp_print_string ppf "ACK"
  | Data n -> Format.fprintf ppf "DATA(%dB)" n
  | Fin -> Format.pp_print_string ppf "FIN"

let segment_bytes = function
  | Syn | Syn_ack | Ack | Fin -> 0
  | Data n -> n

type encap = { outer_src : Ipv4.addr; outer_dst : Ipv4.addr }

type t = {
  flow : Flow.t;
  segment : segment;
  sent_at : float;
  encap : encap option;
}

let make ~flow ~segment ~sent_at = { flow; segment; sent_at; encap = None }

let encapsulate t ~outer_src ~outer_dst =
  match t.encap with
  | Some _ -> invalid_arg "Packet.encapsulate: already encapsulated"
  | None -> { t with encap = Some { outer_src; outer_dst } }

let decapsulate t =
  match t.encap with
  | None -> invalid_arg "Packet.decapsulate: not encapsulated"
  | Some _ -> { t with encap = None }

let is_encapsulated t = t.encap <> None

let inner_header_bytes = 40 (* IP + TCP *)
let outer_header_bytes = 36 (* outer IP (20) + UDP (8) + LISP header (8) *)

let size t =
  inner_header_bytes + segment_bytes t.segment
  + match t.encap with Some _ -> outer_header_bytes | None -> 0

let pp ppf t =
  (match t.encap with
  | Some e ->
      Format.fprintf ppf "[%a => %a | " Ipv4.pp_addr e.outer_src Ipv4.pp_addr
        e.outer_dst
  | None -> Format.pp_print_string ppf "[");
  Format.fprintf ppf "%a %a]" Flow.pp t.flow pp_segment t.segment
