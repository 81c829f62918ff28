open Nettypes

(* Domain id -> its registered mapping. *)
type t = Mapping.t array

let create ~internet ~ttl =
  Array.map
    (fun d -> Topology.Domain.advertised_mapping d ~ttl)
    internet.Topology.Builder.domains

let mapping_of_domain t id =
  if id < 0 || id >= Array.length t then
    invalid_arg "Registry.mapping_of_domain: unknown domain";
  t.(id)

let update_mapping t id mapping =
  if id < 0 || id >= Array.length t then
    invalid_arg "Registry.update_mapping: unknown domain";
  t.(id) <- mapping

let authoritative_rloc mapping =
  match Mapping.best_rlocs mapping with
  | r :: _ -> r.Mapping.rloc_addr
  | [] -> assert false

let size t = Array.length t

let total_wire_bytes t =
  Wire.Codec.size (Wire.Codec.Database_push { mappings = Array.to_list t })

let iter t ~f = Array.iteri f t
