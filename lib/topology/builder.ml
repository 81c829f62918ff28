open Nettypes

type provider = {
  core : Node.id;
  prefix : Ipv4.prefix;
  provider_name : string;
}

type t = {
  graph : Graph.t;
  providers : provider array;
  domains : Domain.t array;
  root_dns : Node.id;
  tld_dns : Node.id;
}

type core_shape = Full_mesh | Two_tier of int

type params = {
  domain_count : int;
  provider_count : int;
  borders_per_domain : int;
  hosts_per_domain : int;
  core_shape : core_shape;
  core_latency : float * float;
  access_latency : float * float;
  internal_latency : float;
  access_capacity_bps : float;
  core_capacity_bps : float;
}

let default_params =
  { domain_count = 10; provider_count = 4; borders_per_domain = 2;
    hosts_per_domain = 4; core_shape = Full_mesh;
    core_latency = (0.015, 0.040); access_latency = (0.002, 0.008);
    internal_latency = 0.001; access_capacity_bps = 1e9;
    core_capacity_bps = 100e9 }

let provider_prefix index = Ipv4.prefix_of_string (Printf.sprintf "%d.0.0.0/8" (10 + index))

let domain_eid_prefix index =
  Ipv4.prefix_of_string (Printf.sprintf "100.%d.%d.0/24" (index / 256) (index mod 256))

(* Mutable RLOC allocation cursor per provider, used only while building. *)
type alloc = { mutable next : int }

let make_domain graph ~params ~index ~provider_choices ~providers ~allocs
    ~access_latency_of =
  let name = Printf.sprintf "as%d" index in
  let hub = Graph.add_node graph ~kind:Node.Hub ~label:(name ^ "-hub") in
  let dns = Graph.add_node graph ~kind:Node.Dns_server ~label:(name ^ "-dns") in
  let pce = Graph.add_node graph ~kind:Node.Pce ~label:(name ^ "-pce") in
  ignore
    (Graph.connect graph dns hub ~latency:params.internal_latency
       ~capacity_bps:params.core_capacity_bps ~kind:Link.Internal ());
  (* The PCE sits on the DNS server's wire (IPC distance, step 1 of the
     paper), hence the very short link. *)
  ignore
    (Graph.connect graph pce dns ~latency:0.0001
       ~capacity_bps:params.core_capacity_bps ~kind:Link.Internal ());
  let hosts =
    Array.init params.hosts_per_domain (fun i ->
        let h =
          Graph.add_node graph ~kind:Node.Host
            ~label:(Printf.sprintf "%s-h%d" name i)
        in
        ignore
          (Graph.connect graph h hub ~latency:params.internal_latency
             ~capacity_bps:params.core_capacity_bps ~kind:Link.Internal ());
        h)
  in
  let borders =
    Array.mapi
      (fun i provider_index ->
        let router =
          Graph.add_node graph ~kind:Node.Border_router
            ~label:(Printf.sprintf "%s-br%d" name i)
        in
        ignore
          (Graph.connect graph router hub ~latency:params.internal_latency
             ~capacity_bps:params.core_capacity_bps ~kind:Link.Internal ());
        let p : provider = providers.(provider_index) in
        let alloc = allocs.(provider_index) in
        alloc.next <- alloc.next + 1;
        let rloc = Ipv4.prefix_nth p.prefix alloc.next in
        let uplink =
          Graph.connect graph router p.core
            ~latency:(access_latency_of ())
            ~capacity_bps:params.access_capacity_bps ()
        in
        { Domain.router; rloc; provider = provider_index; uplink })
      provider_choices
  in
  { Domain.id = index; name; eid_prefix = domain_eid_prefix index; hosts;
    borders; hub; dns; pce }

let build ~params ~core_latency_of ~access_latency_of ~choose_providers =
  if params.provider_count <= 0 || params.provider_count > 100 then
    invalid_arg "Builder: provider_count out of [1, 100]";
  if params.hosts_per_domain <= 0 || params.hosts_per_domain > 254 then
    invalid_arg "Builder: hosts_per_domain out of [1, 254]";
  if params.domain_count <= 0 then invalid_arg "Builder: no domains";
  let graph = Graph.create () in
  let providers =
    Array.init params.provider_count (fun i ->
        let provider_name = Printf.sprintf "P%c" (Char.chr (Char.code 'A' + (i mod 26))) in
        let core =
          Graph.add_node graph ~kind:Node.Provider_core
            ~label:(Printf.sprintf "%s-core" provider_name)
        in
        { core; prefix = provider_prefix i; provider_name })
  in
  (* Core wiring: either a full mesh, or a two-tier transit hierarchy
     (tier-1 full mesh; each tier-2 provider homed to two tier-1s). *)
  (match params.core_shape with
  | Full_mesh ->
      Array.iteri
        (fun i pi ->
          Array.iteri
            (fun j pj ->
              if i < j then
                ignore
                  (Graph.connect graph pi.core pj.core
                     ~latency:(core_latency_of ())
                     ~capacity_bps:params.core_capacity_bps ()))
            providers)
        providers
  | Two_tier tier1 ->
      if tier1 < 1 || tier1 > params.provider_count then
        invalid_arg "Builder: tier-1 size out of range";
      if tier1 < 2 && params.provider_count > tier1 then
        invalid_arg "Builder: two-tier needs at least two tier-1 providers";
      for i = 0 to tier1 - 1 do
        for j = i + 1 to tier1 - 1 do
          ignore
            (Graph.connect graph providers.(i).core providers.(j).core
               ~latency:(core_latency_of ())
               ~capacity_bps:params.core_capacity_bps ())
        done
      done;
      for i = tier1 to params.provider_count - 1 do
        (* Deterministic dual homing: two distinct tier-1 parents. *)
        let first = (i - tier1) mod tier1 in
        let second = (first + 1) mod tier1 in
        ignore
          (Graph.connect graph providers.(i).core providers.(first).core
             ~latency:(core_latency_of ())
             ~capacity_bps:params.core_capacity_bps ());
        ignore
          (Graph.connect graph providers.(i).core providers.(second).core
             ~latency:(core_latency_of ())
             ~capacity_bps:params.core_capacity_bps ())
      done);
  let root_dns = Graph.add_node graph ~kind:Node.Dns_server ~label:"root-dns" in
  let tld_dns = Graph.add_node graph ~kind:Node.Dns_server ~label:"tld-dns" in
  ignore
    (Graph.connect graph root_dns providers.(0).core ~latency:0.005
       ~capacity_bps:params.core_capacity_bps ());
  ignore
    (Graph.connect graph tld_dns
       providers.(Array.length providers - 1).core
       ~latency:0.005 ~capacity_bps:params.core_capacity_bps ());
  let allocs = Array.init params.provider_count (fun _ -> { next = 0 }) in
  let domains =
    Array.init params.domain_count (fun index ->
        make_domain graph ~params ~index
          ~provider_choices:(choose_providers index)
          ~providers ~allocs ~access_latency_of)
  in
  { graph; providers; domains; root_dns; tld_dns }

let generate rng params =
  let borders = Stdlib.max 1 (Stdlib.min params.borders_per_domain params.provider_count) in
  let lat_rng = Netsim.Rng.split rng in
  let pick_rng = Netsim.Rng.split rng in
  let core_latency_of () =
    let lo, hi = params.core_latency in
    Netsim.Rng.uniform lat_rng ~lo ~hi
  in
  let access_latency_of () =
    let lo, hi = params.access_latency in
    Netsim.Rng.uniform lat_rng ~lo ~hi
  in
  let choose_providers _index =
    let pool = Array.init params.provider_count (fun i -> i) in
    Netsim.Rng.shuffle pick_rng pool;
    Array.sub pool 0 borders
  in
  build ~params ~core_latency_of ~access_latency_of ~choose_providers

let figure1 ?(scale = 1.0) () =
  if scale <= 0.0 then invalid_arg "Builder.figure1: scale must be positive";
  let params =
    { default_params with domain_count = 2; provider_count = 4;
      borders_per_domain = 2; hosts_per_domain = 2 }
  in
  (* Deterministic latencies: the core mesh links come out in the order
     (A,B) (A,X) (A,Y) (B,X) (B,Y) (X,Y). *)
  let core_latencies = ref [ 0.020; 0.035; 0.040; 0.038; 0.032; 0.018 ] in
  let core_latency_of () =
    match !core_latencies with
    | l :: rest ->
        core_latencies := rest;
        l *. scale
    | [] -> 0.030 *. scale
  in
  let access_latency_of () = 0.005 *. scale in
  (* AS_S (domain 0) homes to providers A and B; AS_D (domain 1) to X
     and Y, as in the paper's figure. *)
  let choose_providers = function
    | 0 -> [| 0; 1 |]
    | 1 -> [| 2; 3 |]
    | _ -> assert false
  in
  build ~params ~core_latency_of ~access_latency_of ~choose_providers

let domain_of_eid t addr =
  Array.find_opt (fun d -> Domain.owns_eid d addr) t.domains

let domain_of_name t name =
  Array.find_opt (fun d -> d.Domain.name = name || Domain.fqdn d = name) t.domains

let border_of_rloc t rloc =
  let rec scan i =
    if i >= Array.length t.domains then None
    else
      match Domain.border_of_rloc t.domains.(i) rloc with
      | Some border -> Some (t.domains.(i), border)
      | None -> scan (i + 1)
  in
  scan 0

let latency t a b = Graph.latency_between t.graph a b
