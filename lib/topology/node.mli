(** Topology nodes.

    Every simulated device — end-host, border router, DNS server, PCE,
    provider core — is a node with a dense integer id, so adjacency and
    distance tables can be plain arrays. *)

type id = int

type kind =
  | Host  (** an end-system sourcing/receiving flows *)
  | Border_router  (** LISP ITR/ETR at the edge of a domain *)
  | Dns_server  (** authoritative or recursive DNS server *)
  | Pce  (** path computation element of a domain *)
  | Provider_core  (** transit provider point of presence *)
  | Hub  (** intra-domain aggregation switch joining hosts and borders *)

type t = { id : id; kind : kind; label : string }
