type id = int

type kind = Host | Border_router | Dns_server | Pce | Provider_core | Hub

type t = { id : id; kind : kind; label : string }
