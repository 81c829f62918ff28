type t = {
  table : (int * int, Topology.Domain.border) Hashtbl.t;
  cap : int option;
  order : (int * int) Queue.t;  (* FIFO of keys, only maintained when capped *)
  mutable evictions : int;
}

let create ?cap () =
  (match cap with
  | Some c when c <= 0 -> invalid_arg "Glean.create: cap must be positive"
  | _ -> ());
  { table = Hashtbl.create 256; cap; order = Queue.create (); evictions = 0 }

let note t ~domain ~remote_eid ~border =
  let key = (domain, Nettypes.Ipv4.addr_to_int remote_eid) in
  match t.cap with
  | None -> Hashtbl.replace t.table key border
  | Some cap ->
      if Hashtbl.mem t.table key then Hashtbl.replace t.table key border
      else begin
        if Hashtbl.length t.table >= cap then begin
          (* Oldest-first eviction; queue entries always reference live
             keys because replacement never touches the queue. *)
          let victim = Queue.pop t.order in
          Hashtbl.remove t.table victim;
          t.evictions <- t.evictions + 1
        end;
        Hashtbl.replace t.table key border;
        Queue.push key t.order
      end

let lookup t ~domain ~remote_eid =
  Hashtbl.find_opt t.table (domain, Nettypes.Ipv4.addr_to_int remote_eid)

let entries t = Hashtbl.length t.table
let cap t = t.cap
let evictions t = t.evictions
