(* Causal span assembly over the flat hub event stream.

   The builder folds events into per-flow span trees:

     connection_setup
     |- dns_resolution
     |- handshake
        |- map_resolution
           |- first_packet_wait
              |- attempt-1, attempt-2, ...

   The phases nest (rather than forming the flat sibling list a reader
   might expect) because that is what actually matches the event
   timeline: the mapping resolves while the first packet waits at the
   ITR, and both happen while the initiator's SYN timer runs.  The
   resolution *encloses* the wait, not the other way around, because
   it can outlive it: in drop mode the unmapped packet dies instantly
   while the map-request/map-reply exchange carries on in the
   background to warm the cache.  Nesting is also what makes the spans
   render as a stacked flame in Perfetto.

   Open spans form a stack per flow (deepest first, root last).  A new
   child always goes under the current top; closing a span by name
   force-closes anything opened deeper.  Because simulated time is
   monotone within a run, this discipline yields the two invariants
   the tests check: children lie inside their parent and siblings do
   not overlap.

   Accounting: every fed event increments exactly one span's [events]
   counter or the builder's [unattributed] counter, never both and
   never twice, so [fed = assigned + unattributed] and the sum of
   [events] over all produced trees equals [assigned]. *)

type outcome = Ok | Lost | Timeout | Failed | Unfinished

let outcome_name = function
  | Ok -> "ok"
  | Lost -> "lost"
  | Timeout -> "timeout"
  | Failed -> "failed"
  | Unfinished -> "unfinished"

type t = {
  name : string;
  actor : string;
  flow : int option;
  t0 : float;
  mutable t1 : float;
  mutable outcome : outcome;
  mutable children_rev : t list;
  mutable events : int;
}

type conn = { root : t; mutable stack : t list (* deepest first *) }

type builder = {
  conns : (int, conn) Hashtbl.t;
  on_root_close : (t -> unit) option;
  mutable roots_rev : t list;  (* retained only without a callback *)
  mutable fed : int;
  mutable assigned : int;
  mutable unattributed : int;
}

let create_builder ?on_root_close () =
  { conns = Hashtbl.create 64; on_root_close; roots_rev = []; fed = 0;
    assigned = 0; unattributed = 0 }

let children s = List.rev s.children_rev
let duration s = s.t1 -. s.t0
let fed b = b.fed
let assigned b = b.assigned
let unattributed b = b.unattributed
let roots b = List.rev b.roots_rev

let rec iter f s =
  f s;
  List.iter (iter f) s.children_rev

let deliver b root =
  match b.on_root_close with
  | Some f -> f root
  | None -> b.roots_rev <- root :: b.roots_rev

(* Span bookkeeping: none of these touch the event counters — [feed]
   assigns each event to exactly one span afterwards. *)

let new_span ~name ~actor ~flow ~time =
  { name; actor; flow; t0 = time; t1 = time; outcome = Unfinished;
    children_rev = []; events = 0 }

let top conn = match conn.stack with s :: _ -> s | [] -> conn.root

(* The open span called [name], creating it under the current top when
   no such span is open. *)
let ensure_open conn ~name ~actor ~flow ~time =
  match List.find_opt (fun s -> s.name = name) conn.stack with
  | Some s -> s
  | None ->
      let parent = top conn in
      let s = new_span ~name ~actor ~flow ~time in
      parent.children_rev <- s :: parent.children_rev;
      conn.stack <- s :: conn.stack;
      s

(* Close the topmost open span satisfying [pred]; spans opened deeper
   are closed with [cascade].  Returns the target, or [None] when no
   open span matches (nothing is changed then). *)
let close_matching conn ~pred ~time ~outcome ~cascade =
  if List.exists pred conn.stack then begin
    let rec pop = function
      | s :: rest when not (pred s) ->
          s.t1 <- time;
          if s.outcome = Unfinished then s.outcome <- cascade;
          pop rest
      | s :: rest ->
          s.t1 <- time;
          s.outcome <- outcome;
          conn.stack <- rest;
          Some s
      | [] -> None
    in
    pop conn.stack
  end
  else None

let close_named conn ~name = close_matching conn ~pred:(fun s -> s.name = name)

let attempt_name n = Printf.sprintf "attempt-%d" n
let is_attempt s = String.length s.name > 8 && String.sub s.name 0 8 = "attempt-"

(* A cause label classifies as its [Netsim.Drop.cause] does; a label
   no cause has is neither kind of drop.  A wait drop ends the packet's
   wait; a no-resolution drop ends the whole map_resolution span, since
   no resolution is (or will be) in flight. *)
let classify pred label =
  match Netsim.Drop.of_label label with Some c -> pred c | None -> false

let is_wait_drop = classify Netsim.Drop.is_wait
let is_no_resolution_drop = classify Netsim.Drop.is_no_resolution

(* Close the whole connection (root included) and hand the tree off. *)
let close_conn b conn ~time ~outcome ~cascade =
  List.iter
    (fun s ->
      s.t1 <- time;
      if s.outcome = Unfinished then s.outcome <- cascade)
    conn.stack;
  conn.stack <- [];
  conn.root.t1 <- time;
  conn.root.outcome <- outcome;
  (match conn.root.flow with
  | Some id -> Hashtbl.remove b.conns id
  | None -> ());
  deliver b conn.root

let assign b span = b.assigned <- b.assigned + 1; span.events <- span.events + 1
let drop_event b = b.unattributed <- b.unattributed + 1

(* Control-plane activity with no flow context (PCE/NERD pushes) still
   deserves a lane in the trace: render it as an instant root span. *)
let instant b ~name ~actor ~time ~outcome =
  let s = new_span ~name ~actor ~flow:None ~time in
  s.outcome <- outcome;
  assign b s;
  deliver b s

let feed b (e : Event.t) =
  b.fed <- b.fed + 1;
  let time = e.Event.time and actor = e.Event.actor in
  match (e.Event.flow, e.Event.kind) with
  | None, Event.Cp_loss { message } ->
      instant b ~name:("cp_loss:" ^ message) ~actor ~time ~outcome:Lost
  | None, Event.Cp_retry { message; _ } ->
      instant b ~name:("cp_retry:" ^ message) ~actor ~time ~outcome:Ok
  | None, Event.Cp_timeout { message; _ } ->
      instant b ~name:("cp_timeout:" ^ message) ~actor ~time ~outcome:Timeout
  | None, Event.Node_crash { role } ->
      instant b ~name:("node_crash:" ^ role) ~actor ~time ~outcome:Lost
  | None, Event.Node_restart { role } ->
      instant b ~name:("node_restart:" ^ role) ~actor ~time ~outcome:Ok
  | None, Event.Pce_bypass _ ->
      instant b ~name:"pce_bypass" ~actor ~time ~outcome:Ok
  | None, _ -> drop_event b
  | Some id, kind -> (
      match (Hashtbl.find_opt b.conns id, kind) with
      | lingering, Event.Conn_open _ ->
          (* A flow id reappearing before its previous tree closed
             (id collision or an unfinished run): flush the old tree. *)
          (match lingering with
          | Some conn ->
              close_conn b conn ~time ~outcome:Unfinished ~cascade:Unfinished
          | None -> ());
          let root =
            new_span ~name:"connection_setup" ~actor ~flow:(Some id) ~time
          in
          Hashtbl.replace b.conns id { root; stack = [ root ] };
          assign b root
      | None, _ -> drop_event b  (* e.g. data-packet events after setup *)
      | Some conn, kind -> (
          let flow = Some id in
          match kind with
          | Event.Dns_query _ ->
              assign b (ensure_open conn ~name:"dns_resolution" ~actor ~flow ~time)
          | Event.Dns_reply { answered; _ } -> (
              let outcome = if answered then Ok else Failed in
              match
                close_named conn ~name:"dns_resolution" ~time ~outcome
                  ~cascade:Unfinished
              with
              | Some s -> assign b s
              | None -> assign b (top conn))
          | Event.Syn_sent _ ->
              assign b (ensure_open conn ~name:"handshake" ~actor ~flow ~time)
          | Event.Cache_miss _ ->
              ignore (ensure_open conn ~name:"map_resolution" ~actor ~flow ~time);
              assign b
                (ensure_open conn ~name:"first_packet_wait" ~actor ~flow ~time)
          | Event.Map_request _ ->
              ignore (ensure_open conn ~name:"map_resolution" ~actor ~flow ~time);
              assign b
                (ensure_open conn ~name:(attempt_name 1) ~actor ~flow ~time)
          | Event.Cp_retry { attempt; _ } ->
              ignore
                (close_matching conn ~pred:is_attempt ~time ~outcome:Lost
                   ~cascade:Unfinished);
              ignore (ensure_open conn ~name:"map_resolution" ~actor ~flow ~time);
              assign b
                (ensure_open conn ~name:(attempt_name (attempt + 1)) ~actor ~flow
                   ~time)
          | Event.Map_reply _ -> (
              match
                close_named conn ~name:"map_resolution" ~time ~outcome:Ok
                  ~cascade:Ok
              with
              | Some s -> assign b s
              | None -> assign b (top conn))
          | Event.Cp_timeout _ -> (
              match
                close_named conn ~name:"map_resolution" ~time ~outcome:Timeout
                  ~cascade:Timeout
              with
              | Some s -> assign b s
              | None -> assign b (top conn))
          | Event.Degraded_to_pull _ ->
              (* The PCE push path is gone; the pull resolution that
                 follows belongs to the same map_resolution phase. *)
              assign b
                (ensure_open conn ~name:"map_resolution" ~actor ~flow ~time)
          | Event.Packet_drop { cause } -> (
              match
                if is_no_resolution_drop cause then
                  close_named conn ~name:"map_resolution" ~time ~outcome:Lost
                    ~cascade:Lost
                else if is_wait_drop cause then
                  (* The packet died but the resolution carries on in
                     the background (drop mode warms the cache). *)
                  close_named conn ~name:"first_packet_wait" ~time
                    ~outcome:Lost ~cascade:Lost
                else None
              with
              | Some s -> assign b s
              | None -> assign b (top conn))
          | Event.Syn_received -> (
              match
                close_named conn ~name:"first_packet_wait" ~time ~outcome:Ok
                  ~cascade:Ok
              with
              | Some s -> assign b s
              | None -> assign b (top conn))
          | Event.Conn_established ->
              assign b conn.root;
              close_conn b conn ~time ~outcome:Ok ~cascade:Ok
          | Event.Conn_failed _ ->
              assign b conn.root;
              close_conn b conn ~time ~outcome:Failed ~cascade:Unfinished
          | _ -> assign b (top conn)))

let finish b ~now =
  let pending = Hashtbl.fold (fun _ conn acc -> conn :: acc) b.conns [] in
  (* Deterministic delivery order for the flush: oldest root first. *)
  let pending =
    List.sort (fun a c -> Float.compare a.root.t0 c.root.t0) pending
  in
  List.iter
    (fun conn ->
      close_conn b conn ~time:now ~outcome:Unfinished ~cascade:Unfinished)
    pending

(* ---- Chrome trace_event export ------------------------------------- *)

(* One "X" (complete) event per span; Perfetto stacks same-tid spans by
   containment, which our nesting guarantees.  Simulated seconds map to
   trace microseconds. *)

let us t = t *. 1e6

let span_trace_events ~pid ~tid root =
  let evs = ref [] in
  iter
    (fun s ->
      evs :=
        Json.Obj
          [ ("name", Json.String s.name); ("ph", Json.String "X");
            ("cat", Json.String "sim"); ("pid", Json.Int pid);
            ("tid", Json.Int tid); ("ts", Json.Float (us s.t0));
            ("dur", Json.Float (us (duration s)));
            ("args",
             Json.Obj
               [ ("actor", Json.String s.actor);
                 ("outcome", Json.String (outcome_name s.outcome));
                 ("events", Json.Int s.events) ]) ]
        :: !evs)
    root;
  List.rev !evs

let metadata ~pid ~tid ~name ~value =
  Json.Obj
    [ ("name", Json.String name); ("ph", Json.String "M");
      ("pid", Json.Int pid); ("tid", Json.Int tid); ("ts", Json.Float 0.0);
      ("args", Json.Obj [ ("name", Json.String value) ]) ]

(* Trace-event objects ([ph:"X"] complete events plus [ph:"M"]
   metadata) for one process: one thread per flow tree, thread 0 for
   the non-flow control-plane lane.  Simulated seconds become trace
   microseconds. *)
let trace_json ~pid ~process_name roots =
  let control, flows = List.partition (fun r -> r.flow = None) roots in
  let evs = ref [ metadata ~pid ~tid:0 ~name:"process_name" ~value:process_name ] in
  let push e = evs := e :: !evs in
  if control <> [] then begin
    push (metadata ~pid ~tid:0 ~name:"thread_name" ~value:"control-plane");
    List.iter (fun r -> List.iter push (span_trace_events ~pid ~tid:0 r)) control
  end;
  List.iteri
    (fun i r ->
      let tid = i + 1 in
      let label =
        match r.flow with
        | Some id -> Printf.sprintf "flow %08x (%s)" (id land 0xFFFFFFFF) r.actor
        | None -> r.actor
      in
      push (metadata ~pid ~tid ~name:"thread_name" ~value:label);
      List.iter push (span_trace_events ~pid ~tid r))
    flows;
  List.rev !evs

let write_chrome_trace ~file segments =
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let events =
        List.concat
          (List.mapi
             (fun i (label, roots) ->
               trace_json ~pid:(i + 1) ~process_name:label roots)
             segments)
      in
      output_string oc
        (Json.to_string
           (Json.Obj
              [ ("traceEvents", Json.List events);
                ("displayTimeUnit", Json.String "ms") ]));
      output_char oc '\n')
