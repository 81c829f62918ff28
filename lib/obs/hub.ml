type sink = Event.t -> unit

type t = { clock : unit -> float; mutable on : bool; mutable sinks : sink list }

let create ~clock = { clock; on = false; sinks = [] }

let or_disabled ~engine = function
  | Some hub -> hub
  | None -> create ~clock:(fun () -> Netsim.Engine.now engine)

let enabled t = t.on
let set_enabled t on = t.on <- on
let add_sink t sink = t.sinks <- t.sinks @ [ sink ]

(* Sink fan-out (JSONL rendering, span assembly, the walkthrough buffer)
   is charged to one profiler phase, so "what does observability cost"
   reads off one line. *)
let ph_trace = Netsim.Prof.phase "trace"

let emit t ~actor ?flow kind =
  if t.on then begin
    Netsim.Prof.enter ph_trace;
    let event = { Event.time = t.clock (); actor; flow; kind } in
    List.iter (fun sink -> sink event) t.sinks;
    Netsim.Prof.leave ph_trace
  end

let memory_sink () =
  let buffered = ref [] in
  let sink event = buffered := event :: !buffered in
  let contents () = List.rev !buffered in
  (sink, contents)
