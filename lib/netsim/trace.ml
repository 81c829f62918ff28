(* Timeline log stored as a structure-of-arrays ring buffer: times in
   an unboxed [float array], actors/events in parallel string arrays.
   Recording an entry writes three array cells — no per-entry record
   or queue cell is allocated, and a capacity bound overwrites in
   place instead of popping.  The [entry] record only materialises on
   the read side ([entries], [find]). *)

type entry = { time : float; actor : string; event : string }

type t = {
  mutable times : float array;
  mutable actors : string array;
  mutable events : string array;
  mutable cap : int; (* current array capacity *)
  bound : int option; (* user-facing retention bound *)
  mutable start : int; (* index of the oldest retained entry *)
  mutable len : int; (* retained entries *)
  mutable count : int; (* total ever recorded *)
}

let initial_cap = 16

let create ?capacity () =
  (match capacity with
  | Some c when c <= 0 ->
      invalid_arg "Trace.create: capacity must be positive"
  | Some _ | None -> ());
  let cap =
    match capacity with
    | Some c -> Stdlib.min c initial_cap
    | None -> initial_cap
  in
  { times = Array.make cap 0.0;
    actors = Array.make cap "";
    events = Array.make cap "";
    cap;
    bound = capacity;
    start = 0;
    len = 0;
    count = 0 }

let grow t =
  (* Only reached before any eviction, so the live region starts at 0. *)
  let cap =
    match t.bound with
    | Some b -> Stdlib.min b (2 * t.cap)
    | None -> 2 * t.cap
  in
  let times = Array.make cap 0.0 in
  Array.blit t.times 0 times 0 t.len;
  let actors = Array.make cap "" in
  Array.blit t.actors 0 actors 0 t.len;
  let events = Array.make cap "" in
  Array.blit t.events 0 events 0 t.len;
  t.times <- times;
  t.actors <- actors;
  t.events <- events;
  t.cap <- cap

let record t ~time ~actor event =
  let full_bound = match t.bound with Some b -> t.len = b | None -> false in
  if full_bound then begin
    (* Ring is at its bound: overwrite the oldest slot. *)
    let i = t.start in
    t.times.(i) <- time;
    t.actors.(i) <- actor;
    t.events.(i) <- event;
    t.start <- (if i + 1 = t.cap then 0 else i + 1)
  end
  else begin
    if t.len = t.cap then grow t;
    let i = t.start + t.len in
    let i = if i >= t.cap then i - t.cap else i in
    t.times.(i) <- time;
    t.actors.(i) <- actor;
    t.events.(i) <- event;
    t.len <- t.len + 1
  end;
  t.count <- t.count + 1

let nth t i =
  let j = t.start + i in
  let j = if j >= t.cap then j - t.cap else j in
  { time = t.times.(j); actor = t.actors.(j); event = t.events.(j) }

let iter t ~f =
  for i = 0 to t.len - 1 do
    let j = t.start + i in
    let j = if j >= t.cap then j - t.cap else j in
    f t.times.(j) t.actors.(j) t.events.(j)
  done

let entries t = List.init t.len (nth t)
let length t = t.count
let retained t = t.len

let clear t =
  (* Drop string references so the GC can reclaim them. *)
  Array.fill t.actors 0 t.cap "";
  Array.fill t.events 0 t.cap "";
  t.start <- 0;
  t.len <- 0;
  t.count <- 0

let pp ppf t =
  let actor_width = ref 0 in
  iter t ~f:(fun _ actor _ ->
      if String.length actor > !actor_width then
        actor_width := String.length actor);
  iter t ~f:(fun time actor event ->
      Format.fprintf ppf "t=%10.6fs  %-*s  %s@." time !actor_width actor event)

let find t ~f =
  let result = ref None in
  (try
     for i = 0 to t.len - 1 do
       let e = nth t i in
       if f e then begin
         result := Some e;
         raise Exit
       end
     done
   with Exit -> ());
  !result

(* Deterministic cross-shard merge: entries ordered by [(time, shard,
   per-shard order)], i.e. a stable sort of the concatenation keyed on
   time with the shard's position in [traces] as the tiebreak.  Two
   runs of the same sharded simulation produce byte-identical merged
   traces regardless of domain interleaving, because each shard's
   trace is deterministic in isolation and the merge key ignores
   wall-clock arrival entirely. *)
let merge traces =
  let total = List.fold_left (fun acc t -> acc + t.len) 0 traces in
  (* (time, shard, idx) keys alongside the entry data. *)
  let keys = Array.make (Stdlib.max 1 total) (0.0, 0, 0) in
  let pos = ref 0 in
  List.iteri
    (fun shard t ->
      for i = 0 to t.len - 1 do
        keys.(!pos) <- (nth t i).time, shard, i;
        incr pos
      done)
    traces;
  let keys = Array.sub keys 0 total in
  Array.sort
    (fun (t1, s1, i1) (t2, s2, i2) ->
      match Float.compare t1 t2 with
      | 0 -> ( match Int.compare s1 s2 with 0 -> Int.compare i1 i2 | c -> c)
      | c -> c)
    keys;
  let by_shard = Array.of_list traces in
  let out = create () in
  Array.iter
    (fun (_, shard, i) ->
      let e = nth by_shard.(shard) i in
      record out ~time:e.time ~actor:e.actor e.event)
    keys;
  out
