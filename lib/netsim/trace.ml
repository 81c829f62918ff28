(* Timeline log stored as a structure of arrays: times in an unboxed
   [float array], actors/events in parallel string arrays, doubled when
   full.  Recording an entry writes three array cells — no per-entry
   record or list cell is allocated.  The [entry] record only
   materialises on the read side ([entries], [find]). *)

type entry = { time : float; actor : string; event : string }

type t = {
  mutable times : float array;
  mutable actors : string array;
  mutable events : string array;
  mutable len : int;
}

let initial_cap = 16

let create () =
  { times = Array.make initial_cap 0.0;
    actors = Array.make initial_cap "";
    events = Array.make initial_cap "";
    len = 0 }

let grow t =
  let cap = 2 * Array.length t.times in
  let times = Array.make cap 0.0 in
  Array.blit t.times 0 times 0 t.len;
  let actors = Array.make cap "" in
  Array.blit t.actors 0 actors 0 t.len;
  let events = Array.make cap "" in
  Array.blit t.events 0 events 0 t.len;
  t.times <- times;
  t.actors <- actors;
  t.events <- events

let record t ~time ~actor event =
  if t.len = Array.length t.times then grow t;
  let i = t.len in
  t.times.(i) <- time;
  t.actors.(i) <- actor;
  t.events.(i) <- event;
  t.len <- i + 1

let nth t i = { time = t.times.(i); actor = t.actors.(i); event = t.events.(i) }

let iter t ~f =
  for i = 0 to t.len - 1 do
    f t.times.(i) t.actors.(i) t.events.(i)
  done

let entries t = List.init t.len (nth t)
let length t = t.len

let pp ppf t =
  let actor_width = ref 0 in
  iter t ~f:(fun _ actor _ ->
      if String.length actor > !actor_width then
        actor_width := String.length actor);
  iter t ~f:(fun time actor event ->
      Format.fprintf ppf "t=%10.6fs  %-*s  %s@." time !actor_width actor event)

let find t ~f =
  let rec from i =
    if i = t.len then None
    else
      let e = nth t i in
      if f e then Some e else from (i + 1)
  in
  from 0
