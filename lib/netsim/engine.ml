(* Discrete-event engine, rewritten for raw dispatch speed.

   The event queue is an implicit 4-ary min-heap on (time, seq) held in
   parallel flat arrays (structure-of-arrays): timestamps live in an
   unboxed [float array], so a sift compares contiguous unboxed floats
   instead of chasing per-event record pointers, and the event "record"
   never exists as a heap object at all — scheduling allocates nothing
   beyond the caller's own callback closure.

   Cancellation state lives in a recycled slot pool next to the heap.
   A handle is an immediate integer packing (engine id, slot
   generation, slot index); [cancel] validates the engine id (a handle
   used on the wrong engine raises instead of silently corrupting the
   other engine's live count) and the generation (a handle whose event
   already fired — and whose slot may have been recycled — is a no-op,
   as before).  Cancelled events are reaped lazily at the heap top;
   when more than half the queued events are cancelled the heap is
   compacted in place, so a burst of long-dated cancels (retransmit
   timers cleared on success) cannot bloat the heap or [pending_hwm]'s
   denominator in memory terms. *)

type t = {
  id : int;
  mutable clock : float;
  (* Heap: SoA 4-ary min-heap on (time, seq); indices [0, size). *)
  mutable h_time : float array;
  mutable h_seq : int array;
  mutable h_thunk : (unit -> unit) array;
  mutable h_slot : int array;
  mutable size : int;
  mutable next_seq : int;
  (* Slot pool: per-event cancellation state, free-list recycled. *)
  mutable s_state : Bytes.t; (* '\000' free, '\001' pending, '\002' cancelled *)
  mutable s_gen : int array;
  mutable s_next : int array; (* free-list links through free slots *)
  mutable free_head : int;
  mutable s_cap : int;
  (* Counters. *)
  mutable live : int;
  mutable cancelled_pending : int; (* cancelled but still in the heap *)
  mutable hwm : int;
  mutable fired : int;
  mutable compacted : int;
}

type handle = int

(* Handle layout (62 bits of an OCaml int): slot index in the low 24
   bits, slot generation in the next 20, engine id in the top 18.
   Generations and engine ids wrap; a stale handle aliasing a live one
   therefore needs the same slot to be recycled exactly 2^20 times (or
   2^18 engines to share an id AND collide on slot+generation) —
   negligible against the seed behaviour, which corrupted the count on
   every cross-engine cancel. *)
let slot_bits = 24
let gen_bits = 20
let id_bits = 18
let slot_mask = (1 lsl slot_bits) - 1
let gen_mask = (1 lsl gen_bits) - 1
let id_mask = (1 lsl id_bits) - 1

let st_free = '\000'
let st_pending = '\001'
let st_cancelled = '\002'

(* Engine ids are process-wide so that a handle from one engine is
   rejected by every other. *)
let next_engine_id = ref 1

(* Process-wide event count, across every engine instance: the bench
   runner's workers report events/sec from it, and an experiment may
   build one engine per (control plane × parameter) cell.  [run] adds
   its events once, at exit. *)
let total_fired = ref 0

let no_thunk = ignore

let initial_heap = 256
let initial_slots = 256

let create () =
  let s_cap = initial_slots in
  let s_next = Array.init s_cap (fun i -> i + 1) in
  s_next.(s_cap - 1) <- -1;
  let id = !next_engine_id land id_mask in
  incr next_engine_id;
  { id;
    clock = 0.0;
    h_time = Array.make initial_heap 0.0;
    h_seq = Array.make initial_heap 0;
    h_thunk = Array.make initial_heap no_thunk;
    h_slot = Array.make initial_heap 0;
    size = 0; next_seq = 0;
    s_state = Bytes.make s_cap st_free;
    s_gen = Array.make s_cap 0;
    s_next; free_head = 0; s_cap;
    live = 0; cancelled_pending = 0; hwm = 0; fired = 0; compacted = 0 }

let now t = t.clock
let pending t = t.live
let pending_hwm t = t.hwm
let events_processed t = t.fired
let compactions t = t.compacted
let total_events_processed () = !total_fired

(* ------------------------------------------------------------------ *)
(* Slot pool                                                           *)
(* ------------------------------------------------------------------ *)

let grow_slots t =
  let cap = 2 * t.s_cap in
  let state = Bytes.make cap st_free in
  Bytes.blit t.s_state 0 state 0 t.s_cap;
  let gen = Array.make cap 0 in
  Array.blit t.s_gen 0 gen 0 t.s_cap;
  let next = Array.init cap (fun i -> i + 1) in
  Array.blit t.s_next 0 next 0 t.s_cap;
  next.(cap - 1) <- t.free_head;
  t.free_head <- t.s_cap;
  t.s_state <- state;
  t.s_gen <- gen;
  t.s_next <- next;
  t.s_cap <- cap

(* Slot indices are always < s_cap by construction, so pool accesses
   below are unsafe. *)

let alloc_slot t =
  if t.free_head < 0 then grow_slots t;
  let s = t.free_head in
  t.free_head <- Array.unsafe_get t.s_next s;
  Bytes.unsafe_set t.s_state s st_pending;
  s

let free_slot t s =
  Bytes.unsafe_set t.s_state s st_free;
  (* Bump the generation so any still-held handle goes stale. *)
  Array.unsafe_set t.s_gen s ((Array.unsafe_get t.s_gen s + 1) land gen_mask);
  Array.unsafe_set t.s_next s t.free_head;
  t.free_head <- s

(* ------------------------------------------------------------------ *)
(* Heap                                                                *)
(* ------------------------------------------------------------------ *)

let grow_heap t =
  let cap = 2 * Array.length t.h_time in
  let time = Array.make cap 0.0 in
  Array.blit t.h_time 0 time 0 t.size;
  let seq = Array.make cap 0 in
  Array.blit t.h_seq 0 seq 0 t.size;
  let thunk = Array.make cap no_thunk in
  Array.blit t.h_thunk 0 thunk 0 t.size;
  let slot = Array.make cap 0 in
  Array.blit t.h_slot 0 slot 0 t.size;
  t.h_time <- time;
  t.h_seq <- seq;
  t.h_thunk <- thunk;
  t.h_slot <- slot

(* Hole-based sifts: the moving event is held in locals, others shift
   once, and it is written exactly once at its final position.  The
   hot-path sifts are written inline inside [schedule_at] and
   [remove_top]: without flambda, a float crossing a function boundary
   is boxed, and a shared sift helper would cost one minor allocation
   per heap operation.  This generic sift_down stays for the cold
   compaction path only. *)

let sift_down t i0 ~time ~seq ~thunk ~slot =
  let ht = t.h_time and hs = t.h_seq in
  let n = t.size in
  let i = ref i0 in
  let stop = ref false in
  while not !stop do
    let first = (4 * !i) + 1 in
    if first >= n then stop := true
    else begin
      (* Min of up to four children. *)
      let last = Stdlib.min (first + 3) (n - 1) in
      let best = ref first in
      let bt = ref (Array.unsafe_get ht first) in
      let bs = ref (Array.unsafe_get hs first) in
      for c = first + 1 to last do
        let ct = Array.unsafe_get ht c in
        if ct < !bt || (ct = !bt && Array.unsafe_get hs c < !bs) then begin
          best := c;
          bt := ct;
          bs := Array.unsafe_get hs c
        end
      done;
      if !bt < time || (!bt = time && !bs < seq) then begin
        Array.unsafe_set ht !i !bt;
        Array.unsafe_set hs !i !bs;
        Array.unsafe_set t.h_thunk !i (Array.unsafe_get t.h_thunk !best);
        Array.unsafe_set t.h_slot !i (Array.unsafe_get t.h_slot !best);
        i := !best
      end
      else stop := true
    end
  done;
  Array.unsafe_set ht !i time;
  Array.unsafe_set hs !i seq;
  Array.unsafe_set t.h_thunk !i thunk;
  Array.unsafe_set t.h_slot !i slot

(* Remove the heap top (caller has already read its fields): move the
   last entry into the hole at the root and sift it down.  The sift is
   inline so the moving timestamp stays an unboxed local. *)
let remove_top t =
  let n = t.size - 1 in
  t.size <- n;
  let thunk = Array.unsafe_get t.h_thunk n in
  Array.unsafe_set t.h_thunk n no_thunk; (* release the closure for the GC *)
  if n > 0 then begin
    let ht = t.h_time and hs = t.h_seq in
    let time = Array.unsafe_get ht n in
    let seq = Array.unsafe_get hs n in
    let slot = Array.unsafe_get t.h_slot n in
    let i = ref 0 in
    let stop = ref false in
    while not !stop do
      let first = (4 * !i) + 1 in
      if first >= n then stop := true
      else begin
        let last = if first + 3 < n - 1 then first + 3 else n - 1 in
        let best = ref first in
        let bt = ref (Array.unsafe_get ht first) in
        let bs = ref (Array.unsafe_get hs first) in
        for c = first + 1 to last do
          let ct = Array.unsafe_get ht c in
          if ct < !bt || (ct = !bt && Array.unsafe_get hs c < !bs) then begin
            best := c;
            bt := ct;
            bs := Array.unsafe_get hs c
          end
        done;
        if !bt < time || (!bt = time && !bs < seq) then begin
          Array.unsafe_set ht !i !bt;
          Array.unsafe_set hs !i !bs;
          Array.unsafe_set t.h_thunk !i (Array.unsafe_get t.h_thunk !best);
          Array.unsafe_set t.h_slot !i (Array.unsafe_get t.h_slot !best);
          i := !best
        end
        else stop := true
      end
    done;
    Array.unsafe_set ht !i time;
    Array.unsafe_set hs !i seq;
    Array.unsafe_set t.h_thunk !i thunk;
    Array.unsafe_set t.h_slot !i slot
  end

(* In-place compaction: drop every cancelled event, then Floyd-heapify
   the survivors.  Order is untouched — (time, seq) fully determines
   it — and the freed slots recycle immediately. *)
let compact t =
  let j = ref 0 in
  for i = 0 to t.size - 1 do
    let s = t.h_slot.(i) in
    if Bytes.unsafe_get t.s_state s = st_cancelled then free_slot t s
    else begin
      if !j < i then begin
        t.h_time.(!j) <- t.h_time.(i);
        t.h_seq.(!j) <- t.h_seq.(i);
        t.h_thunk.(!j) <- t.h_thunk.(i);
        t.h_slot.(!j) <- t.h_slot.(i)
      end;
      incr j
    end
  done;
  for i = !j to t.size - 1 do
    t.h_thunk.(i) <- no_thunk
  done;
  t.size <- !j;
  t.cancelled_pending <- 0;
  for i = ((t.size - 2) / 4) downto 0 do
    sift_down t i ~time:t.h_time.(i) ~seq:t.h_seq.(i) ~thunk:t.h_thunk.(i)
      ~slot:t.h_slot.(i)
  done;
  t.compacted <- t.compacted + 1

(* Compact once cancelled events are both numerous and the majority:
   the threshold keeps small queues O(1) and makes the amortised cost
   of a cancel constant. *)
let compact_min = 64

let maybe_compact t =
  if t.cancelled_pending >= compact_min && 2 * t.cancelled_pending > t.size
  then compact t

(* ------------------------------------------------------------------ *)
(* Scheduling                                                          *)
(* ------------------------------------------------------------------ *)

let schedule_at t ~time thunk =
  if time < t.clock then
    invalid_arg
      (Printf.sprintf "Engine.schedule_at: time %g is before now %g" time
         t.clock);
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let s = alloc_slot t in
  if t.size = Array.length t.h_time then grow_heap t;
  (* Inline sift-up (see the note above the heap section). *)
  let ht = t.h_time and hs = t.h_seq in
  let i = ref t.size in
  t.size <- t.size + 1;
  let stop = ref false in
  while (not !stop) && !i > 0 do
    let p = (!i - 1) / 4 in
    let pt = Array.unsafe_get ht p in
    if time < pt || (time = pt && seq < Array.unsafe_get hs p) then begin
      Array.unsafe_set ht !i pt;
      Array.unsafe_set hs !i (Array.unsafe_get hs p);
      Array.unsafe_set t.h_thunk !i (Array.unsafe_get t.h_thunk p);
      Array.unsafe_set t.h_slot !i (Array.unsafe_get t.h_slot p);
      i := p
    end
    else stop := true
  done;
  Array.unsafe_set ht !i time;
  Array.unsafe_set hs !i seq;
  Array.unsafe_set t.h_thunk !i thunk;
  Array.unsafe_set t.h_slot !i s;
  t.live <- t.live + 1;
  if t.live > t.hwm then t.hwm <- t.live;
  s
  lor (Array.unsafe_get t.s_gen s lsl slot_bits)
  lor (t.id lsl (slot_bits + gen_bits))

let schedule t ~delay thunk =
  if delay < 0.0 then invalid_arg "Engine.schedule: negative delay";
  schedule_at t ~time:(t.clock +. delay) thunk

let cancel t h =
  if (h lsr (slot_bits + gen_bits)) land id_mask <> t.id then
    invalid_arg "Engine.cancel: handle belongs to a different engine";
  let s = h land slot_mask in
  if
    s < t.s_cap
    && t.s_gen.(s) = (h lsr slot_bits) land gen_mask
    && Bytes.unsafe_get t.s_state s = st_pending
  then begin
    Bytes.unsafe_set t.s_state s st_cancelled;
    t.live <- t.live - 1;
    t.cancelled_pending <- t.cancelled_pending + 1;
    maybe_compact t
  end

(* ------------------------------------------------------------------ *)
(* Dispatch                                                            *)
(* ------------------------------------------------------------------ *)

(* Every fired callback is charged to the "engine" profiler phase;
   instrumented subsystems nest their own phases inside it, so what
   remains as engine self-time is pure dispatch (heap ops plus
   uninstrumented callback bodies). *)
let ph_dispatch = Prof.phase "engine"

(* Each iteration looks at the heap top once: a cancelled event is
   reaped without advancing the clock, a live one fires unless it lies
   beyond [horizon]. *)
let dispatch t horizon =
  let stop = ref false in
  while not !stop do
    if t.size = 0 then stop := true
    else begin
      let s = Array.unsafe_get t.h_slot 0 in
      if Bytes.unsafe_get t.s_state s = st_cancelled then begin
        free_slot t s;
        t.cancelled_pending <- t.cancelled_pending - 1;
        remove_top t
      end
      else begin
        let time = Array.unsafe_get t.h_time 0 in
        if time > horizon then stop := true
        else begin
          let thunk = Array.unsafe_get t.h_thunk 0 in
          free_slot t s;
          remove_top t;
          t.clock <- time;
          t.live <- t.live - 1;
          t.fired <- t.fired + 1;
          if Prof.enabled () then begin
            Prof.enter ph_dispatch;
            (match thunk () with
            | () -> ()
            | exception ex ->
                Prof.leave ph_dispatch;
                raise ex);
            Prof.leave ph_dispatch
          end
          else thunk ()
        end
      end
    end
  done

let run ?until t =
  let fired0 = t.fired in
  Fun.protect
    ~finally:(fun () -> total_fired := !total_fired + (t.fired - fired0))
    (fun () -> dispatch t (Option.value until ~default:infinity));
  match until with
  | Some horizon when t.clock < horizon -> t.clock <- horizon
  | Some _ | None -> ()
