(* Open-addressing int-keyed table: linear probing, power-of-two
   capacity, tombstone deletion.  Keys are hashed with a Fibonacci
   multiplier so clustered key ranges (sequential addresses) spread
   across the table.  The product's high bits are folded into the low
   bits that pick the slot: the low bits of a product depend only on the
   low bits of the key, and packed prefix keys (a /24 is [network lsl 6
   lor 24]) all share theirs. *)

let empty_key = -1
let tomb_key = -2

type 'a t = {
  dummy : 'a;
  mutable keys : int array;
  mutable vals : 'a array;
  mutable mask : int; (* capacity - 1; capacity is a power of two *)
  mutable live : int;
  mutable tombs : int;
}

let fib = 0x2545F4914F6CDD1D

let slot_of t key =
  let h = key * fib in
  (h lxor (h lsr 29)) land t.mask

let rec capacity_for n cap = if cap >= n then cap else capacity_for n (2 * cap)

let create ?(initial = 16) ~dummy () =
  (* Size so [initial] bindings fit under the 1/2 load factor. *)
  let cap = capacity_for (2 * Stdlib.max 1 initial) 16 in
  { dummy;
    keys = Array.make cap empty_key;
    vals = Array.make cap dummy;
    mask = cap - 1;
    live = 0;
    tombs = 0 }

let length t = t.live

(* Probe for [key]; returns its slot or [-1] when absent. *)
let find_slot t key =
  let i = ref (slot_of t key) in
  let result = ref (-3) in
  while !result = -3 do
    let k = Array.unsafe_get t.keys !i in
    if k = key then result := !i
    else if k = empty_key then result := -1
    else i := (!i + 1) land t.mask
  done;
  !result

let find t key =
  let s = find_slot t key in
  if s < 0 then None else Some (Array.unsafe_get t.vals s)

let mem t key = find_slot t key >= 0

let rehash t cap =
  let okeys = t.keys and ovals = t.vals in
  t.keys <- Array.make cap empty_key;
  t.vals <- Array.make cap t.dummy;
  t.mask <- cap - 1;
  t.tombs <- 0;
  Array.iteri
    (fun i k ->
      if k >= 0 then begin
        let j = ref (slot_of t k) in
        while Array.unsafe_get t.keys !j <> empty_key do
          j := (!j + 1) land t.mask
        done;
        t.keys.(!j) <- k;
        t.vals.(!j) <- ovals.(i)
      end)
    okeys

let add t key v =
  if key < 0 then invalid_arg "Int_table.add: negative key";
  (* Grow at 1/2 live occupancy.  Tombstones are cleaned in place only
     once they amount to 1/8 of the table: a fixed-size cache of
     power-of-two capacity parks the table exactly at the load
     boundary, where remove+add churn would otherwise pay a full
     O(capacity) rehash per insertion to reclaim a single tombstone.
     Between the two bounds total occupancy stays under 5/8, so probe
     chains stay short and always terminate. *)
  let cap = t.mask + 1 in
  if 2 * (t.live + 1) > cap then rehash t (2 * cap)
  else if 2 * (t.live + t.tombs + 1) > cap && 8 * t.tombs >= cap then
    rehash t cap;
  let i = ref (slot_of t key) in
  let first_tomb = ref (-1) in
  let slot = ref (-3) in
  while !slot = -3 do
    let k = Array.unsafe_get t.keys !i in
    if k = key then slot := !i
    else if k = empty_key then
      slot := (if !first_tomb >= 0 then !first_tomb else !i)
    else begin
      if k = tomb_key && !first_tomb < 0 then first_tomb := !i;
      i := (!i + 1) land t.mask
    end
  done;
  let s = !slot in
  if t.keys.(s) <> key then begin
    if t.keys.(s) = tomb_key then t.tombs <- t.tombs - 1;
    t.keys.(s) <- key;
    t.live <- t.live + 1
  end;
  t.vals.(s) <- v

let remove t key =
  let s = find_slot t key in
  if s >= 0 then begin
    t.keys.(s) <- tomb_key;
    t.vals.(s) <- t.dummy;
    t.live <- t.live - 1;
    t.tombs <- t.tombs + 1;
    (* Without this, a removal-heavy phase (mass invalidation, cache
       churn) leaves the table mostly tombstones: every miss probes to
       the next truly-empty slot, and nothing short of the next [add]
       ever cleans up.  Rehashing once tombstones outnumber live
       entries bounds the dead load factor at 1/2 and shrinks the
       arrays back down after a bulk delete; the O(capacity) cost
       amortises against the removals that created the tombstones.
       The new table is sized at 1/4 load so the shrink lands well
       clear of the grow boundary (no grow/shrink hysteresis). *)
    if t.tombs > t.live then rehash t (capacity_for (4 * (t.live + 1)) 16)
  end

let tombstones t = t.tombs

(* Slots inspected to resolve [key] (present or absent) — the table's
   probe cost, exposed so tests can pin the tombstone-cleanup
   behaviour. *)
let probe_length t key =
  let i = ref (slot_of t key) in
  let probes = ref 1 in
  let stop = ref false in
  while not !stop do
    let k = Array.unsafe_get t.keys !i in
    if k = key || k = empty_key then stop := true
    else begin
      incr probes;
      i := (!i + 1) land t.mask
    end
  done;
  !probes

let iter t ~f =
  Array.iteri (fun i k -> if k >= 0 then f k (Array.unsafe_get t.vals i)) t.keys

let clear t =
  Array.fill t.keys 0 (Array.length t.keys) empty_key;
  Array.fill t.vals 0 (Array.length t.vals) t.dummy;
  t.live <- 0;
  t.tombs <- 0
