(* Open-addressing int-keyed table: linear probing, power-of-two
   capacity, backward-shift deletion.  Keys are hashed with a Fibonacci
   multiplier so clustered key ranges (sequential addresses) spread
   across the table.  The product's high bits are folded into the low
   bits that pick the slot: the low bits of a product depend only on the
   low bits of the key, and packed prefix keys (a /24 is [network lsl 6
   lor 24]) all share theirs. *)

let empty_key = -1

type 'a t = {
  dummy : 'a;
  mutable keys : int array;
  mutable vals : 'a array;
  mutable mask : int; (* capacity - 1; capacity is a power of two *)
  mutable live : int;
}

let fib = 0x2545F4914F6CDD1D

let slot_of t key =
  let h = key * fib in
  (h lxor (h lsr 29)) land t.mask

let initial_capacity = 16

let create ~dummy () =
  { dummy;
    keys = Array.make initial_capacity empty_key;
    vals = Array.make initial_capacity dummy;
    mask = initial_capacity - 1;
    live = 0 }

let length t = t.live

(* Probe for [key]: its slot when present, else the empty slot that
   ends its probe chain (where [add] puts it). *)
let probe t key =
  let i = ref (slot_of t key) in
  while
    let k = Array.unsafe_get t.keys !i in
    k <> key && k <> empty_key
  do
    i := (!i + 1) land t.mask
  done;
  !i

let find t key =
  let s = probe t key in
  if Array.unsafe_get t.keys s = key then Some (Array.unsafe_get t.vals s)
  else None

let find_or t key ~default =
  let s = probe t key in
  if Array.unsafe_get t.keys s = key then Array.unsafe_get t.vals s else default

let mem t key = Array.unsafe_get t.keys (probe t key) = key

let grow t =
  let okeys = t.keys and ovals = t.vals in
  let cap = 2 * Array.length okeys in
  t.keys <- Array.make cap empty_key;
  t.vals <- Array.make cap t.dummy;
  t.mask <- cap - 1;
  Array.iteri
    (fun i k ->
      if k <> empty_key then begin
        let s = probe t k in
        t.keys.(s) <- k;
        t.vals.(s) <- ovals.(i)
      end)
    okeys

let add t key v =
  if key < 0 then invalid_arg "Int_table.add: negative key";
  (* Grow at 1/2 occupancy, so probe chains stay short and always end
     at an empty slot. *)
  if 2 * (t.live + 1) > t.mask + 1 then grow t;
  let s = probe t key in
  if t.keys.(s) <> key then begin
    t.keys.(s) <- key;
    t.live <- t.live + 1
  end;
  t.vals.(s) <- v

(* Backward-shift deletion: close the hole by moving back into it each
   later binding of the cluster that may legally sit there (its home
   slot is not in the cyclic range between the hole and itself), until
   the cluster ends.  No tombstone is left, so probe chains cross only
   live bindings and there is nothing to sweep. *)
let remove t key =
  let s = probe t key in
  if t.keys.(s) = key then begin
    let hole = ref s in
    let j = ref ((s + 1) land t.mask) in
    while t.keys.(!j) <> empty_key do
      let k = t.keys.(!j) in
      if (!j - slot_of t k) land t.mask >= (!j - !hole) land t.mask then begin
        t.keys.(!hole) <- k;
        t.vals.(!hole) <- t.vals.(!j);
        hole := !j
      end;
      j := (!j + 1) land t.mask
    done;
    t.keys.(!hole) <- empty_key;
    t.vals.(!hole) <- t.dummy;
    t.live <- t.live - 1
  end

(* Slots inspected to resolve [key] (present or absent) — the table's
   probe cost, exposed so tests can pin probe lengths. *)
let probe_length t key = ((probe t key - slot_of t key) land t.mask) + 1

let iter t ~f =
  Array.iteri
    (fun i k -> if k <> empty_key then f k (Array.unsafe_get t.vals i))
    t.keys
