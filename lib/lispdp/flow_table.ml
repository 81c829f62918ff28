open Nettypes

(* Open-addressing table keyed by the (src EID, dst EID) int pair,
   stored structure-of-arrays: two key arrays, an entry array and an
   unboxed expiry array.  A lookup is one combined hash plus a linear
   probe over plain ints — no tuple key allocation, no polymorphic
   hashing — and returns the [Some entry] stored at install, so a hit
   allocates nothing.  Expired entries are reaped lazily: on lookup (as before)
   and now also by [length] and [iter], which previously counted
   expired slots and made occupancy gauges and warm-recovery resync
   over-report. *)

let empty_key = -1
let tomb_key = -2

type t = {
  ttl : float;
  mutable k1 : int array; (* src EID; [empty_key] / [tomb_key] sentinels *)
  mutable k2 : int array; (* dst EID *)
  mutable entries : Mapping.flow_entry option array; (* [None] when free *)
  mutable expires : float array;
  mutable mask : int; (* capacity - 1; capacity a power of two *)
  mutable occupied : int; (* live + expired-but-unreaped *)
  mutable tombs : int;
}

let initial_cap = 64

(* The arrays are made at the first install: every border router has a
   table, and only the PCE control plane installs entries.  An empty
   table has capacity 0 ([mask] = -1). *)
let create ?(ttl = 300.0) () =
  if ttl <= 0.0 then invalid_arg "Flow_table.create: non-positive TTL";
  { ttl; k1 = [||]; k2 = [||]; entries = [||]; expires = [||]; mask = -1;
    occupied = 0; tombs = 0 }

let fib1 = 0x2545F4914F6CDD1D
let fib2 = 0x1E3779B97F4A7C15

let slot_of t a b = (a * fib1) lxor (b * fib2) land max_int land t.mask

(* Probe for the pair; slot index, or -1 when absent. *)
let find_slot t a b =
  if t.mask < 0 then -1
  else begin
    let i = ref (slot_of t a b) in
    let result = ref (-3) in
    while !result = -3 do
      let k = Array.unsafe_get t.k1 !i in
      if k = a && Array.unsafe_get t.k2 !i = b then result := !i
      else if k = empty_key then result := -1
      else i := (!i + 1) land t.mask
    done;
    !result
  end

let free_slot t s =
  t.k1.(s) <- tomb_key;
  t.k2.(s) <- tomb_key;
  t.entries.(s) <- None;
  t.occupied <- t.occupied - 1;
  t.tombs <- t.tombs + 1

let rehash t cap =
  let ok1 = t.k1 and ok2 = t.k2 and oent = t.entries and oexp = t.expires in
  t.k1 <- Array.make cap empty_key;
  t.k2 <- Array.make cap empty_key;
  t.entries <- Array.make cap None;
  t.expires <- Array.make cap 0.0;
  t.mask <- cap - 1;
  t.tombs <- 0;
  Array.iteri
    (fun i k ->
      if k >= 0 then begin
        let j = ref (slot_of t k ok2.(i)) in
        while Array.unsafe_get t.k1 !j <> empty_key do
          j := (!j + 1) land t.mask
        done;
        t.k1.(!j) <- k;
        t.k2.(!j) <- ok2.(i);
        t.entries.(!j) <- oent.(i);
        t.expires.(!j) <- oexp.(i)
      end)
    ok1

let insert_slot t a b =
  if 2 * (t.occupied + t.tombs + 1) > t.mask + 1 then
    rehash t
      (if 2 * (t.occupied + 1) > t.mask + 1 then
         Stdlib.max initial_cap (2 * (t.mask + 1))
       else t.mask + 1);
  let i = ref (slot_of t a b) in
  let first_tomb = ref (-1) in
  let slot = ref (-3) in
  while !slot = -3 do
    let k = Array.unsafe_get t.k1 !i in
    if k = a && Array.unsafe_get t.k2 !i = b then slot := !i
    else if k = empty_key then
      slot := (if !first_tomb >= 0 then !first_tomb else !i)
    else begin
      if k = tomb_key && !first_tomb < 0 then first_tomb := !i;
      i := (!i + 1) land t.mask
    end
  done;
  let s = !slot in
  if not (t.k1.(s) = a && t.k2.(s) = b) then begin
    if t.k1.(s) = tomb_key then t.tombs <- t.tombs - 1;
    t.k1.(s) <- a;
    t.k2.(s) <- b;
    t.occupied <- t.occupied + 1
  end;
  s

let install t ~now entry =
  let a = Ipv4.addr_to_int entry.Mapping.src_eid in
  let b = Ipv4.addr_to_int entry.Mapping.dst_eid in
  let s = insert_slot t a b in
  t.entries.(s) <- Some entry;
  t.expires.(s) <- now +. t.ttl

let lookup t ~now ~src_eid ~dst_eid =
  let s = find_slot t (Ipv4.addr_to_int src_eid) (Ipv4.addr_to_int dst_eid) in
  if s < 0 then None
  else if Array.unsafe_get t.expires s > now then Array.unsafe_get t.entries s
  else begin
    free_slot t s;
    None
  end

(* [length] and [iter] walk the table, reaping any expired slot they
   pass — the lazy counterpart of the reap [lookup] does on a hit. *)

let length t ~now =
  let n = ref 0 in
  for s = 0 to t.mask do
    if Array.unsafe_get t.k1 s >= 0 then
      if Array.unsafe_get t.expires s > now then incr n else free_slot t s
  done;
  !n

let iter t ~now ~f =
  for s = 0 to t.mask do
    if Array.unsafe_get t.k1 s >= 0 then
      if Array.unsafe_get t.expires s > now then
        Option.iter f (Array.unsafe_get t.entries s)
      else free_slot t s
  done
