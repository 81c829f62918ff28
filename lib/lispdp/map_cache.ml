open Nettypes

(* Entries live in one flat int-keyed index, the prefix packed into a
   single int.  Insert, refresh and remove are one exact probe; a
   longest-prefix match probes once per populated prefix length,
   longest first, and a 33-slot count of live entries per length says
   which lengths those are.  On top of that shared index each eviction
   policy keeps its own victim-selection state:

   - LRU: an intrusive doubly-linked recency list (head = most recent);
     the victim is the tail.
   - LFU: a doubly-linked list of frequency buckets in ascending
     hit-count order, each bucket an intrusive recency list of the
     entries in that class; the victim is the least-recent entry of the
     lowest bucket (classic LFU with LRU tie-break).  All operations are
     O(1) because a hit moves an entry to the adjacent class.
   - TTL-hybrid: a lazy-deletion binary min-heap on [expires_at]; the
     victim is the entry closest to (or past) expiry.  Entries removed
     for other reasons are only marked dead and skipped when popped;
     the heap compacts when dead nodes dominate. *)

type policy = Lru | Lfu | Ttl_hybrid

let policy_label = function
  | Lru -> "lru"
  | Lfu -> "lfu"
  | Ttl_hybrid -> "ttl-hybrid"

let policy_of_string s =
  match String.lowercase_ascii s with
  | "lru" -> Some Lru
  | "lfu" -> Some Lfu
  | "ttl-hybrid" | "ttl_hybrid" | "ttl" -> Some Ttl_hybrid
  | _ -> None

(* How the entry got here.  Verified and pushed mappings came over an
   authenticated exchange (nonce-checked map-reply, PCE/NERD push);
   gleaned ones were copied off a data packet anybody could have
   forged, so they are the cache-pollution vector an EID-scan flood
   exploits — the admission cap bounds how much of the cache they can
   take. *)
type provenance = Verified | Gleaned | Pushed

let provenance_label = function
  | Verified -> "verified"
  | Gleaned -> "gleaned"
  | Pushed -> "pushed"

type entry = {
  mapping : Mapping.t;
  expires_at : float;
  mutable provenance : provenance;
  (* Recency links: the global list under LRU, the within-bucket list
     under LFU; unused under TTL-hybrid. *)
  mutable prev : entry option;
  mutable next : entry option;
  (* LFU state: hit-count class and the bucket currently holding the
     entry. *)
  mutable freq : int;
  mutable bucket : bucket option;
  (* TTL-hybrid state: lazy-deletion marker for the expiry heap. *)
  mutable dead : bool;
}

and bucket = {
  b_freq : int;
  mutable b_head : entry option; (* most recent in this class *)
  mutable b_tail : entry option; (* least recent in this class *)
  mutable b_prev : bucket option; (* next lower frequency class *)
  mutable b_next : bucket option; (* next higher frequency class *)
}

(* A /len prefix packs into [network lsl 6 lor len]: 32 + 6 bits, well
   inside an OCaml int, and distinct prefixes give distinct keys.  Keys
   order like prefixes: by network, then by length. *)
let prefix_key p =
  (Ipv4.addr_to_int (Ipv4.prefix_network p) lsl 6) lor Ipv4.prefix_length p

let netmask len = (0xFFFFFFFF lsl (32 - len)) land 0xFFFFFFFF

(* The key of the /len prefix that holds [addr]. *)
let addr_key addr len = ((Ipv4.addr_to_int addr land netmask len) lsl 6) lor len

let dummy_entry =
  { mapping =
      Mapping.create
        ~eid_prefix:(Ipv4.prefix (Ipv4.addr_of_int 0) 0)
        ~rlocs:[ Mapping.rloc (Ipv4.addr_of_int 0) ]
        ~ttl:1.0;
    expires_at = 0.0;
    provenance = Verified;
    prev = None;
    next = None;
    freq = 0;
    bucket = None;
    dead = true }

type heap = { mutable h_arr : entry array; mutable h_len : int }

type stats = {
  mutable hits : int;
  mutable misses : int;
  mutable insertions : int;
  mutable evictions : int;
  mutable expirations : int;
  mutable invalidations : int;
  mutable glean_rejections : int;
}

type t = {
  capacity : int;
  policy : policy;
  glean_cap : int option;
  mutable gleaned_live : int;
  index : entry Int_table.t; (* packed prefix -> entry *)
  by_length : int array; (* live entries per prefix length, 0..32 *)
  mutable head : entry option; (* most recently used (LRU) *)
  mutable tail : entry option; (* least recently used (LRU) *)
  mutable lfu_min : bucket option; (* lowest frequency class (LFU) *)
  heap : heap; (* expiry min-heap (TTL-hybrid) *)
  stats : stats;
  mutable evict_hook : (Mapping.t -> unit) option;
  mutable expire_hook : (Mapping.t -> unit) option;
  mutable reject_hook : (Mapping.t -> unit) option;
}

let create ?(policy = Lru) ?(capacity = 10_000) ?glean_cap () =
  if capacity <= 0 then invalid_arg "Map_cache.create: capacity must be positive";
  (match glean_cap with
  | Some c when c < 0 -> invalid_arg "Map_cache.create: negative glean_cap"
  | Some _ | None -> ());
  { capacity; policy; glean_cap; gleaned_live = 0;
    index = Int_table.create ~dummy:dummy_entry ();
    by_length = Array.make 33 0;
    head = None; tail = None; lfu_min = None;
    heap = { h_arr = [||]; h_len = 0 };
    stats =
      { hits = 0; misses = 0; insertions = 0; evictions = 0; expirations = 0;
        invalidations = 0; glean_rejections = 0 };
    evict_hook = None; expire_hook = None; reject_hook = None }

let set_evict_hook t hook = t.evict_hook <- hook
let set_expire_hook t hook = t.expire_hook <- hook
let set_reject_hook t hook = t.reject_hook <- hook

let stats t = t.stats
let length t = Int_table.length t.index
let policy t = t.policy
let glean_cap t = t.glean_cap
let gleaned t = t.gleaned_live

(* ---- global recency list (LRU) ---- *)

let unlink t e =
  (match e.prev with Some p -> p.next <- e.next | None -> t.head <- e.next);
  (match e.next with Some n -> n.prev <- e.prev | None -> t.tail <- e.prev);
  e.prev <- None;
  e.next <- None

let push_front t e =
  e.prev <- None;
  e.next <- t.head;
  (match t.head with Some h -> h.prev <- Some e | None -> t.tail <- Some e);
  t.head <- Some e

(* ---- LFU frequency buckets ---- *)

let bucket_unlink t e =
  match e.bucket with
  | None -> ()
  | Some b ->
      (match e.prev with Some p -> p.next <- e.next | None -> b.b_head <- e.next);
      (match e.next with Some n -> n.prev <- e.prev | None -> b.b_tail <- e.prev);
      e.prev <- None;
      e.next <- None;
      e.bucket <- None;
      if b.b_head = None then begin
        (match b.b_prev with
        | Some p -> p.b_next <- b.b_next
        | None -> t.lfu_min <- b.b_next);
        match b.b_next with Some n -> n.b_prev <- b.b_prev | None -> ()
      end

let bucket_push_entry b e =
  e.prev <- None;
  e.next <- b.b_head;
  (match b.b_head with Some h -> h.prev <- Some e | None -> b.b_tail <- Some e);
  b.b_head <- Some e;
  e.bucket <- Some b

(* The bucket for class [f] sitting right after [anchor] (or at the list
   head when [anchor] is [None]), created if missing.  Callers must pass
   an anchor with a strictly lower class whose successor has class
   [>= f], so the ascending order is preserved. *)
let bucket_after t anchor f =
  let next = match anchor with None -> t.lfu_min | Some b -> b.b_next in
  match next with
  | Some nb when nb.b_freq = f -> nb
  | _ ->
      let nb =
        { b_freq = f; b_head = None; b_tail = None; b_prev = anchor;
          b_next = next }
      in
      (match next with Some n -> n.b_prev <- Some nb | None -> ());
      (match anchor with
      | Some b -> b.b_next <- Some nb
      | None -> t.lfu_min <- Some nb);
      nb

let lfu_insert t e =
  let rec find prev next =
    match next with
    | Some b when b.b_freq < e.freq -> find (Some b) b.b_next
    | _ -> prev
  in
  let anchor = find None t.lfu_min in
  bucket_push_entry (bucket_after t anchor e.freq) e

let lfu_promote t e =
  match e.bucket with
  | None -> ()
  | Some b ->
      (* If [e] is alone in its bucket, the bucket dies with the unlink
         and the next class anchors on its predecessor instead. *)
      let anchor =
        match (e.prev, e.next) with None, None -> b.b_prev | _ -> Some b
      in
      bucket_unlink t e;
      e.freq <- e.freq + 1;
      bucket_push_entry (bucket_after t anchor e.freq) e

(* ---- TTL-hybrid expiry heap ---- *)

let heap_swap h i j =
  let a = h.h_arr in
  let e = a.(i) in
  a.(i) <- a.(j);
  a.(j) <- e

let heap_sift_down h i0 =
  let i = ref i0 in
  let moving = ref true in
  while !moving do
    let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
    let s = ref !i in
    if l < h.h_len && h.h_arr.(l).expires_at < h.h_arr.(!s).expires_at then
      s := l;
    if r < h.h_len && h.h_arr.(r).expires_at < h.h_arr.(!s).expires_at then
      s := r;
    if !s = !i then moving := false
    else begin
      heap_swap h !i !s;
      i := !s
    end
  done

let heap_push h e =
  let cap = Array.length h.h_arr in
  if h.h_len = cap then begin
    let arr = Array.make (Stdlib.max 8 (2 * cap)) dummy_entry in
    Array.blit h.h_arr 0 arr 0 h.h_len;
    h.h_arr <- arr
  end;
  h.h_arr.(h.h_len) <- e;
  let i = ref h.h_len in
  h.h_len <- h.h_len + 1;
  while
    !i > 0 && h.h_arr.((!i - 1) / 2).expires_at > h.h_arr.(!i).expires_at
  do
    heap_swap h !i ((!i - 1) / 2);
    i := (!i - 1) / 2
  done

let heap_pop h =
  let top = h.h_arr.(0) in
  h.h_len <- h.h_len - 1;
  h.h_arr.(0) <- h.h_arr.(h.h_len);
  h.h_arr.(h.h_len) <- dummy_entry;
  heap_sift_down h 0;
  top

let rec heap_pop_live h =
  if h.h_len = 0 then None
  else
    let e = heap_pop h in
    if e.dead then heap_pop_live h else Some e

(* Dead nodes accumulate when entries die without being popped (TTL
   reaps, invalidations, refreshes); rebuild once they dominate so the
   heap stays proportional to the live entry count. *)
let heap_compact h ~live =
  if h.h_len > (2 * live) + 8 then begin
    let n = ref 0 in
    for i = 0 to h.h_len - 1 do
      let e = h.h_arr.(i) in
      if not e.dead then begin
        h.h_arr.(!n) <- e;
        incr n
      end
    done;
    for i = !n to h.h_len - 1 do
      h.h_arr.(i) <- dummy_entry
    done;
    h.h_len <- !n;
    for i = (h.h_len / 2) - 1 downto 0 do
      heap_sift_down h i
    done
  end

(* ---- shared entry lifecycle ---- *)

let drop_entry t e =
  (match t.policy with
  | Lru -> unlink t e
  | Lfu -> bucket_unlink t e
  | Ttl_hybrid -> ());
  if e.provenance = Gleaned then t.gleaned_live <- t.gleaned_live - 1;
  e.dead <- true;
  let prefix = e.mapping.Mapping.eid_prefix in
  let len = Ipv4.prefix_length prefix in
  t.by_length.(len) <- t.by_length.(len) - 1;
  Int_table.remove t.index (prefix_key prefix);
  if t.policy = Ttl_hybrid then heap_compact t.heap ~live:(length t)

(* Explicit removal: count as an invalidation and tell the hook, so the
   SMR invalidation path is visible to the observability layer. *)
let invalidate t e =
  drop_entry t e;
  t.stats.invalidations <- t.stats.invalidations + 1;
  match t.evict_hook with Some hook -> hook e.mapping | None -> ()

let remove t prefix =
  match Int_table.find t.index (prefix_key prefix) with
  | Some e -> invalidate t e
  | None -> ()

(* The victims are found by probing every key the prefix covers at each
   populated length from its own to 32, so the cost follows the covered
   key space, not the cache size (a whole-index pass per call is
   quadratic under invalidation churn with millions of entries).  When
   that would take more probes than the cache holds entries, one pass
   over the index is cheaper and is made instead.  Victims die in
   ascending key order, i.e. ascending (network, length): the order of
   a depth-first walk of the covered prefix tree. *)
let remove_covered t prefix =
  let network = Ipv4.addr_to_int (Ipv4.prefix_network prefix) in
  let len = Ipv4.prefix_length prefix in
  let probes = ref 0 in
  for l = len to 32 do
    if t.by_length.(l) > 0 then probes := !probes + (1 lsl (l - len))
  done;
  let keys = ref [] in
  if !probes <= length t then
    for l = len to 32 do
      if t.by_length.(l) > 0 then
        for i = 0 to (1 lsl (l - len)) - 1 do
          let key = ((network + (i lsl (32 - l))) lsl 6) lor l in
          if Int_table.mem t.index key then keys := key :: !keys
        done
    done
  else
    Int_table.iter t.index ~f:(fun key _ ->
        if key land 63 >= len && (key lsr 6) land netmask len = network then
          keys := key :: !keys);
  let victims = List.sort Int.compare !keys in
  List.iter
    (fun key -> Option.iter (invalidate t) (Int_table.find t.index key))
    victims;
  List.length victims

(* Victim choice when the cache is full, per policy.  A TTL-hybrid
   victim has already been popped off the heap; [drop_entry]'s dead
   marking is then a no-op as far as the heap is concerned. *)
let victim t =
  match t.policy with
  | Lru -> t.tail
  | Lfu -> ( match t.lfu_min with Some b -> b.b_tail | None -> None)
  | Ttl_hybrid -> heap_pop_live t.heap

(* Capacity pressure drops one entry; the books must say why it died.
   A victim whose TTL already lapsed was going to be reaped by the next
   lookup anyway — counting it as an eviction (and telling the evict
   hook) would overstate capacity pressure and skew miss-curve stats,
   so attribution checks [expires_at] against [now] first. *)
let evict_one t ~now =
  match victim t with
  | None -> ()
  | Some e ->
      drop_entry t e;
      if e.expires_at <= now then begin
        t.stats.expirations <- t.stats.expirations + 1;
        match t.expire_hook with Some hook -> hook e.mapping | None -> ()
      end
      else begin
        t.stats.evictions <- t.stats.evictions + 1;
        match t.evict_hook with Some hook -> hook e.mapping | None -> ()
      end

let insert t ~now ?(provenance = Verified) mapping =
  (* A refresh replaces the old entry silently: it is neither an
     invalidation (nothing was lost) nor a new insertion, which keeps
     the balance insertions = live + evictions + expirations +
     invalidations exact.  Under LFU the refreshed entry keeps its
     hit-count class — it is the same logical cache line.

     Provenance on refresh only ever upgrades: a gleaned copy of a
     prefix that already has a verified/pushed entry is ignored (a
     forged data packet must not be able to re-stamp a verified line),
     while a verified reply refreshing a gleaned entry takes over. *)
  let key = prefix_key mapping.Mapping.eid_prefix in
  let existing = Int_table.find t.index key in
  match (existing, provenance) with
  | Some e, Gleaned when e.provenance <> Gleaned -> ()
  | _ ->
      (* Admission policy: a brand-new gleaned entry is refused once the
         gleaned population hits the cap (a refresh of an existing
         gleaned line never changes the population). *)
      let new_glean = existing = None && provenance = Gleaned in
      if
        new_glean
        && match t.glean_cap with Some c -> t.gleaned_live >= c | None -> false
      then begin
        t.stats.glean_rejections <- t.stats.glean_rejections + 1;
        match t.reject_hook with Some hook -> hook mapping | None -> ()
      end
      else begin
        let refreshed_freq =
          match existing with
          | Some e ->
              drop_entry t e;
              Some e.freq
          | None -> None
        in
        if length t >= t.capacity then evict_one t ~now;
        let e =
          { mapping; expires_at = now +. mapping.Mapping.ttl; provenance;
            prev = None; next = None;
            freq = (match refreshed_freq with Some f -> f | None -> 1);
            bucket = None; dead = false }
        in
        if provenance = Gleaned then t.gleaned_live <- t.gleaned_live + 1;
        let len = Ipv4.prefix_length mapping.Mapping.eid_prefix in
        t.by_length.(len) <- t.by_length.(len) + 1;
        Int_table.add t.index key e;
        (match t.policy with
        | Lru -> push_front t e
        | Lfu -> lfu_insert t e
        | Ttl_hybrid -> heap_push t.heap e);
        if refreshed_freq = None then
          t.stats.insertions <- t.stats.insertions + 1
      end

(* Longest-prefix match at lengths [len] and below, skipping (and
   reaping) expired entries.  An address has one candidate key per
   length, so after reaping an expired match the next-longest match is
   further down the lengths. *)
let rec live_lookup t ~now addr len =
  if len < 0 then None
  else if t.by_length.(len) = 0 then live_lookup t ~now addr (len - 1)
  else
    match Int_table.find t.index (addr_key addr len) with
    | None -> live_lookup t ~now addr (len - 1)
    | Some e as hit when e.expires_at > now -> hit
    | Some e ->
        drop_entry t e;
        t.stats.expirations <- t.stats.expirations + 1;
        (match t.expire_hook with
        | Some hook -> hook e.mapping
        | None -> ());
        live_lookup t ~now addr (len - 1)

let lookup t ~now addr =
  match live_lookup t ~now addr 32 with
  | Some e ->
      t.stats.hits <- t.stats.hits + 1;
      (match t.policy with
      | Lru ->
          unlink t e;
          push_front t e
      | Lfu -> lfu_promote t e
      | Ttl_hybrid -> ());
      Some e.mapping
  | None ->
      t.stats.misses <- t.stats.misses + 1;
      None

let contains t ~now addr = live_lookup t ~now addr 32 <> None

let provenance_of t prefix =
  Int_table.find t.index (prefix_key prefix)
  |> Option.map (fun e -> e.provenance)
