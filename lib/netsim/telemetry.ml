(* Traffic telemetry internals.  A plane is a value: [Scenario.build]
   creates one per telemetry-on scenario, sized by that scenario's
   graph, so two scenarios in one process never share, wipe or disable
   each other's counters.  "Off" is the absence of a plane: call sites
   hold a [t option] and pay one [None] test, no closure, no
   allocation, no clock read.

   Unlike the profiler this module counts *simulated* quantities
   (packets, bytes) against the *simulated* clock, so a plane is
   deterministic: it observes the simulation and never schedules events
   or draws randomness. *)

(* ------------------------------------------------------------------ *)
(* Configuration                                                       *)
(* ------------------------------------------------------------------ *)

type config = { window_s : float; slots : int; topk : int }

let default_config = { window_s = 1.0; slots = 60; topk = 32 }

(* ------------------------------------------------------------------ *)
(* Windowed series                                                     *)
(* ------------------------------------------------------------------ *)

(* One series = cumulative totals plus a ring of the last [slots]
   windows.  The ring uses lazy invalidation: each cell remembers which
   absolute slot it holds, so a write is O(1) (overwrite a stale cell)
   and rotation never walks every registered series. *)
type series = {
  mutable cum_pkts : int;
  mutable cum_bytes : int;
  slot_pkts : int array;
  slot_bytes : int array;
  slot_id : int array; (* absolute slot each cell holds; -1 = empty *)
}

(* Growable stores of series, indexed by small int keys (link id, node
   id, provider id). *)
type store = { mutable cells : series option array }

(* ------------------------------------------------------------------ *)
(* Space-Saving heavy-hitter sketches                                  *)
(* ------------------------------------------------------------------ *)

module Sketch = struct
  (* Metwally et al.'s Space-Saving: at most [cap] monitored keys; a
     new key beyond capacity evicts the minimum-count key and inherits
     its count as over-estimation error.  Any key with true frequency
     above [total / cap] is guaranteed monitored, and every reported
     count over-estimates truth by at most its recorded error
     (<= total / cap). *)
  type t = {
    cap : int;
    index : (int, int) Hashtbl.t; (* key -> slot *)
    keys : int array;
    counts : int array;
    errors : int array;
    mutable used : int;
    mutable total : int;
  }

  let create ~cap =
    if cap <= 0 then invalid_arg "Telemetry.Sketch.create: cap must be > 0";
    { cap; index = Hashtbl.create (2 * cap); keys = Array.make cap 0;
      counts = Array.make cap 0; errors = Array.make cap 0; used = 0;
      total = 0 }

  let min_slot t =
    let best = ref 0 in
    for i = 1 to t.used - 1 do
      if t.counts.(i) < t.counts.(!best) then best := i
    done;
    !best

  let observe t key =
    t.total <- t.total + 1;
    match Hashtbl.find_opt t.index key with
    | Some i -> t.counts.(i) <- t.counts.(i) + 1
    | None ->
        if t.used < t.cap then begin
          let i = t.used in
          t.used <- i + 1;
          t.keys.(i) <- key;
          t.counts.(i) <- 1;
          t.errors.(i) <- 0;
          Hashtbl.replace t.index key i
        end
        else begin
          let i = min_slot t in
          Hashtbl.remove t.index t.keys.(i);
          Hashtbl.replace t.index key i;
          t.errors.(i) <- t.counts.(i);
          t.counts.(i) <- t.counts.(i) + 1;
          t.keys.(i) <- key
        end

  let total t = t.total

  let entries t =
    let l = ref [] in
    for i = t.used - 1 downto 0 do
      l := (t.keys.(i), t.counts.(i), t.errors.(i)) :: !l
    done;
    List.sort
      (fun (ka, ca, _) (kb, cb, _) ->
        if ca <> cb then Int.compare cb ca else Int.compare ka kb)
      !l
end

(* ------------------------------------------------------------------ *)
(* The plane                                                           *)
(* ------------------------------------------------------------------ *)

type t = {
  cfg : config;
  origin : float;
  mutable cur_slot : int;
  name_of_node : int -> string;
  (* Link stores are indexed by [2 * link_id + dir] so the two
     directions of one link stay separate. *)
  link_store : store;
  node_tx_store : store;
  node_rx_store : store;
  node_fwd_store : store;
  prov_in_store : store;
  prov_out_store : store;
  (* Uplink registration: link id -> provider id and which direction
     leaves the customer domain (egress). *)
  mutable uplink_provider : int array;
  mutable uplink_egress_dir : int array;
  drops : Drop.t; (* the scenario's ledger, read by the drop reports *)
  eid_sketch : Sketch.t;
  flow_sketch : Sketch.t;
  (* IRC selection decisions, cumulative per provider and direction. *)
  mutable sel_out : int array;
  mutable sel_in : int array;
  mutable sel_max : int;
}

let create ?(config = default_config) ~node_name ~drops ~now () =
  if config.window_s <= 0.0 then
    invalid_arg "Telemetry.create: window must be positive";
  if config.slots <= 0 then invalid_arg "Telemetry.create: slots must be > 0";
  let store () = { cells = [||] } in
  { cfg = config; origin = now; cur_slot = 0; name_of_node = node_name;
    link_store = store (); node_tx_store = store (); node_rx_store = store ();
    node_fwd_store = store (); prov_in_store = store ();
    prov_out_store = store (); uplink_provider = [||];
    uplink_egress_dir = [||]; drops;
    eid_sketch = Sketch.create ~cap:config.topk;
    flow_sketch = Sketch.create ~cap:config.topk; sel_out = [||];
    sel_in = [||]; sel_max = 0 }

let config t = t.cfg
let ledger t = t.drops
let current_slot t = t.cur_slot
let slot_start t i = t.origin +. (float_of_int i *. t.cfg.window_s)

let node_name t node = if node < 0 then "(unattributed)" else t.name_of_node node

let series_add t s ~pkts ~bytes =
  s.cum_pkts <- s.cum_pkts + pkts;
  s.cum_bytes <- s.cum_bytes + bytes;
  let n = Array.length s.slot_id in
  let i = t.cur_slot mod n in
  if s.slot_id.(i) <> t.cur_slot then begin
    s.slot_id.(i) <- t.cur_slot;
    s.slot_pkts.(i) <- 0;
    s.slot_bytes.(i) <- 0
  end;
  s.slot_pkts.(i) <- s.slot_pkts.(i) + pkts;
  s.slot_bytes.(i) <- s.slot_bytes.(i) + bytes

(* Sum of the cells still inside the sliding window
   (cur_slot - slots, cur_slot]. *)
let series_window t s =
  let n = Array.length s.slot_id in
  let lo = t.cur_slot - n in
  let pkts = ref 0 and bytes = ref 0 in
  for i = 0 to n - 1 do
    if s.slot_id.(i) > lo then begin
      pkts := !pkts + s.slot_pkts.(i);
      bytes := !bytes + s.slot_bytes.(i)
    end
  done;
  (!pkts, !bytes)

type slot_sample = {
  sl_slot : int;
  sl_start : float;
  sl_pkts : int;
  sl_bytes : int;
}

let series_samples t s =
  let n = Array.length s.slot_id in
  let lo = t.cur_slot - n in
  let acc = ref [] in
  for slot = t.cur_slot downto max 0 (lo + 1) do
    let i = slot mod n in
    if s.slot_id.(i) = slot then
      acc :=
        { sl_slot = slot; sl_start = slot_start t slot;
          sl_pkts = s.slot_pkts.(i); sl_bytes = s.slot_bytes.(i) }
        :: !acc
  done;
  !acc

(* [a] grown (doubling, at least 16) to hold [len] cells. *)
let grown a len default =
  let n = Array.length a in
  if len <= n then a
  else begin
    let b = Array.make (max 16 (max len (2 * n))) default in
    Array.blit a 0 b 0 n;
    b
  end

let store_get t st key =
  if key < 0 then invalid_arg "Telemetry: negative key";
  if key >= Array.length st.cells then
    st.cells <- grown st.cells (key + 1) None;
  match st.cells.(key) with
  | Some s -> s
  | None ->
      let n = t.cfg.slots in
      let s =
        { cum_pkts = 0; cum_bytes = 0; slot_pkts = Array.make n 0;
          slot_bytes = Array.make n 0; slot_id = Array.make n (-1) }
      in
      st.cells.(key) <- Some s;
      s

let store_find st key =
  if key >= 0 && key < Array.length st.cells then st.cells.(key) else None

let store_keys st =
  let acc = ref [] in
  for i = Array.length st.cells - 1 downto 0 do
    if st.cells.(i) <> None then acc := i :: !acc
  done;
  !acc

let register_uplink t ~link ~provider ~egress_dir =
  if link < 0 || provider < 0 then
    invalid_arg "Telemetry.register_uplink: negative id";
  if egress_dir <> 0 && egress_dir <> 1 then
    invalid_arg "Telemetry.register_uplink: dir must be 0 or 1";
  t.uplink_provider <- grown t.uplink_provider (link + 1) (-1);
  t.uplink_egress_dir <- grown t.uplink_egress_dir (link + 1) 0;
  t.uplink_provider.(link) <- provider;
  t.uplink_egress_dir.(link) <- egress_dir

let provider_of_link t link =
  if link >= 0 && link < Array.length t.uplink_provider then
    let p = t.uplink_provider.(link) in
    if p >= 0 then Some p else None
  else None

(* ------------------------------------------------------------------ *)
(* Hot-path hooks                                                      *)
(* ------------------------------------------------------------------ *)

let touch t ~now =
  let s = int_of_float ((now -. t.origin) /. t.cfg.window_s) in
  if s > t.cur_slot then t.cur_slot <- s

let on_link t ~link ~dir ~bytes =
  series_add t (store_get t t.link_store ((2 * link) + dir)) ~pkts:1 ~bytes;
  match provider_of_link t link with
  | Some p ->
      let st =
        if dir = t.uplink_egress_dir.(link) then t.prov_out_store
        else t.prov_in_store
      in
      series_add t (store_get t st p) ~pkts:1 ~bytes
  | None -> ()

let on_node_tx t ~node ~bytes =
  series_add t (store_get t t.node_tx_store node) ~pkts:1 ~bytes

let on_node_rx t ~node ~bytes =
  series_add t (store_get t t.node_rx_store node) ~pkts:1 ~bytes

let on_node_fwd t ~node ~bytes =
  series_add t (store_get t t.node_fwd_store node) ~pkts:1 ~bytes

let on_flow_packet t ~eid ~flow =
  Sketch.observe t.eid_sketch eid;
  Sketch.observe t.flow_sketch flow

let on_select t ~provider ~inbound =
  if provider >= t.sel_max then t.sel_max <- provider + 1;
  t.sel_out <- grown t.sel_out t.sel_max 0;
  t.sel_in <- grown t.sel_in t.sel_max 0;
  let a = if inbound then t.sel_in else t.sel_out in
  a.(provider) <- a.(provider) + 1

(* ------------------------------------------------------------------ *)
(* Results                                                             *)
(* ------------------------------------------------------------------ *)

type stat = {
  st_pkts : int;
  st_bytes : int;
  st_win_pkts : int;
  st_win_bytes : int;
}

let zero_stat = { st_pkts = 0; st_bytes = 0; st_win_pkts = 0; st_win_bytes = 0 }

let stat_of_series t = function
  | None -> zero_stat
  | Some s ->
      let wp, wb = series_window t s in
      { st_pkts = s.cum_pkts; st_bytes = s.cum_bytes; st_win_pkts = wp;
        st_win_bytes = wb }

let link_stat t ~link ~dir =
  stat_of_series t (store_find t.link_store ((2 * link) + dir))

let node_stat t ~node kind =
  let st =
    match kind with
    | `Tx -> t.node_tx_store
    | `Rx -> t.node_rx_store
    | `Fwd -> t.node_fwd_store
  in
  stat_of_series t (store_find st node)

let provider_store t = function `In -> t.prov_in_store | `Out -> t.prov_out_store

let provider_stat t ~provider dir =
  stat_of_series t (store_find (provider_store t dir) provider)

let providers t =
  List.sort_uniq Int.compare
    (store_keys t.prov_in_store @ store_keys t.prov_out_store
    @ List.filter_map (provider_of_link t)
        (List.init (Array.length t.uplink_provider) Fun.id))

let nodes t =
  List.sort_uniq Int.compare
    (store_keys t.node_tx_store @ store_keys t.node_rx_store
   @ store_keys t.node_fwd_store)

let links t =
  List.sort_uniq Int.compare
    (List.map (fun k -> k / 2) (store_keys t.link_store))

let series_of t st key =
  match store_find st key with None -> [] | Some s -> series_samples t s

let link_series t ~link ~dir = series_of t t.link_store ((2 * link) + dir)

let provider_series t ~provider dir =
  series_of t (provider_store t dir) provider

let selections t =
  List.init t.sel_max (fun p ->
      let get a = if p < Array.length a then a.(p) else 0 in
      (p, get t.sel_out, get t.sel_in))

(* ------------------------------------------------------------------ *)
(* Derived TE-balance metrics                                          *)
(* ------------------------------------------------------------------ *)

type balance = {
  bal_providers : int array;
  bal_in_bytes : int array;
  bal_out_bytes : int array;
  bal_in_share : float array;
  bal_out_share : float array;
  bal_jain_in : float;
  bal_jain_out : float;
  bal_ratio_in : float; (* max/min provider load; infinity when min = 0 *)
  bal_ratio_out : float;
}

let shares bytes =
  let total = Array.fold_left ( + ) 0 bytes in
  if total = 0 then Array.map (fun _ -> 0.0) bytes
  else Array.map (fun b -> float_of_int b /. float_of_int total) bytes

let max_min_ratio bytes =
  if Array.length bytes = 0 then 1.0
  else begin
    let mx = Array.fold_left max 0 bytes in
    let mn = Array.fold_left min max_int bytes in
    if mx = 0 then 1.0
    else if mn = 0 then infinity
    else float_of_int mx /. float_of_int mn
  end

let balance t ~window =
  let ps = Array.of_list (providers t) in
  let grab dir p =
    let s = provider_stat t ~provider:p dir in
    if window then s.st_win_bytes else s.st_bytes
  in
  let in_bytes = Array.map (grab `In) ps in
  let out_bytes = Array.map (grab `Out) ps in
  { bal_providers = ps;
    bal_in_bytes = in_bytes;
    bal_out_bytes = out_bytes;
    bal_in_share = shares in_bytes;
    bal_out_share = shares out_bytes;
    bal_jain_in = Stats.jain_index (Array.map float_of_int in_bytes);
    bal_jain_out = Stats.jain_index (Array.map float_of_int out_bytes);
    bal_ratio_in = max_min_ratio in_bytes;
    bal_ratio_out = max_min_ratio out_bytes }

(* ------------------------------------------------------------------ *)
(* Heavy-hitter reports                                                *)
(* ------------------------------------------------------------------ *)

type heavy_hitter = { hh_key : int; hh_count : int; hh_error : int }

let hitters sk =
  List.map
    (fun (key, count, error) ->
      { hh_key = key; hh_count = count; hh_error = error })
    (Sketch.entries sk)

let top_eids t = hitters t.eid_sketch
let top_flows t = hitters t.flow_sketch
let flow_packets_observed t = Sketch.total t.flow_sketch
