open Netsim.Telemetry

(* ------------------------------------------------------------------ *)
(* Registry gauges                                                     *)
(* ------------------------------------------------------------------ *)

(* One collector family: sampled metric exports and the `telemetry`
   subcommand read the same snapshot code, so the numbers cannot
   drift apart. *)
let gauge_rows t =
  let fi = float_of_int in
  let b = balance t ~window:true in
  let per_provider =
    List.concat
      (List.mapi
         (fun i p ->
           let tag dir name = Printf.sprintf "provider.%d.%s.%s" p dir name in
           let stat_in = provider_stat t ~provider:p `In in
           let stat_out = provider_stat t ~provider:p `Out in
           [ (tag "in" "win_bytes", fi stat_in.st_win_bytes);
             (tag "in" "bytes", fi stat_in.st_bytes);
             (tag "in" "share", b.bal_in_share.(i));
             (tag "out" "win_bytes", fi stat_out.st_win_bytes);
             (tag "out" "bytes", fi stat_out.st_bytes);
             (tag "out" "share", b.bal_out_share.(i)) ])
         (Array.to_list b.bal_providers))
  in
  [ ("jain_in", b.bal_jain_in); ("jain_out", b.bal_jain_out);
    ("dropped", fi (Netsim.Drop.total (ledger t)));
    ("flow_packets", fi (flow_packets_observed t)) ]
  @ (if Float.is_finite b.bal_ratio_in then [ ("ratio_in", b.bal_ratio_in) ]
     else [])
  @ (if Float.is_finite b.bal_ratio_out then
       [ ("ratio_out", b.bal_ratio_out) ]
     else [])
  @ per_provider

let register_gauges registry t =
  Registry.register_many registry "telemetry" (fun () -> gauge_rows t)

(* ------------------------------------------------------------------ *)
(* JSON snapshot                                                       *)
(* ------------------------------------------------------------------ *)

let json_of_stat s =
  Json.Obj
    [ ("pkts", Json.Int s.st_pkts); ("bytes", Json.Int s.st_bytes);
      ("win_pkts", Json.Int s.st_win_pkts);
      ("win_bytes", Json.Int s.st_win_bytes) ]

let json_of_samples samples =
  Json.List
    (List.map
       (fun s ->
         Json.Obj
           [ ("slot", Json.Int s.sl_slot); ("start", Json.Float s.sl_start);
             ("pkts", Json.Int s.sl_pkts); ("bytes", Json.Int s.sl_bytes) ])
       samples)

let finite_or_null f = if Float.is_finite f then Json.Float f else Json.Null

let json_of_balance b =
  Json.Obj
    [ ( "providers",
        Json.List
          (Array.to_list (Array.map (fun p -> Json.Int p) b.bal_providers)) );
      ( "in_share",
        Json.List
          (Array.to_list (Array.map (fun s -> Json.Float s) b.bal_in_share))
      );
      ( "out_share",
        Json.List
          (Array.to_list (Array.map (fun s -> Json.Float s) b.bal_out_share))
      );
      ("jain_in", Json.Float b.bal_jain_in);
      ("jain_out", Json.Float b.bal_jain_out);
      ("ratio_in", finite_or_null b.bal_ratio_in);
      ("ratio_out", finite_or_null b.bal_ratio_out) ]

let json_of_hitters hs =
  Json.List
    (List.map
       (fun h ->
         Json.Obj
           [ ("key", Json.Int h.hh_key); ("count", Json.Int h.hh_count);
             ("error", Json.Int h.hh_error) ])
       hs)

let json_snapshot ?(series = false) t =
  let c = config t in
  let provider_block p =
    Json.Obj
      ([ ("provider", Json.Int p);
         ("in", json_of_stat (provider_stat t ~provider:p `In));
         ("out", json_of_stat (provider_stat t ~provider:p `Out)) ]
      @
      if series then
        [ ("in_series", json_of_samples (provider_series t ~provider:p `In));
          ("out_series", json_of_samples (provider_series t ~provider:p `Out))
        ]
      else [])
  in
  let node_block n =
    Json.Obj
      [ ("node", Json.Int n); ("name", Json.String (node_name t n));
        ("tx", json_of_stat (node_stat t ~node:n `Tx));
        ("rx", json_of_stat (node_stat t ~node:n `Rx));
        ("fwd", json_of_stat (node_stat t ~node:n `Fwd)) ]
  in
  let link_block l =
    Json.Obj
      [ ("link", Json.Int l);
        ("ab", json_of_stat (link_stat t ~link:l ~dir:0));
        ("ba", json_of_stat (link_stat t ~link:l ~dir:1)) ]
  in
  let json_of_causes causes =
    Json.Obj
      (List.map
         (fun (cause, n) -> (Netsim.Drop.label cause, Json.Int n))
         causes)
  in
  let drop_block (node, causes) =
    Json.Obj
      [ ("node", Json.Int node); ("name", Json.String (node_name t node));
        ("causes", json_of_causes causes) ]
  in
  let drops = ledger t in
  Json.Obj
    [ ("window_s", Json.Float c.window_s); ("slots", Json.Int c.slots);
      ("topk", Json.Int c.topk);
      ("current_slot", Json.Int (current_slot t));
      ("balance_window", json_of_balance (balance t ~window:true));
      ("balance_total", json_of_balance (balance t ~window:false));
      ("providers", Json.List (List.map provider_block (providers t)));
      ("nodes", Json.List (List.map node_block (nodes t)));
      ("links", Json.List (List.map link_block (links t)));
      ("dropped", Json.Int (Netsim.Drop.total drops));
      ("drop_totals", json_of_causes (Netsim.Drop.totals drops));
      ( "drops_by_node",
        Json.List (List.map drop_block (Netsim.Drop.by_node drops)) );
      ("top_eids", json_of_hitters (top_eids t));
      ("top_flows", json_of_hitters (top_flows t));
      ("flow_packets", Json.Int (flow_packets_observed t));
      ( "selections",
        Json.List
          (List.map
             (fun (p, out, inb) ->
               Json.Obj
                 [ ("provider", Json.Int p); ("out", Json.Int out);
                   ("in", Json.Int inb) ])
             (selections t)) ) ]

(* ------------------------------------------------------------------ *)
(* Tables                                                              *)
(* ------------------------------------------------------------------ *)

let provider_table t =
  let b = balance t ~window:true in
  let bt = balance t ~window:false in
  let table =
    Metrics.Table.create ~title:"per-provider traffic (TE balance)"
      ~columns:
        [ "provider"; "in bytes"; "in share"; "out bytes"; "out share";
          "win in"; "win out" ]
  in
  Array.iteri
    (fun i p ->
      let stat_in = provider_stat t ~provider:p `In in
      let stat_out = provider_stat t ~provider:p `Out in
      Metrics.Table.add_row table
        [ Printf.sprintf "P%d" p;
          Metrics.Table.cell_bytes stat_in.st_bytes;
          Metrics.Table.cell_pct bt.bal_in_share.(i);
          Metrics.Table.cell_bytes stat_out.st_bytes;
          Metrics.Table.cell_pct bt.bal_out_share.(i);
          Metrics.Table.cell_bytes stat_in.st_win_bytes;
          Metrics.Table.cell_bytes stat_out.st_win_bytes ])
    b.bal_providers;
  let cell_ratio r =
    if Float.is_finite r then Metrics.Table.cell_float r else "inf"
  in
  Metrics.Table.add_row table
    [ "jain/ratio (win)"; Metrics.Table.cell_float b.bal_jain_in;
      cell_ratio b.bal_ratio_in; Metrics.Table.cell_float b.bal_jain_out;
      cell_ratio b.bal_ratio_out; "-"; "-" ];
  table

let node_table ?(limit = 20) t =
  let table =
    Metrics.Table.create ~title:"per-node traffic (top by total bytes)"
      ~columns:[ "node"; "tx"; "rx"; "fwd"; "tx bytes"; "rx bytes"; "fwd bytes" ]
  in
  let weight n =
    let s k = (node_stat t ~node:n k).st_bytes in
    s `Tx + s `Rx + s `Fwd
  in
  let sorted =
    List.sort
      (fun a b ->
        let wa = weight a and wb = weight b in
        if wa <> wb then Int.compare wb wa else Int.compare a b)
      (nodes t)
  in
  List.iteri
    (fun i n ->
      if i < limit then begin
        let tx = node_stat t ~node:n `Tx
        and rx = node_stat t ~node:n `Rx
        and fwd = node_stat t ~node:n `Fwd in
        Metrics.Table.add_row table
          [ node_name t n; Metrics.Table.cell_int tx.st_pkts;
            Metrics.Table.cell_int rx.st_pkts;
            Metrics.Table.cell_int fwd.st_pkts;
            Metrics.Table.cell_bytes tx.st_bytes;
            Metrics.Table.cell_bytes rx.st_bytes;
            Metrics.Table.cell_bytes fwd.st_bytes ]
      end)
    sorted;
  table

let drop_table t =
  let drops = ledger t in
  let total = Netsim.Drop.total drops in
  let table =
    Metrics.Table.create ~title:"drop attribution"
      ~columns:[ "node"; "cause"; "count"; "share" ]
  in
  List.iter
    (fun (node, causes) ->
      List.iter
        (fun (cause, n) ->
          Metrics.Table.add_row table
            [ node_name t node; Netsim.Drop.label cause;
              Metrics.Table.cell_int n;
              Metrics.Table.cell_pct
                (if total = 0 then 0.0
                 else float_of_int n /. float_of_int total) ])
        causes)
    (Netsim.Drop.by_node drops);
  table

let hitter_table ~title ~key_label fmt_key hitters =
  let table =
    Metrics.Table.create ~title
      ~columns:[ key_label; "count (est)"; "max err" ]
  in
  List.iter
    (fun h ->
      Metrics.Table.add_row table
        [ fmt_key h.hh_key; Metrics.Table.cell_int h.hh_count;
          Metrics.Table.cell_int h.hh_error ])
    hitters;
  table

let top_eid_table ?(limit = 10) t =
  let hitters = List.filteri (fun i _ -> i < limit) (top_eids t) in
  hitter_table ~title:"top destination EIDs (Space-Saving)"
    ~key_label:"eid"
    (fun key -> Format.asprintf "%a" Nettypes.Ipv4.pp_addr
        (Nettypes.Ipv4.addr_of_int key))
    hitters

let top_flow_table ?(limit = 10) t =
  let hitters = List.filteri (fun i _ -> i < limit) (top_flows t) in
  hitter_table ~title:"top flows (Space-Saving)" ~key_label:"flow"
    (fun key -> Printf.sprintf "%#x" key)
    hitters

let tables t =
  [ provider_table t; node_table t; drop_table t; top_eid_table t;
    top_flow_table t ]

(* ------------------------------------------------------------------ *)
(* Windowed series CSV                                                 *)
(* ------------------------------------------------------------------ *)

let series_csv t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "slot,start_s,provider,direction,pkts,bytes\n";
  List.iter
    (fun p ->
      List.iter
        (fun (dir, samples) ->
          List.iter
            (fun s ->
              Buffer.add_string buf
                (Printf.sprintf "%d,%.3f,%d,%s,%d,%d\n" s.sl_slot s.sl_start
                   p dir s.sl_pkts s.sl_bytes))
            samples)
        [ ("in", provider_series t ~provider:p `In);
          ("out", provider_series t ~provider:p `Out) ])
    (providers t);
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Chrome-trace counter events                                         *)
(* ------------------------------------------------------------------ *)

(* "C"-phase counter events on the simulated-time axis: one counter
   track per provider and direction, one sample per retained window.
   Merge into a span trace (same pid) and Perfetto draws provider load
   under the causal spans. *)
let chrome_counter_events ?(pid = 1) t =
  List.concat_map
    (fun p ->
      List.concat_map
        (fun (dir, samples) ->
          List.map
            (fun s ->
              Json.Obj
                [ ( "name",
                    Json.String (Printf.sprintf "provider%d-%s" p dir) );
                  ("cat", Json.String "telemetry");
                  ("ph", Json.String "C");
                  ("ts", Json.Float (s.sl_start *. 1e6));
                  ("pid", Json.Int pid);
                  ("tid", Json.Int 0);
                  ("args", Json.Obj [ ("bytes", Json.Int s.sl_bytes) ]) ])
            samples)
        [ ("in", provider_series t ~provider:p `In);
          ("out", provider_series t ~provider:p `Out) ])
    (providers t)

let write_chrome_trace ~file t =
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc
        (Json.to_string
           (Json.Obj
              [ ("traceEvents", Json.List (chrome_counter_events t));
                ("displayTimeUnit", Json.String "ms") ]));
      output_char oc '\n')
