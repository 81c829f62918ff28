(* Unit and property tests for nettypes: IPv4 parsing/prefix arithmetic,
   longest-prefix-match trie, mapping selection, packet encapsulation. *)

open Nettypes

let addr = Ipv4.addr_of_string
let pfx = Ipv4.prefix_of_string

(* ------------------------------------------------------------------ *)
(* Ipv4                                                                *)
(* ------------------------------------------------------------------ *)

let test_addr_roundtrip () =
  List.iter
    (fun s ->
      Alcotest.(check string) s s (Ipv4.addr_to_string (addr s)))
    [ "0.0.0.0"; "10.1.2.3"; "255.255.255.255"; "192.168.0.1" ]

let test_addr_malformed () =
  List.iter
    (fun s ->
      match Ipv4.addr_of_string s with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "accepted malformed %s" s)
    [ ""; "1.2.3"; "1.2.3.4.5"; "256.0.0.1"; "-1.0.0.0"; "a.b.c.d"; "1..2.3" ]

let test_addr_ordering () =
  Alcotest.(check bool) "10/8 < 11/8" true
    (Ipv4.addr_compare (addr "10.0.0.0") (addr "11.0.0.0") < 0);
  Alcotest.(check int) "equal" 0 (Ipv4.addr_compare (addr "1.2.3.4") (addr "1.2.3.4"))

let test_addr_offset () =
  Alcotest.(check string) "offset" "10.0.1.0"
    (Ipv4.addr_to_string (Ipv4.addr_offset (addr "10.0.0.255") 1));
  Alcotest.check_raises "overflow"
    (Invalid_argument "Ipv4.addr_offset: out of range") (fun () ->
      ignore (Ipv4.addr_offset (addr "255.255.255.255") 1))

let test_prefix_canonical () =
  let p = Ipv4.prefix (addr "10.1.2.3") 8 in
  Alcotest.(check string) "host bits cleared" "10.0.0.0/8"
    (Ipv4.prefix_to_string p);
  Alcotest.(check bool) "equal to parsed" true
    (Ipv4.prefix_equal p (pfx "10.0.0.0/8"))

let test_prefix_mem () =
  let p = pfx "10.0.0.0/8" in
  Alcotest.(check bool) "inside" true (Ipv4.prefix_mem p (addr "10.200.3.4"));
  Alcotest.(check bool) "outside" false (Ipv4.prefix_mem p (addr "11.0.0.1"));
  let p0 = pfx "0.0.0.0/0" in
  Alcotest.(check bool) "default route matches all" true
    (Ipv4.prefix_mem p0 (addr "200.1.2.3"));
  let host = pfx "1.2.3.4/32" in
  Alcotest.(check bool) "host route exact" true (Ipv4.prefix_mem host (addr "1.2.3.4"));
  Alcotest.(check bool) "host route other" false (Ipv4.prefix_mem host (addr "1.2.3.5"))

let test_prefix_subsumes () =
  Alcotest.(check bool) "/8 subsumes /24" true
    (Ipv4.prefix_subsumes (pfx "10.0.0.0/8") (pfx "10.5.0.0/24"));
  Alcotest.(check bool) "/24 not subsumes /8" false
    (Ipv4.prefix_subsumes (pfx "10.5.0.0/24") (pfx "10.0.0.0/8"));
  Alcotest.(check bool) "disjoint" false
    (Ipv4.prefix_subsumes (pfx "10.0.0.0/8") (pfx "11.0.0.0/24"))

let test_prefix_nth () =
  Alcotest.(check string) "nth" "10.0.0.5"
    (Ipv4.addr_to_string (Ipv4.prefix_nth (pfx "10.0.0.0/24") 5));
  Alcotest.check_raises "outside"
    (Invalid_argument "Ipv4.prefix_nth: index outside prefix") (fun () ->
      ignore (Ipv4.prefix_nth (pfx "10.0.0.0/24") 256))

let test_addr_succ () =
  Alcotest.(check string) "succ" "10.0.0.2"
    (Ipv4.addr_to_string (Ipv4.addr_succ (addr "10.0.0.1")));
  Alcotest.check_raises "top of space"
    (Invalid_argument "Ipv4.addr_succ: address space exhausted") (fun () ->
      ignore (Ipv4.addr_succ (addr "255.255.255.255")))

let test_prefix_size_and_compare () =
  Alcotest.(check int) "/24 size" 256 (Ipv4.prefix_size (pfx "10.0.0.0/24"));
  Alcotest.(check int) "/32 size" 1 (Ipv4.prefix_size (pfx "10.0.0.0/32"));
  Alcotest.(check bool) "network order" true
    (Ipv4.prefix_compare (pfx "10.0.0.0/8") (pfx "11.0.0.0/8") < 0);
  Alcotest.(check bool) "length breaks ties" true
    (Ipv4.prefix_compare (pfx "10.0.0.0/8") (pfx "10.0.0.0/16") < 0);
  Alcotest.(check int) "equal" 0
    (Ipv4.prefix_compare (pfx "10.0.0.0/8") (pfx "10.3.0.0/8"))

(* ------------------------------------------------------------------ *)
(* Int_table                                                           *)
(* ------------------------------------------------------------------ *)

let test_int_table_roundtrip () =
  let t = Int_table.create ~dummy:(-1) () in
  for i = 0 to 99 do
    Int_table.add t (i * 7919) i
  done;
  Alcotest.(check int) "length" 100 (Int_table.length t);
  Alcotest.(check (option int)) "find" (Some 42) (Int_table.find t (42 * 7919));
  Alcotest.(check bool) "mem" true (Int_table.mem t (7 * 7919));
  Alcotest.(check (option int)) "absent" None (Int_table.find t 1);
  Int_table.add t (42 * 7919) 1042;
  Alcotest.(check int) "replace keeps length" 100 (Int_table.length t);
  Alcotest.(check (option int)) "replaced" (Some 1042)
    (Int_table.find t (42 * 7919));
  Int_table.remove t (42 * 7919);
  Alcotest.(check bool) "removed" false (Int_table.mem t (42 * 7919));
  Alcotest.(check int) "length after remove" 99 (Int_table.length t)

(* A bulk delete must trigger the in-place rehash from [remove]: the
   survivors stay findable through short probes instead of scanning a
   tombstone field, and the tombstone count collapses.  This pins the
   remove-side cleanup (before it, tombstones only ever accumulated). *)
let test_int_table_mass_remove_cleans_tombstones () =
  let t = Int_table.create ~dummy:(-1) () in
  let n = 10_000 in
  for i = 0 to n - 1 do
    Int_table.add t i i
  done;
  for i = 0 to n - 11 do
    Int_table.remove t i
  done;
  Alcotest.(check int) "survivors" 10 (Int_table.length t);
  Alcotest.(check bool) "tombstones bounded by live entries" true
    (Int_table.tombstones t <= Stdlib.max 1 (Int_table.length t));
  for i = n - 10 to n - 1 do
    Alcotest.(check (option int)) "survivor findable" (Some i)
      (Int_table.find t i);
    Alcotest.(check bool) "short probe" true (Int_table.probe_length t i <= 16)
  done

(* Fixed-size churn at a power-of-two working set — a cache evicting
   one entry per insert parks the table exactly at its load boundary.
   Probes must stay short and tombstones bounded; the thrashing mode
   (a full rehash per insertion to reclaim a single tombstone) would
   time this out long before the assertions fail. *)
let test_int_table_churn_keeps_probes_short () =
  let t = Int_table.create ~dummy:(-1) () in
  let window = 4096 in
  let total = 40_000 in
  for i = 0 to total - 1 do
    if i >= window then Int_table.remove t (i - window);
    Int_table.add t i i
  done;
  Alcotest.(check int) "window live" window (Int_table.length t);
  Alcotest.(check bool) "tombstones bounded by live entries" true
    (Int_table.tombstones t <= Stdlib.max 1 (Int_table.length t));
  let probes = ref 0 in
  for i = total - window to total - 1 do
    probes := !probes + Int_table.probe_length t i
  done;
  let mean = float_of_int !probes /. float_of_int window in
  if mean > 4.0 then
    Alcotest.failf "mean probe length %.2f after churn (want <= 4)" mean

(* ------------------------------------------------------------------ *)
(* Prefix_table                                                        *)
(* ------------------------------------------------------------------ *)

let test_trie_longest_match () =
  let t = Prefix_table.create () in
  Prefix_table.add t (pfx "10.0.0.0/8") "eight";
  Prefix_table.add t (pfx "10.1.0.0/16") "sixteen";
  Prefix_table.add t (pfx "10.1.2.0/24") "twentyfour";
  let lookup a =
    match Prefix_table.lookup t (addr a) with
    | Some (_, v) -> v
    | None -> "none"
  in
  Alcotest.(check string) "most specific" "twentyfour" (lookup "10.1.2.9");
  Alcotest.(check string) "middle" "sixteen" (lookup "10.1.3.9");
  Alcotest.(check string) "least" "eight" (lookup "10.9.9.9");
  Alcotest.(check string) "miss" "none" (lookup "11.0.0.1")

let test_trie_exact_and_remove () =
  let t = Prefix_table.create () in
  Prefix_table.add t (pfx "10.0.0.0/8") 1;
  Prefix_table.add t (pfx "10.0.0.0/16") 2;
  Alcotest.(check (option int)) "exact /8" (Some 1)
    (Prefix_table.find_exact t (pfx "10.0.0.0/8"));
  Alcotest.(check (option int)) "exact /16" (Some 2)
    (Prefix_table.find_exact t (pfx "10.0.0.0/16"));
  Alcotest.(check int) "length" 2 (Prefix_table.length t);
  Prefix_table.remove t (pfx "10.0.0.0/16");
  Alcotest.(check (option int)) "removed" None
    (Prefix_table.find_exact t (pfx "10.0.0.0/16"));
  Alcotest.(check int) "length after remove" 1 (Prefix_table.length t);
  Prefix_table.remove t (pfx "10.0.0.0/16");
  Alcotest.(check int) "idempotent remove" 1 (Prefix_table.length t)

let test_trie_replace () =
  let t = Prefix_table.create () in
  Prefix_table.add t (pfx "10.0.0.0/8") 1;
  Prefix_table.add t (pfx "10.0.0.0/8") 2;
  Alcotest.(check int) "size unchanged" 1 (Prefix_table.length t);
  Alcotest.(check (option int)) "replaced" (Some 2)
    (Prefix_table.find_exact t (pfx "10.0.0.0/8"))

let test_trie_default_route () =
  let t = Prefix_table.create () in
  Prefix_table.add t (pfx "0.0.0.0/0") "default";
  Prefix_table.add t (pfx "10.0.0.0/8") "ten";
  Alcotest.(check (option string)) "falls back to default" (Some "default")
    (Prefix_table.lookup_value t (addr "99.1.1.1"));
  Alcotest.(check (option string)) "specific wins" (Some "ten")
    (Prefix_table.lookup_value t (addr "10.1.1.1"))

let test_trie_covering () =
  let t = Prefix_table.create () in
  Prefix_table.add t (pfx "10.0.0.0/8") "eight";
  (match Prefix_table.covering t (pfx "10.1.0.0/16") with
  | Some (p, v) ->
      Alcotest.(check string) "covering value" "eight" v;
      Alcotest.(check string) "covering prefix" "10.0.0.0/8"
        (Ipv4.prefix_to_string p)
  | None -> Alcotest.fail "expected covering prefix");
  Alcotest.(check bool) "no covering" true
    (Prefix_table.covering t (pfx "11.0.0.0/16") = None)

let test_trie_to_list_sorted () =
  let t = Prefix_table.create () in
  Prefix_table.add t (pfx "11.0.0.0/8") 3;
  Prefix_table.add t (pfx "10.0.0.0/8") 1;
  Prefix_table.add t (pfx "10.128.0.0/9") 2;
  let listed = List.map (fun (p, _) -> Ipv4.prefix_to_string p) (Prefix_table.to_list t) in
  Alcotest.(check (list string)) "ascending order"
    [ "10.0.0.0/8"; "10.128.0.0/9"; "11.0.0.0/8" ] listed

let test_trie_fold_covered () =
  let t = Prefix_table.create () in
  Prefix_table.add t (pfx "10.0.0.0/8") "eight";
  Prefix_table.add t (pfx "10.1.0.0/16") "sixteen";
  Prefix_table.add t (pfx "10.1.2.0/24") "twentyfour";
  Prefix_table.add t (pfx "11.0.0.0/8") "sibling";
  let covered p =
    List.sort compare
      (Prefix_table.fold_covered t (pfx p) ~init:[] ~f:(fun q _ acc ->
           Ipv4.prefix_to_string q :: acc))
  in
  Alcotest.(check (list string)) "subtree incl. the prefix itself"
    [ "10.0.0.0/8"; "10.1.0.0/16"; "10.1.2.0/24" ]
    (covered "10.0.0.0/8");
  Alcotest.(check (list string)) "inner subtree only"
    [ "10.1.0.0/16"; "10.1.2.0/24" ]
    (covered "10.1.0.0/16");
  Alcotest.(check (list string)) "covered with no binding at the root"
    [ "10.1.2.0/24" ] (covered "10.1.0.0/20");
  Alcotest.(check (list string)) "absent subtree" [] (covered "12.0.0.0/8")

(* fold_covered agrees with filtering the whole-table fold — the
   remove_covered fast path must not change what is covered. *)
let prop_trie_fold_covered_matches_filter =
  let gen =
    QCheck.Gen.(
      pair
        (list_size (1 -- 30) (pair (int_bound 0xFFFFFF) (int_range 4 24)))
        (pair (int_bound 0xFFFFFF) (int_range 2 20)))
  in
  QCheck.Test.make ~name:"fold_covered = fold + subsumes filter" ~count:300
    (QCheck.make gen) (fun (entries, (qraw, qlen)) ->
      let t = Prefix_table.create () in
      List.iter
        (fun (raw, len) ->
          let p = Ipv4.prefix (Ipv4.addr_of_int (raw * 251 land 0xFFFFFFFF)) len in
          Prefix_table.add t p ())
        entries;
      let q = Ipv4.prefix (Ipv4.addr_of_int (qraw * 257 land 0xFFFFFFFF)) qlen in
      let fast =
        List.sort compare
          (Prefix_table.fold_covered t q ~init:[] ~f:(fun p () acc -> p :: acc))
      in
      let slow =
        List.sort compare
          (Prefix_table.fold t ~init:[] ~f:(fun p () acc ->
               if Ipv4.prefix_subsumes q p then p :: acc else acc))
      in
      fast = slow)

let prop_trie_matches_reference =
  (* The trie's longest-prefix match agrees with a brute-force scan. *)
  let gen =
    QCheck.Gen.(
      pair
        (list_size (1 -- 30)
           (pair (int_bound 0xFFFFFF) (int_range 4 24)))
        (int_bound 0xFFFFFF))
  in
  QCheck.Test.make ~name:"trie lookup = reference scan" ~count:300
    (QCheck.make gen) (fun (entries, probe_raw) ->
      let t = Prefix_table.create () in
      let prefixes =
        List.map
          (fun (raw, len) ->
            let p = Ipv4.prefix (Ipv4.addr_of_int (raw * 251 land 0xFFFFFFFF)) len in
            Prefix_table.add t p (Ipv4.prefix_to_string p);
            p)
          entries
      in
      let probe = Ipv4.addr_of_int (probe_raw * 257 land 0xFFFFFFFF) in
      let reference =
        List.fold_left
          (fun acc p ->
            if Ipv4.prefix_mem p probe then
              match acc with
              | Some best when Ipv4.prefix_length best >= Ipv4.prefix_length p -> acc
              | Some _ | None -> Some p
            else acc)
          None prefixes
      in
      match (Prefix_table.lookup t probe, reference) with
      | None, None -> true
      | Some (p, _), Some q -> Ipv4.prefix_length p = Ipv4.prefix_length q
      | Some _, None | None, Some _ -> false)

let test_trie_iter_and_clear () =
  let t = Prefix_table.create () in
  Prefix_table.add t (pfx "10.0.0.0/8") 1;
  Prefix_table.add t (pfx "11.0.0.0/8") 2;
  let sum = ref 0 in
  Prefix_table.iter t ~f:(fun _ v -> sum := !sum + v);
  Alcotest.(check int) "iter visits all" 3 !sum;
  Alcotest.(check int) "fold agrees" 3
    (Prefix_table.fold t ~init:0 ~f:(fun _ v acc -> acc + v));
  Prefix_table.clear t;
  Alcotest.(check bool) "empty after clear" true (Prefix_table.is_empty t);
  Alcotest.(check (option int)) "lookup after clear" None
    (Prefix_table.lookup_value t (addr "10.0.0.1"))

(* ------------------------------------------------------------------ *)
(* Mapping                                                             *)
(* ------------------------------------------------------------------ *)

let mk_mapping () =
  Mapping.create ~eid_prefix:(pfx "100.0.0.0/24")
    ~rlocs:
      [ Mapping.rloc ~priority:1 ~weight:75 (addr "10.0.0.1");
        Mapping.rloc ~priority:1 ~weight:25 (addr "11.0.0.1");
        Mapping.rloc ~priority:2 ~weight:100 (addr "12.0.0.1") ]
    ~ttl:60.0

let test_mapping_validation () =
  Alcotest.check_raises "empty rlocs" (Invalid_argument "Mapping.create: empty RLOC list")
    (fun () ->
      ignore (Mapping.create ~eid_prefix:(pfx "1.0.0.0/8") ~rlocs:[] ~ttl:1.0));
  Alcotest.check_raises "bad ttl" (Invalid_argument "Mapping.create: non-positive TTL")
    (fun () ->
      ignore
        (Mapping.create ~eid_prefix:(pfx "1.0.0.0/8")
           ~rlocs:[ Mapping.rloc (addr "10.0.0.1") ]
           ~ttl:0.0))

let test_mapping_best_rlocs () =
  let m = mk_mapping () in
  let best = Mapping.best_rlocs m in
  Alcotest.(check int) "two at priority 1" 2 (List.length best);
  List.iter
    (fun r -> Alcotest.(check int) "priority" 1 r.Mapping.priority)
    best

let test_mapping_select_deterministic () =
  let m = mk_mapping () in
  let a = Mapping.select_rloc m ~hash:12345 in
  let b = Mapping.select_rloc m ~hash:12345 in
  Alcotest.(check bool) "same hash, same rloc" true
    (Ipv4.addr_equal a.Mapping.rloc_addr b.Mapping.rloc_addr)

let test_mapping_select_never_low_priority () =
  let m = mk_mapping () in
  for h = 0 to 999 do
    let r = Mapping.select_rloc m ~hash:h in
    if r.Mapping.priority <> 1 then Alcotest.fail "selected backup rloc"
  done

let test_mapping_select_weight_share () =
  let m = mk_mapping () in
  let first = ref 0 in
  let n = 10_000 in
  for h = 0 to n - 1 do
    let r = Mapping.select_rloc m ~hash:(h * 2654435761) in
    if Ipv4.addr_equal r.Mapping.rloc_addr (addr "10.0.0.1") then incr first
  done;
  let share = float_of_int !first /. float_of_int n in
  if Float.abs (share -. 0.75) > 0.05 then
    Alcotest.failf "weight share %f far from 0.75" share

let test_mapping_covers () =
  let m = mk_mapping () in
  Alcotest.(check bool) "inside" true (Mapping.covers m (addr "100.0.0.77"));
  Alcotest.(check bool) "outside" false (Mapping.covers m (addr "100.0.1.1"))

let test_mapping_wire_size () =
  let m = mk_mapping () in
  (* 12-byte header + 12 per RLOC (the approximation the LISP record
     format suggests; the exact codec sizes live in the wire library). *)
  Alcotest.(check int) "legacy estimate" (12 + 36) (Mapping.wire_size m)

let test_mapping_pp_smoke () =
  let rendered = Format.asprintf "%a" Mapping.pp (mk_mapping ()) in
  Alcotest.(check bool) "prefix mentioned" true
    (String.length rendered > 0);
  let e =
    { Mapping.src_eid = addr "1.0.0.1"; dst_eid = addr "2.0.0.1";
      src_rloc = addr "10.0.0.1"; dst_rloc = addr "11.0.0.1" }
  in
  Alcotest.(check bool) "flow entry renders" true
    (String.length (Format.asprintf "%a" Mapping.pp_flow_entry e) > 0)

(* ------------------------------------------------------------------ *)
(* Flow and Packet                                                     *)
(* ------------------------------------------------------------------ *)

let test_flow_reverse () =
  let f =
    Flow.create ~src:(addr "100.0.0.1") ~dst:(addr "100.1.0.1") ~src_port:4242
      ~dst_port:80 ()
  in
  let r = Flow.reverse f in
  Alcotest.(check bool) "reverse swaps" true
    (Ipv4.addr_equal r.Flow.src (addr "100.1.0.1")
    && Ipv4.addr_equal r.Flow.dst (addr "100.0.0.1")
    && r.Flow.src_port = 80 && r.Flow.dst_port = 4242);
  Alcotest.(check bool) "double reverse is identity" true
    (Flow.equal f (Flow.reverse r))

let test_flow_hash_stable () =
  let f =
    Flow.create ~src:(addr "1.2.3.4") ~dst:(addr "5.6.7.8") ~src_port:1 ~dst_port:2 ()
  in
  Alcotest.(check int) "hash deterministic" (Flow.hash f) (Flow.hash f);
  let g = Flow.create ~src:(addr "1.2.3.4") ~dst:(addr "5.6.7.8") ~src_port:1 ~dst_port:3 () in
  Alcotest.(check bool) "port changes hash" true (Flow.hash f <> Flow.hash g)

let test_flow_map () =
  let f1 = Flow.create ~src:(addr "1.0.0.1") ~dst:(addr "2.0.0.1") () in
  let f2 = Flow.create ~src:(addr "1.0.0.2") ~dst:(addr "2.0.0.1") () in
  let m = Flow.Map.(add f1 "a" (add f2 "b" empty)) in
  Alcotest.(check (option string)) "find f1" (Some "a") (Flow.Map.find_opt f1 m);
  Alcotest.(check (option string)) "find f2" (Some "b") (Flow.Map.find_opt f2 m)

let test_packet_encap_cycle () =
  let f = Flow.create ~src:(addr "100.0.0.1") ~dst:(addr "100.1.0.1") () in
  let p = Packet.make ~flow:f ~segment:Packet.Syn ~sent_at:0.0 in
  Alcotest.(check bool) "fresh not encapsulated" false (Packet.is_encapsulated p);
  let base = Packet.size p in
  Alcotest.(check int) "syn is headers only" 40 base;
  let e = Packet.encapsulate p ~outer_src:(addr "10.0.0.1") ~outer_dst:(addr "12.0.0.1") in
  Alcotest.(check bool) "encapsulated" true (Packet.is_encapsulated e);
  Alcotest.(check int) "outer adds 36" (base + 36) (Packet.size e);
  let d = Packet.decapsulate e in
  Alcotest.(check int) "size restored" base (Packet.size d)

let test_packet_double_encap_rejected () =
  let f = Flow.create ~src:(addr "100.0.0.1") ~dst:(addr "100.1.0.1") () in
  let p = Packet.make ~flow:f ~segment:(Packet.Data 1000) ~sent_at:0.0 in
  let e = Packet.encapsulate p ~outer_src:(addr "10.0.0.1") ~outer_dst:(addr "12.0.0.1") in
  Alcotest.check_raises "double encap"
    (Invalid_argument "Packet.encapsulate: already encapsulated") (fun () ->
      ignore (Packet.encapsulate e ~outer_src:(addr "10.0.0.1") ~outer_dst:(addr "12.0.0.1")));
  Alcotest.check_raises "decap plain"
    (Invalid_argument "Packet.decapsulate: not encapsulated") (fun () ->
      ignore (Packet.decapsulate p))

let test_segment_bytes () =
  Alcotest.(check int) "syn" 0 (Packet.segment_bytes Packet.Syn);
  Alcotest.(check int) "data" 1200 (Packet.segment_bytes (Packet.Data 1200));
  Alcotest.(check int) "fin" 0 (Packet.segment_bytes Packet.Fin);
  let f = Flow.create ~src:(addr "1.0.0.1") ~dst:(addr "2.0.0.1") () in
  let p = Packet.make ~flow:f ~segment:(Packet.Data 1200) ~sent_at:1.5 in
  Alcotest.(check int) "size = headers + payload" 1240 (Packet.size p);
  Alcotest.(check (float 1e-9)) "sent_at preserved" 1.5 p.Packet.sent_at;
  Alcotest.(check bool) "pp renders" true
    (String.length (Format.asprintf "%a" Packet.pp p) > 0)

let test_flow_set () =
  let f1 = Flow.create ~src:(addr "1.0.0.1") ~dst:(addr "2.0.0.1") () in
  let f2 = Flow.reverse f1 in
  let s = Flow.Set.(add f1 (add f2 (add f1 empty))) in
  Alcotest.(check int) "set dedups" 2 (Flow.Set.cardinal s)

let prop_prefix_mem_network =
  QCheck.Test.make ~name:"prefix contains its own network address" ~count:500
    QCheck.(pair (int_bound 0xFFFFFF) (int_range 0 32))
    (fun (raw, len) ->
      let p = Ipv4.prefix (Ipv4.addr_of_int (raw * 163 land 0xFFFFFFFF)) len in
      Ipv4.prefix_mem p (Ipv4.prefix_network p))

let prop_flow_hash_reverse_consistent =
  QCheck.Test.make ~name:"flow equal implies same hash" ~count:300
    QCheck.(quad (int_bound 1000) (int_bound 1000) (int_bound 65535) (int_bound 65535))
    (fun (s, d, sp, dp) ->
      let f1 = Flow.create ~src:(Ipv4.addr_of_int s) ~dst:(Ipv4.addr_of_int d) ~src_port:sp ~dst_port:dp () in
      let f2 = Flow.create ~src:(Ipv4.addr_of_int s) ~dst:(Ipv4.addr_of_int d) ~src_port:sp ~dst_port:dp () in
      Flow.equal f1 f2 && Flow.hash f1 = Flow.hash f2)

let () =
  Alcotest.run "nettypes"
    [
      ( "ipv4",
        [
          Alcotest.test_case "roundtrip" `Quick test_addr_roundtrip;
          Alcotest.test_case "malformed" `Quick test_addr_malformed;
          Alcotest.test_case "ordering" `Quick test_addr_ordering;
          Alcotest.test_case "offset" `Quick test_addr_offset;
          Alcotest.test_case "succ" `Quick test_addr_succ;
          Alcotest.test_case "prefix size/compare" `Quick test_prefix_size_and_compare;
          Alcotest.test_case "prefix canonical" `Quick test_prefix_canonical;
          Alcotest.test_case "prefix mem" `Quick test_prefix_mem;
          Alcotest.test_case "prefix subsumes" `Quick test_prefix_subsumes;
          Alcotest.test_case "prefix nth" `Quick test_prefix_nth;
        ] );
      ( "prefix_table",
        [
          Alcotest.test_case "longest match" `Quick test_trie_longest_match;
          Alcotest.test_case "exact and remove" `Quick test_trie_exact_and_remove;
          Alcotest.test_case "replace" `Quick test_trie_replace;
          Alcotest.test_case "default route" `Quick test_trie_default_route;
          Alcotest.test_case "covering" `Quick test_trie_covering;
          Alcotest.test_case "sorted listing" `Quick test_trie_to_list_sorted;
          Alcotest.test_case "iter and clear" `Quick test_trie_iter_and_clear;
          Alcotest.test_case "fold covered" `Quick test_trie_fold_covered;
        ] );
      ( "int_table",
        [
          Alcotest.test_case "roundtrip" `Quick test_int_table_roundtrip;
          Alcotest.test_case "mass remove cleans tombstones" `Quick
            test_int_table_mass_remove_cleans_tombstones;
          Alcotest.test_case "churn keeps probes short" `Quick
            test_int_table_churn_keeps_probes_short;
        ] );
      ( "mapping",
        [
          Alcotest.test_case "validation" `Quick test_mapping_validation;
          Alcotest.test_case "best rlocs" `Quick test_mapping_best_rlocs;
          Alcotest.test_case "select deterministic" `Quick test_mapping_select_deterministic;
          Alcotest.test_case "select priority" `Quick test_mapping_select_never_low_priority;
          Alcotest.test_case "select weights" `Quick test_mapping_select_weight_share;
          Alcotest.test_case "covers" `Quick test_mapping_covers;
          Alcotest.test_case "wire size" `Quick test_mapping_wire_size;
          Alcotest.test_case "pp" `Quick test_mapping_pp_smoke;
        ] );
      ( "flow",
        [
          Alcotest.test_case "reverse" `Quick test_flow_reverse;
          Alcotest.test_case "hash stable" `Quick test_flow_hash_stable;
          Alcotest.test_case "map" `Quick test_flow_map;
          Alcotest.test_case "set" `Quick test_flow_set;
        ] );
      ( "packet",
        [
          Alcotest.test_case "encap cycle" `Quick test_packet_encap_cycle;
          Alcotest.test_case "double encap rejected" `Quick test_packet_double_encap_rejected;
          Alcotest.test_case "segment bytes" `Quick test_segment_bytes;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_trie_matches_reference; prop_trie_fold_covered_matches_filter;
            prop_prefix_mem_network; prop_flow_hash_reverse_consistent ] );
    ]
