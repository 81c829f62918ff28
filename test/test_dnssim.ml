(* Tests for the DNS simulation: names, zones, iterative resolution
   timing, caching, taps and observers. *)

open Dnssim

let name = Name.of_string

(* ------------------------------------------------------------------ *)
(* Name                                                                *)
(* ------------------------------------------------------------------ *)

let test_name_roundtrip () =
  List.iter
    (fun s -> Alcotest.(check string) s s (Name.to_string (name s)))
    [ "."; "net."; "as3.net."; "h0.as3.net." ];
  Alcotest.(check string) "trailing dot added" "as3.net."
    (Name.to_string (name "as3.net"))

let test_name_malformed () =
  match name "a..b" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty label accepted"

let test_name_parent () =
  Alcotest.(check (option string)) "parent" (Some "as3.net.")
    (Option.map Name.to_string (Name.parent (name "h0.as3.net.")));
  Alcotest.(check (option string)) "parent of tld" (Some ".")
    (Option.map Name.to_string (Name.parent (name "net.")));
  Alcotest.(check bool) "root has no parent" true (Name.parent Name.root = None)

let test_name_in_zone () =
  Alcotest.(check bool) "host in domain zone" true
    (Name.in_zone (name "h0.as3.net.") ~zone:(name "as3.net."));
  Alcotest.(check bool) "apex in own zone" true
    (Name.in_zone (name "as3.net.") ~zone:(name "as3.net."));
  Alcotest.(check bool) "sibling not in zone" false
    (Name.in_zone (name "h0.as4.net.") ~zone:(name "as3.net."));
  Alcotest.(check bool) "all names in root" true
    (Name.in_zone (name "h0.as3.net.") ~zone:Name.root);
  (* Suffix match must be label-wise, not string-wise. *)
  Alcotest.(check bool) "xas3 is not in as3" false
    (Name.in_zone (name "h0.xas3.net.") ~zone:(name "as3.net."))

let test_name_suffix () =
  Alcotest.(check string) "keep 2" "as3.net."
    (Name.to_string (Name.suffix (name "h0.as3.net.") 2));
  Alcotest.(check string) "keep 0 is root" "."
    (Name.to_string (Name.suffix (name "h0.as3.net.") 0))

(* ------------------------------------------------------------------ *)
(* Zone                                                                *)
(* ------------------------------------------------------------------ *)

let test_zone_answers () =
  let z = Zone.create ~apex:(name "as3.net.") ~server:7 ~ttl:60.0 in
  Zone.add_a z (name "h0.as3.net.") (Nettypes.Ipv4.addr_of_string "100.0.3.1");
  (match Zone.answer z (name "h0.as3.net.") with
  | Zone.Address a ->
      Alcotest.(check string) "address" "100.0.3.1" (Nettypes.Ipv4.addr_to_string a)
  | _ -> Alcotest.fail "expected address");
  (match Zone.answer z (name "h9.as3.net.") with
  | Zone.Name_error -> ()
  | _ -> Alcotest.fail "expected NXDOMAIN");
  match Zone.answer z (name "h0.as4.net.") with
  | Zone.Name_error -> ()
  | _ -> Alcotest.fail "out-of-zone must be an error"

let test_zone_deepest_delegation () =
  let z = Zone.create ~apex:Name.root ~server:0 ~ttl:60.0 in
  Zone.delegate z ~child_apex:(name "net.") ~child_server:1;
  Zone.delegate z ~child_apex:(name "as3.net.") ~child_server:2;
  match Zone.answer z (name "h0.as3.net.") with
  | Zone.Referral (apex, server) ->
      Alcotest.(check string) "deepest apex" "as3.net." (Name.to_string apex);
      Alcotest.(check int) "server" 2 server
  | _ -> Alcotest.fail "expected referral"

let test_zone_validation () =
  let z = Zone.create ~apex:(name "as3.net.") ~server:7 ~ttl:60.0 in
  (match Zone.add_a z (name "h0.as4.net.") (Nettypes.Ipv4.addr_of_string "1.2.3.4") with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "out-of-zone record accepted");
  match Zone.delegate z ~child_apex:(name "as3.net.") ~child_server:9 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "self-delegation accepted"

(* ------------------------------------------------------------------ *)
(* System: full resolutions on the Figure-1 internet                   *)
(* ------------------------------------------------------------------ *)

(* [sink], when given, is subscribed to the system's event hub, which
   it enables. *)
let make_system ?record_ttl ?sink () =
  let engine = Netsim.Engine.create () in
  let internet = Topology.Builder.figure1 () in
  let obs = Obs.Hub.create ~clock:(fun () -> Netsim.Engine.now engine) () in
  Option.iter
    (fun sink ->
      Obs.Hub.add_sink obs sink;
      Obs.Hub.set_enabled obs true)
    sink;
  let dns = System.create ~engine ~internet ?record_ttl ~obs () in
  (engine, internet, dns)

let resolve_once engine internet dns ~from_domain ~target =
  let d = internet.Topology.Builder.domains.(from_domain) in
  let client = d.Topology.Domain.hosts.(0) in
  let client_eid = Topology.Domain.host_eid d 0 in
  let result = ref None in
  let started = Netsim.Engine.now engine in
  System.resolve dns ~resolver:d.Topology.Domain.dns ~client ~client_eid
    (name target) ~callback:(fun r ->
      result := Some (r, Netsim.Engine.now engine -. started));
  Netsim.Engine.run engine;
  match !result with
  | Some (r, elapsed) -> (r, elapsed)
  | None -> Alcotest.fail "resolution never completed"

let test_resolution_succeeds () =
  let engine, internet, dns = make_system () in
  let r, elapsed =
    resolve_once engine internet dns ~from_domain:0 ~target:"h0.as1.net."
  in
  (match r with
  | Some a ->
      let as_d = internet.Topology.Builder.domains.(1) in
      Alcotest.(check string) "resolved to h0 of AS_D"
        (Nettypes.Ipv4.addr_to_string (Topology.Domain.host_eid as_d 0))
        (Nettypes.Ipv4.addr_to_string a)
  | None -> Alcotest.fail "no answer");
  Alcotest.(check bool) "cold resolution takes multiple RTTs" true
    (elapsed > 0.05 && elapsed < 1.0)

let test_resolution_nxdomain () =
  let engine, internet, dns = make_system () in
  let r, _ = resolve_once engine internet dns ~from_domain:0 ~target:"h99.as1.net." in
  Alcotest.(check bool) "nxdomain" true (r = None);
  let r2, _ = resolve_once engine internet dns ~from_domain:0 ~target:"h0.as9.net." in
  Alcotest.(check bool) "unknown domain" true (r2 = None)

let test_resolution_cache_hit_faster () =
  let engine, internet, dns = make_system () in
  let _, cold = resolve_once engine internet dns ~from_domain:0 ~target:"h0.as1.net." in
  let r, warm = resolve_once engine internet dns ~from_domain:0 ~target:"h0.as1.net." in
  Alcotest.(check bool) "warm answer present" true (r <> None);
  Alcotest.(check bool) "cache hit much faster" true (warm < cold /. 4.0);
  let c = System.counters dns in
  Alcotest.(check int) "one cache hit" 1 c.System.cache_hits

let test_resolution_referral_cache () =
  let engine, internet, dns = make_system () in
  let _ = resolve_once engine internet dns ~from_domain:0 ~target:"h0.as1.net." in
  let before = (System.counters dns).System.iterative_queries in
  (* Different host in the same remote zone: referrals for net. and
     as1.net. are cached, so only the authoritative query remains. *)
  let r, _ = resolve_once engine internet dns ~from_domain:0 ~target:"h1.as1.net." in
  Alcotest.(check bool) "answer" true (r <> None);
  let after = (System.counters dns).System.iterative_queries in
  Alcotest.(check int) "single iterative query" 1 (after - before)

let test_resolution_ttl_expiry () =
  let engine, internet, dns = make_system ~record_ttl:10.0 () in
  let _ = resolve_once engine internet dns ~from_domain:0 ~target:"h0.as1.net." in
  (* Advance time beyond the TTL with a dummy event. *)
  ignore (Netsim.Engine.schedule engine ~delay:30.0 ignore);
  Netsim.Engine.run engine;
  let misses_before = (System.counters dns).System.cache_misses in
  let r, _ = resolve_once engine internet dns ~from_domain:0 ~target:"h0.as1.net." in
  Alcotest.(check bool) "answer after expiry" true (r <> None);
  Alcotest.(check int) "expired entry causes a miss"
    (misses_before + 1)
    (System.counters dns).System.cache_misses

let test_flush_caches () =
  let engine, internet, dns = make_system () in
  let _ = resolve_once engine internet dns ~from_domain:0 ~target:"h0.as1.net." in
  System.flush_caches dns;
  let hits_before = (System.counters dns).System.cache_hits in
  let _ = resolve_once engine internet dns ~from_domain:0 ~target:"h0.as1.net." in
  Alcotest.(check int) "no hit after flush" hits_before
    (System.counters dns).System.cache_hits

let test_query_observer () =
  let engine, internet, dns = make_system () in
  let as_s = internet.Topology.Builder.domains.(0) in
  let seen = ref [] in
  System.set_query_observer dns ~resolver:as_s.Topology.Domain.dns
    (Some
       (fun ~client_eid ~qname ->
         seen := (Nettypes.Ipv4.addr_to_string client_eid, Name.to_string qname) :: !seen));
  let _ = resolve_once engine internet dns ~from_domain:0 ~target:"h0.as1.net." in
  (match !seen with
  | [ (eid, qname) ] ->
      Alcotest.(check string) "observer saw client EID"
        (Nettypes.Ipv4.addr_to_string (Topology.Domain.host_eid as_s 0))
        eid;
      Alcotest.(check string) "observer saw qname" "h0.as1.net." qname
  | l -> Alcotest.failf "observer fired %d times" (List.length l));
  (* Removing the observer silences it. *)
  System.set_query_observer dns ~resolver:as_s.Topology.Domain.dns None;
  let _ = resolve_once engine internet dns ~from_domain:0 ~target:"h1.as1.net." in
  Alcotest.(check int) "still one observation" 1 (List.length !seen)

let test_response_tap_intercepts () =
  let engine, internet, dns = make_system () in
  let as_d = internet.Topology.Builder.domains.(1) in
  let tapped = ref 0 in
  System.set_response_tap dns ~server:as_d.Topology.Domain.dns
    (Some
       (fun ctx ->
         incr tapped;
         Alcotest.(check string) "tap sees qname" "h0.as1.net."
           (Name.to_string ctx.System.tap_qname);
         Alcotest.(check bool) "wire latency positive" true
           (ctx.System.tap_wire_latency > 0.0);
         (* Mimic normal delivery: wait the wire latency, then complete. *)
         ignore
           (Netsim.Engine.schedule engine ~delay:ctx.System.tap_wire_latency
              ctx.System.tap_complete)))
    ;
  let r, _ = resolve_once engine internet dns ~from_domain:0 ~target:"h0.as1.net." in
  Alcotest.(check bool) "answer delivered through tap" true (r <> None);
  Alcotest.(check int) "tap fired once" 1 !tapped;
  (* Cache hits at the resolver never reach the tap. *)
  let _ = resolve_once engine internet dns ~from_domain:0 ~target:"h0.as1.net." in
  Alcotest.(check int) "tap not fired on cache hit" 1 !tapped

let test_tap_added_delay_visible () =
  let engine, internet, dns = make_system () in
  let as_d = internet.Topology.Builder.domains.(1) in
  let _, baseline = resolve_once engine internet dns ~from_domain:0 ~target:"h0.as1.net." in
  ignore baseline;
  System.flush_caches dns;
  let extra = 0.5 in
  System.set_response_tap dns ~server:as_d.Topology.Domain.dns
    (Some
       (fun ctx ->
         ignore
           (Netsim.Engine.schedule engine
              ~delay:(ctx.System.tap_wire_latency +. extra)
              ctx.System.tap_complete)));
  let _, slowed = resolve_once engine internet dns ~from_domain:0 ~target:"h1.as1.net." in
  Alcotest.(check bool) "tap delay reflected in resolution time" true
    (slowed > extra)

let test_trace_records_steps () =
  let sink, events = Obs.Hub.memory_sink () in
  let engine, internet, dns = make_system ~sink () in
  let _ = resolve_once engine internet dns ~from_domain:0 ~target:"h0.as1.net." in
  let kinds = List.map (fun e -> e.Obs.Event.kind) (events ()) in
  Alcotest.(check bool) "step 1 recorded" true
    (List.exists (function Obs.Event.Dns_query _ -> true | _ -> false) kinds);
  Alcotest.(check bool) "step 8 recorded" true
    (List.exists
       (function Obs.Event.Dns_reply { answered; _ } -> answered | _ -> false)
       kinds)

let test_concurrent_resolutions () =
  let engine, internet, dns = make_system () in
  let as_s = internet.Topology.Builder.domains.(0) in
  let done_count = ref 0 in
  for i = 0 to 1 do
    let client = as_s.Topology.Domain.hosts.(i) in
    let client_eid = Topology.Domain.host_eid as_s i in
    System.resolve dns ~resolver:as_s.Topology.Domain.dns ~client ~client_eid
      (name (Printf.sprintf "h%d.as1.net." i))
      ~callback:(fun r -> if r <> None then incr done_count)
  done;
  Netsim.Engine.run engine;
  Alcotest.(check int) "both resolved" 2 !done_count

let test_wire_bytes_counted () =
  let engine, internet, dns = make_system () in
  let _ = resolve_once engine internet dns ~from_domain:0 ~target:"h0.as1.net." in
  let c = System.counters dns in
  Alcotest.(check bool) "bytes counted" true (c.System.wire_bytes > 0);
  Alcotest.(check int) "one client query" 1 c.System.client_queries;
  Alcotest.(check int) "three iterative queries (root, tld, auth)" 3
    c.System.iterative_queries

let test_name_wire_size () =
  Alcotest.(check int) "root is one byte" 1 (Name.wire_size Name.root);
  (* h0.as3.net. : labels (2+1)+(3+1)+(3+1) + terminator = 12 *)
  Alcotest.(check int) "fqdn" 12 (Name.wire_size (name "h0.as3.net."))

let test_name_hash_equal () =
  Alcotest.(check bool) "equal names, equal hash" true
    (Name.hash (name "a.b.") = Name.hash (name "a.b."));
  Alcotest.(check int) "compare equal" 0 (Name.compare (name "a.b.") (name "a.b."))

let test_zone_record_count () =
  let z = Zone.create ~apex:(name "as3.net.") ~server:7 ~ttl:60.0 in
  Alcotest.(check int) "empty" 0 (Zone.record_count z);
  Zone.add_a z (name "h0.as3.net.") (Nettypes.Ipv4.addr_of_string "1.1.1.1");
  Zone.add_a z (name "h1.as3.net.") (Nettypes.Ipv4.addr_of_string "1.1.1.2");
  Zone.add_a z (name "h0.as3.net.") (Nettypes.Ipv4.addr_of_string "1.1.1.3");
  Alcotest.(check int) "re-add replaces" 2 (Zone.record_count z);
  Alcotest.(check (float 1e-9)) "ttl accessor" 60.0 (Zone.ttl z);
  Alcotest.(check int) "server accessor" 7 (Zone.server z)

let test_local_name_resolution () =
  (* Resolving a name in the client's own domain still works (the local
     server is both resolver and authoritative). *)
  let engine, internet, dns = make_system () in
  let r, elapsed = resolve_once engine internet dns ~from_domain:0 ~target:"h1.as0.net." in
  (match r with
  | Some a ->
      let as_s = internet.Topology.Builder.domains.(0) in
      Alcotest.(check string) "local answer"
        (Nettypes.Ipv4.addr_to_string (Topology.Domain.host_eid as_s 1))
        (Nettypes.Ipv4.addr_to_string a)
  | None -> Alcotest.fail "no answer");
  Alcotest.(check bool) "bounded" true (elapsed > 0.0 && elapsed < 1.0)

let test_resolution_timing_decomposition () =
  (* Cold resolution = client wire + 3 iterative (query+processing+
     response) legs + answer wire; warm resolution = client wire pair
     only.  Check the warm case analytically. *)
  let engine, internet, dns = make_system () in
  let _ = resolve_once engine internet dns ~from_domain:0 ~target:"h0.as1.net." in
  let _, warm = resolve_once engine internet dns ~from_domain:0 ~target:"h0.as1.net." in
  let as_s = internet.Topology.Builder.domains.(0) in
  let client_wire =
    Topology.Builder.latency internet as_s.Topology.Domain.hosts.(0)
      as_s.Topology.Domain.dns
  in
  Alcotest.(check (float 1e-9)) "warm = two client wires"
    (2.0 *. client_wire) warm

(* ------------------------------------------------------------------ *)
(* Poisoning: forged answers vs origin authentication                  *)
(* ------------------------------------------------------------------ *)

let forged = Nettypes.Ipv4.addr_of_string "66.6.6.6"

let test_poisoned_answer_accepted () =
  let engine, internet, dns = make_system () in
  System.set_poisoner dns (Some (fun ~qname:_ -> Some forged));
  let r, _ = resolve_once engine internet dns ~from_domain:0 ~target:"h0.as1.net." in
  (match r with
  | Some a ->
      Alcotest.(check string) "client got the forged address" "66.6.6.6"
        (Nettypes.Ipv4.addr_to_string a)
  | None -> Alcotest.fail "no answer");
  let c = System.counters dns in
  Alcotest.(check int) "accepted counted" 1 c.System.poisoned_accepted;
  Alcotest.(check int) "nothing rejected" 0 c.System.poisoned_rejected;
  (* The forgery is cached: a second client query serves the poison
     from the resolver cache without a fresh forgery. *)
  System.set_poisoner dns None;
  let r2, _ = resolve_once engine internet dns ~from_domain:0 ~target:"h0.as1.net." in
  (match r2 with
  | Some a ->
      Alcotest.(check string) "poison served from cache" "66.6.6.6"
        (Nettypes.Ipv4.addr_to_string a)
  | None -> Alcotest.fail "no cached answer");
  Alcotest.(check int) "no second forgery" 1
    (System.counters dns).System.poisoned_accepted

let test_poisoned_answer_rejected_when_authenticated () =
  let engine, internet, dns = make_system () in
  System.set_poisoner dns (Some (fun ~qname:_ -> Some forged));
  System.set_authenticated dns true;
  let r, _ = resolve_once engine internet dns ~from_domain:0 ~target:"h0.as1.net." in
  (match r with
  | Some a ->
      let as_d = internet.Topology.Builder.domains.(1) in
      Alcotest.(check string) "genuine record proceeds"
        (Nettypes.Ipv4.addr_to_string (Topology.Domain.host_eid as_d 0))
        (Nettypes.Ipv4.addr_to_string a)
  | None -> Alcotest.fail "no answer");
  let c = System.counters dns in
  Alcotest.(check int) "rejected counted" 1 c.System.poisoned_rejected;
  Alcotest.(check int) "nothing accepted" 0 c.System.poisoned_accepted

(* Name errors are never forged: the poisoner is not even a way to
   conjure records for names that do not exist. *)
let test_poisoner_never_forges_nxdomain () =
  let engine, internet, dns = make_system () in
  System.set_poisoner dns (Some (fun ~qname:_ -> Some forged));
  let r, _ = resolve_once engine internet dns ~from_domain:0 ~target:"h99.as1.net." in
  Alcotest.(check bool) "still nxdomain" true (r = None);
  Alcotest.(check int) "no forgery verdict" 0
    (System.counters dns).System.poisoned_accepted

let () =
  Alcotest.run "dnssim"
    [
      ( "name",
        [
          Alcotest.test_case "roundtrip" `Quick test_name_roundtrip;
          Alcotest.test_case "malformed" `Quick test_name_malformed;
          Alcotest.test_case "parent" `Quick test_name_parent;
          Alcotest.test_case "in zone" `Quick test_name_in_zone;
          Alcotest.test_case "suffix" `Quick test_name_suffix;
          Alcotest.test_case "wire size" `Quick test_name_wire_size;
          Alcotest.test_case "hash and compare" `Quick test_name_hash_equal;
        ] );
      ( "zone",
        [
          Alcotest.test_case "answers" `Quick test_zone_answers;
          Alcotest.test_case "deepest delegation" `Quick test_zone_deepest_delegation;
          Alcotest.test_case "validation" `Quick test_zone_validation;
          Alcotest.test_case "record count" `Quick test_zone_record_count;
        ] );
      ( "system",
        [
          Alcotest.test_case "resolution succeeds" `Quick test_resolution_succeeds;
          Alcotest.test_case "nxdomain" `Quick test_resolution_nxdomain;
          Alcotest.test_case "cache hit faster" `Quick test_resolution_cache_hit_faster;
          Alcotest.test_case "referral cache" `Quick test_resolution_referral_cache;
          Alcotest.test_case "ttl expiry" `Quick test_resolution_ttl_expiry;
          Alcotest.test_case "flush caches" `Quick test_flush_caches;
          Alcotest.test_case "query observer" `Quick test_query_observer;
          Alcotest.test_case "response tap" `Quick test_response_tap_intercepts;
          Alcotest.test_case "tap delay" `Quick test_tap_added_delay_visible;
          Alcotest.test_case "trace" `Quick test_trace_records_steps;
          Alcotest.test_case "concurrent" `Quick test_concurrent_resolutions;
          Alcotest.test_case "wire bytes" `Quick test_wire_bytes_counted;
          Alcotest.test_case "local name" `Quick test_local_name_resolution;
          Alcotest.test_case "warm timing" `Quick test_resolution_timing_decomposition;
        ] );
      ( "poisoning",
        [
          Alcotest.test_case "accepted without auth" `Quick
            test_poisoned_answer_accepted;
          Alcotest.test_case "rejected when authenticated" `Quick
            test_poisoned_answer_rejected_when_authenticated;
          Alcotest.test_case "nxdomain never forged" `Quick
            test_poisoner_never_forges_nxdomain;
        ] );
    ]
