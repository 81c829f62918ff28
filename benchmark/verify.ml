(* Correctness gate.  After a run drains, three conservation laws must
   hold, and for the seeds in expected.json a digest of simulated
   quantities must match the recorded one.  Simulated quantities do not
   depend on wall time, so the digest is the same on every machine and
   with the profiler on or off. *)

open Core

type tally = {
  opened : int;
  established : int;
  failed : int;  (* resolution failed, or SYN retries exhausted *)
  syn_retransmissions : int;
  setups : Netsim.Stats.Samples.t;  (* simulated DNS + handshake, seconds *)
}

let tally (r : Workloads.run) =
  let setups = Netsim.Stats.Samples.create () in
  let established = ref 0 and failed = ref 0 and syn_retx = ref 0 in
  List.iter
    (fun c ->
      (match c.Scenario.tcp with
      | None -> if c.Scenario.resolution_failed then incr failed
      | Some conn ->
          syn_retx := !syn_retx + conn.Workload.Tcp.syn_transmissions - 1;
          if conn.Workload.Tcp.failed then incr failed;
          if Option.is_some (Workload.Tcp.handshake_time conn) then
            incr established);
      Option.iter (Netsim.Stats.Samples.add setups) (Scenario.total_setup_time c))
    (Scenario.connections r.scenario);
  { opened = r.opened; established = !established; failed = !failed;
    syn_retransmissions = !syn_retx; setups }

(* Each violated law, as a readable line. *)
let invariants (r : Workloads.run) t =
  let dp = Scenario.dataplane r.scenario in
  let c = Lispdp.Dataplane.counters dp in
  let cache = Lispdp.Dataplane.cache_stats_totals dp in
  let live = Lispdp.Dataplane.cache_entries_total dp in
  let law ok fmt = Printf.ksprintf (fun s -> if ok then None else Some s) fmt in
  List.filter_map Fun.id
    [ law
        (t.opened = t.established + t.failed)
        "opened %d <> established %d + failed %d" t.opened t.established
        t.failed;
      law
        (c.Lispdp.Dataplane.sent
        = c.Lispdp.Dataplane.delivered + c.Lispdp.Dataplane.dropped)
        "packets sent %d <> delivered %d + dropped %d" c.Lispdp.Dataplane.sent
        c.Lispdp.Dataplane.delivered c.Lispdp.Dataplane.dropped;
      (let open Lispdp.Map_cache in
       law
         (cache.insertions
         = live + cache.evictions + cache.expirations + cache.invalidations)
         "cache insertions %d <> live %d + evictions %d + expirations %d + \
          invalidations %d"
         cache.insertions live cache.evictions cache.expirations
         cache.invalidations) ]

type digest = {
  events : int;
  opened : int;
  established : int;
  delivered : int;
  dropped : int;
  setup_p50 : float;
  setup_p99 : float;
}

let percentile s p =
  if Netsim.Stats.Samples.count s = 0 then 0.0
  else Netsim.Stats.Samples.percentile s p

let digest (r : Workloads.run) (t : tally) =
  let c = Lispdp.Dataplane.counters (Scenario.dataplane r.scenario) in
  { events = Netsim.Engine.events_processed (Scenario.engine r.scenario);
    opened = t.opened; established = t.established;
    delivered = c.Lispdp.Dataplane.delivered;
    dropped = c.Lispdp.Dataplane.dropped;
    setup_p50 = percentile t.setups 50.0; setup_p99 = percentile t.setups 99.0 }

let epsilon = 1e-9

let digest_equal a b =
  let close x y = Float.abs (x -. y) <= epsilon *. Float.max 1.0 (Float.abs x) in
  a.events = b.events && a.opened = b.opened && a.established = b.established
  && a.delivered = b.delivered && a.dropped = b.dropped
  && close a.setup_p50 b.setup_p50
  && close a.setup_p99 b.setup_p99

let json_of_digest d =
  Obs.Json.Obj
    [ ("events", Obs.Json.Int d.events); ("opened", Obs.Json.Int d.opened);
      ("established", Obs.Json.Int d.established);
      ("delivered", Obs.Json.Int d.delivered);
      ("dropped", Obs.Json.Int d.dropped);
      ("setup_p50", Obs.Json.Float d.setup_p50);
      ("setup_p99", Obs.Json.Float d.setup_p99) ]

let digest_of_json j =
  let int k = Option.bind (Obs.Json.member k j) Obs.Json.to_int_opt in
  let float k = Option.bind (Obs.Json.member k j) Obs.Json.to_float_opt in
  match
    ( int "events", int "opened", int "established", int "delivered",
      int "dropped", float "setup_p50", float "setup_p99" )
  with
  | ( Some events, Some opened, Some established, Some delivered,
      Some dropped, Some setup_p50, Some setup_p99 ) ->
      Some
        { events; opened; established; delivered; dropped; setup_p50;
          setup_p99 }
  | _ -> None

(* expected.json: workload name -> seed (as a string) -> digest, for
   full-size runs.  Embedded at build time, so the binary checks itself
   wherever it runs. *)
let expected workload ~seed =
  match Obs.Json.of_string Expected_data.json with
  | Error e -> failwith ("expected.json: " ^ e)
  | Ok j ->
      Option.map
        (fun d ->
          match digest_of_json d with
          | Some d -> d
          | None ->
              failwith
                (Printf.sprintf "expected.json: malformed digest for %s seed %d"
                   workload seed))
        (Option.bind (Obs.Json.member workload j)
           (Obs.Json.member (string_of_int seed)))

(* Every problem with a finished run: violated laws, then a digest that
   differs from [expected] when one is given. *)
let check ?expected r =
  let t = tally r in
  let d = digest r t in
  let mismatch =
    match expected with
    | Some e when not (digest_equal e d) ->
        [ Printf.sprintf "digest %s <> expected %s"
            (Obs.Json.to_string (json_of_digest d))
            (Obs.Json.to_string (json_of_digest e)) ]
    | Some _ | None -> []
  in
  (t, d, invariants r t @ mismatch)
