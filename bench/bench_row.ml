(* Gated cell rows for BENCH.json.

   Experiments that check a claim cell by cell record one row per cell
   under a block name: the M series compares measured map-cache miss
   rates against the Coras model, TE1 gates inbound fairness, SEC1/SEC2
   gate the attack cells.  Rows are process-global, like the profiler;
   the bench runner resets them in each worker and ships them home in
   the summary, [Runner.bench_json] emits each block as a field of the
   experiment's object, and `bench --check` gates every row's [ok]
   strictly and compares every field against the committed baseline.
   A row must therefore hold simulated quantities only, so that it is
   identical whatever the job count. *)

type t = {
  run : string;  (* cell label, unique within the block *)
  fields : (string * Obs.Json.t) list;  (* serialised in this order *)
  ok : bool;  (* the experiment's gate held (true for ungated cells) *)
}

let current : (string * t) list ref = ref []
let record block row = current := (block, row) :: !current
let reset () = current := []

(* Recorded rows by block: blocks in first-recorded order, rows in
   record order. *)
let blocks () =
  let recorded = List.rev !current in
  let names =
    List.fold_left
      (fun names (b, _) -> if List.mem b names then names else b :: names)
      [] recorded
  in
  List.rev_map
    (fun b ->
      ( b,
        List.filter_map
          (fun (b', r) -> if b' = b then Some r else None)
          recorded ))
    names

(* Wire format: {"run":…, <fields in order>, "ok":…}. *)
let to_json r =
  Obs.Json.Obj
    ((("run", Obs.Json.String r.run) :: r.fields)
    @ [ ("ok", Obs.Json.Bool r.ok) ])

let of_json = function
  | Obs.Json.Obj kvs -> (
      match (List.assoc_opt "run" kvs, List.assoc_opt "ok" kvs) with
      | Some (Obs.Json.String run), Some (Obs.Json.Bool ok) ->
          Some
            { run; ok;
              fields = List.filter (fun (k, _) -> k <> "run" && k <> "ok") kvs }
      | _ -> None)
  | _ -> None
