(* The drop causes and a per-scenario ledger of them: a flat count per
   cause plus a (node, cause) matrix, grown as node rows appear.  The
   labels below are the only copy of the cause strings in the library;
   everything else names the constructors. *)

type cause =
  | No_route
  | No_such_eid
  | No_receiver
  | No_such_rloc
  | Rloc_unreachable
  | Post_resolution_miss
  | Mapping_resolution_drop
  | Resolution_abandoned
  | Resolution_timeout
  | Resolution_queue_overflow
  | Nerd_database_miss
  | No_such_eid_domain
  | Pce_no_mapping_forward
  | Pce_no_mapping_reverse
  | Cp_message_loss
  | Outage_failure
  | Spoofed_reply_rejected
  | Replayed_reply_rejected
  | Glean_admission_rejected

let all =
  [ No_route; No_such_eid; No_receiver; No_such_rloc; Rloc_unreachable;
    Post_resolution_miss; Mapping_resolution_drop; Resolution_abandoned;
    Resolution_timeout; Resolution_queue_overflow; Nerd_database_miss;
    No_such_eid_domain; Pce_no_mapping_forward; Pce_no_mapping_reverse;
    Cp_message_loss; Outage_failure; Spoofed_reply_rejected;
    Replayed_reply_rejected; Glean_admission_rejected ]

(* Tables, traces and JSONL events have always carried these exact
   strings: never change one. *)
let label = function
  | No_route -> "no-route"
  | No_such_eid -> "no-such-eid"
  | No_receiver -> "no-receiver"
  | No_such_rloc -> "no-such-rloc"
  | Rloc_unreachable -> "rloc-unreachable"
  | Post_resolution_miss -> "post-resolution-miss"
  | Mapping_resolution_drop -> "mapping-resolution-drop"
  | Resolution_abandoned -> "resolution-abandoned"
  | Resolution_timeout -> "resolution-timeout"
  | Resolution_queue_overflow -> "resolution-queue-overflow"
  | Nerd_database_miss -> "nerd-database-miss"
  | No_such_eid_domain -> "no-such-eid-domain"
  | Pce_no_mapping_forward -> "pce-no-mapping-forward"
  | Pce_no_mapping_reverse -> "pce-no-mapping-reverse"
  | Cp_message_loss -> "cp-message-loss"
  | Outage_failure -> "outage-failure"
  | Spoofed_reply_rejected -> "spoofed-reply-rejected"
  | Replayed_reply_rejected -> "replayed-reply-rejected"
  | Glean_admission_rejected -> "glean-admission-rejected"

let of_label s = List.find_opt (fun c -> String.equal (label c) s) all

let index = function
  | No_route -> 0
  | No_such_eid -> 1
  | No_receiver -> 2
  | No_such_rloc -> 3
  | Rloc_unreachable -> 4
  | Post_resolution_miss -> 5
  | Mapping_resolution_drop -> 6
  | Resolution_abandoned -> 7
  | Resolution_timeout -> 8
  | Resolution_queue_overflow -> 9
  | Nerd_database_miss -> 10
  | No_such_eid_domain -> 11
  | Pce_no_mapping_forward -> 12
  | Pce_no_mapping_reverse -> 13
  | Cp_message_loss -> 14
  | Outage_failure -> 15
  | Spoofed_reply_rejected -> 16
  | Replayed_reply_rejected -> 17
  | Glean_admission_rejected -> 18

let n_causes = List.length all

let is_packet = function
  | No_route | No_such_eid | No_receiver | No_such_rloc | Rloc_unreachable
  | Post_resolution_miss | Mapping_resolution_drop | Resolution_abandoned
  | Resolution_timeout | Resolution_queue_overflow | Nerd_database_miss
  | No_such_eid_domain | Pce_no_mapping_forward | Pce_no_mapping_reverse ->
      true
  | Cp_message_loss | Outage_failure | Spoofed_reply_rejected
  | Replayed_reply_rejected | Glean_admission_rejected ->
      false

let is_no_resolution = function
  | Nerd_database_miss | Pce_no_mapping_forward | Pce_no_mapping_reverse -> true
  | No_route | No_such_eid | No_receiver | No_such_rloc | Rloc_unreachable
  | Post_resolution_miss | Mapping_resolution_drop | Resolution_abandoned
  | Resolution_timeout | Resolution_queue_overflow | No_such_eid_domain
  | Cp_message_loss | Outage_failure | Spoofed_reply_rejected
  | Replayed_reply_rejected | Glean_admission_rejected ->
      false

let is_wait = function
  | Resolution_abandoned | Resolution_timeout | Resolution_queue_overflow
  | Mapping_resolution_drop ->
      true
  | c -> is_no_resolution c

(* [by_cause.(index c)] counts [c] over every node; [rows] holds one
   row of [n_causes] cells per node, row [node + 1] (row 0 collects the
   drops with no attributable node). *)
type t = {
  by_cause : int array;
  mutable rows : int array;
  mutable row_count : int;
}

let create () = { by_cause = Array.make n_causes 0; rows = [||]; row_count = 0 }

let record t ~node cause =
  let c = index cause in
  t.by_cause.(c) <- t.by_cause.(c) + 1;
  let row = node + 1 in
  if row >= t.row_count then begin
    t.row_count <- row + 1;
    let len = t.row_count * n_causes in
    if len > Array.length t.rows then begin
      let rows = Array.make (max len (2 * Array.length t.rows)) 0 in
      Array.blit t.rows 0 rows 0 (Array.length t.rows);
      t.rows <- rows
    end
  end;
  let cell = (row * n_causes) + c in
  t.rows.(cell) <- t.rows.(cell) + 1

let count t cause = t.by_cause.(index cause)
let total t = Array.fold_left ( + ) 0 t.by_cause

let totals t =
  List.filter (fun (_, n) -> n > 0) (List.map (fun c -> (c, count t c)) all)
  |> List.stable_sort (fun (_, a) (_, b) -> Int.compare b a)

let by_node t =
  List.filter_map
    (fun row ->
      let causes =
        List.filter_map
          (fun c ->
            let n = t.rows.((row * n_causes) + index c) in
            if n > 0 then Some (c, n) else None)
          all
      in
      if causes = [] then None else Some (row - 1, causes))
    (List.init t.row_count Fun.id)
