(* Tests for the metrics library (result tables). *)

open Metrics

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec scan i = i + nl <= hl && (String.sub haystack i nl = needle || scan (i + 1)) in
  scan 0

let test_table_rendering () =
  let t = Table.create ~title:"demo" ~columns:[ "cp"; "drops"; "latency" ] in
  Table.add_row t [ "pce"; "0"; "98.00" ];
  Table.add_row t [ "pull-drop"; "1"; "1092.00" ];
  Alcotest.(check int) "row count" 2 (Table.row_count t);
  let rendered = Format.asprintf "%a" Table.pp t in
  Alcotest.(check bool) "title present" true (contains rendered "== demo ==");
  Alcotest.(check bool) "rows present" true (contains rendered "pull-drop")

let test_table_alignment () =
  let t = Table.create ~title:"align" ~columns:[ "a"; "b" ] in
  Table.add_row t [ "xxxxxxxx"; "1" ];
  let rendered = Format.asprintf "%a" Table.pp t in
  Alcotest.(check bool) "column padded to widest cell" true
    (contains rendered "a         b");
  Alcotest.(check bool) "rule matches width" true (contains rendered "--------")

let test_table_cell_count_checked () =
  let t = Table.create ~title:"bad" ~columns:[ "a"; "b" ] in
  match Table.add_row t [ "only-one" ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "wrong arity accepted"

let test_table_csv () =
  let t = Table.create ~title:"csv" ~columns:[ "name"; "value" ] in
  Table.add_row t [ "plain"; "1" ];
  Table.add_row t [ "with,comma"; "quote\"inside" ];
  let csv = Table.to_csv t in
  Alcotest.(check bool) "header" true (contains csv "name,value");
  Alcotest.(check bool) "comma quoted" true (contains csv "\"with,comma\"");
  Alcotest.(check bool) "quote doubled" true (contains csv "\"quote\"\"inside\"")

let test_cells () =
  Alcotest.(check string) "ms" "82.51" (Table.cell_ms 0.08251);
  Alcotest.(check string) "float" "3.142" (Table.cell_float 3.14159);
  Alcotest.(check string) "float decimals" "3.1" (Table.cell_float ~decimals:1 3.14159);
  Alcotest.(check string) "int" "42" (Table.cell_int 42);
  Alcotest.(check string) "pct" "12.5%" (Table.cell_pct 0.125);
  Alcotest.(check string) "bytes small" "512B" (Table.cell_bytes 512);
  Alcotest.(check string) "bytes kib" "1.5KiB" (Table.cell_bytes 1536);
  Alcotest.(check string) "bytes mib" "2.00MiB" (Table.cell_bytes (2 * 1024 * 1024))

let test_empty_columns_rejected () =
  match Table.create ~title:"x" ~columns:[] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty columns accepted"

(* ------------------------------------------------------------------ *)
(* Timeseries                                                          *)
(* ------------------------------------------------------------------ *)

let test_ts_bucketing () =
  let ts = Timeseries.create ~bucket:0.5 ~horizon:2.0 in
  Alcotest.(check int) "bucket count" 4 (Timeseries.bucket_count ts);
  Timeseries.add ts ~at:0.0 ();
  Timeseries.add ts ~at:0.49 ();
  Timeseries.add ts ~at:0.5 ();
  Timeseries.add ts ~at:1.99 ~value:3.0 ();
  Alcotest.(check (float 1e-9)) "first bucket" 2.0 (Timeseries.value ts 0);
  Alcotest.(check (float 1e-9)) "second bucket" 1.0 (Timeseries.value ts 1);
  Alcotest.(check (float 1e-9)) "last bucket" 3.0 (Timeseries.value ts 3);
  Alcotest.(check (array (float 1e-9))) "values" [| 2.0; 1.0; 0.0; 3.0 |]
    (Timeseries.values ts)

let test_ts_out_of_range () =
  let ts = Timeseries.create ~bucket:1.0 ~horizon:2.0 in
  Timeseries.add ts ~at:(-0.1) ();
  Timeseries.add ts ~at:2.0 ();
  Timeseries.add ts ~at:1.0 ();
  Alcotest.(check (array (float 1e-9))) "only the in-range sample counted"
    [| 0.0; 1.0 |] (Timeseries.values ts)

let test_ts_active_after () =
  let ts = Timeseries.create ~bucket:1.0 ~horizon:5.0 in
  Alcotest.(check (option (float 1e-9))) "none when empty" None
    (Timeseries.last_active_after ts 0.0);
  Timeseries.add ts ~at:1.5 ~value:2.0 ();
  Timeseries.add ts ~at:3.5 ~value:5.0 ();
  Alcotest.(check (option (float 1e-9))) "last active after 0" (Some 3.0)
    (Timeseries.last_active_after ts 0.0);
  Alcotest.(check (option (float 1e-9))) "last active after 3" (Some 3.0)
    (Timeseries.last_active_after ts 3.0);
  Alcotest.(check (option (float 1e-9))) "last active after 4" None
    (Timeseries.last_active_after ts 4.0)

let test_ts_validation () =
  let ts = Timeseries.create ~bucket:2.0 ~horizon:4.0 in
  Alcotest.(check (float 1e-9)) "bucket start" 2.0 (Timeseries.bucket_start ts 1);
  (match Timeseries.create ~bucket:0.0 ~horizon:1.0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "zero bucket accepted");
  match Timeseries.value ts 9 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "bad index accepted"

let () =
  Alcotest.run "metrics"
    [
      ( "table",
        [
          Alcotest.test_case "rendering" `Quick test_table_rendering;
          Alcotest.test_case "alignment" `Quick test_table_alignment;
          Alcotest.test_case "cell arity" `Quick test_table_cell_count_checked;
          Alcotest.test_case "csv" `Quick test_table_csv;
          Alcotest.test_case "cells" `Quick test_cells;
          Alcotest.test_case "empty columns" `Quick test_empty_columns_rejected;
        ] );
      ( "timeseries",
        [
          Alcotest.test_case "bucketing" `Quick test_ts_bucketing;
          Alcotest.test_case "out of range" `Quick test_ts_out_of_range;
          Alcotest.test_case "active after" `Quick test_ts_active_after;
          Alcotest.test_case "validation" `Quick test_ts_validation;
        ] );
    ]
