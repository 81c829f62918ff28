(* Registry of every experiment the harness can regenerate: id, title, a
   table generator (for CSV export) and a full printer (tables plus any
   extra output such as the F1 trace). *)

type entry = {
  exp_id : string;
  exp_title : string;
  tables : unit -> Metrics.Table.t list;
  print : unit -> unit;
}

let all : entry list =
  [ { exp_id = Exp_f1.id; exp_title = Exp_f1.title; tables = Exp_f1.tables;
      print = Exp_f1.print };
    { exp_id = Exp_t1.id; exp_title = Exp_t1.title; tables = Exp_t1.tables;
      print = Exp_t1.print };
    { exp_id = Exp_t2.id; exp_title = Exp_t2.title; tables = Exp_t2.tables;
      print = Exp_t2.print };
    { exp_id = Exp_t3.id; exp_title = Exp_t3.title; tables = Exp_t3.tables;
      print = Exp_t3.print };
    { exp_id = Exp_t4.id; exp_title = Exp_t4.title; tables = Exp_t4.tables;
      print = Exp_t4.print };
    { exp_id = Exp_t5.id; exp_title = Exp_t5.title; tables = Exp_t5.tables;
      print = Exp_t5.print };
    { exp_id = Exp_t6.id; exp_title = Exp_t6.title; tables = Exp_t6.tables;
      print = Exp_t6.print };
    { exp_id = Exp_te1.id; exp_title = Exp_te1.title; tables = Exp_te1.tables;
      print = Exp_te1.print };
    { exp_id = Exp_f2.id; exp_title = Exp_f2.title; tables = Exp_f2.tables;
      print = Exp_f2.print };
    { exp_id = Exp_f3.id; exp_title = Exp_f3.title; tables = Exp_f3.tables;
      print = Exp_f3.print };
    { exp_id = Exp_f4.id; exp_title = Exp_f4.title; tables = Exp_f4.tables;
      print = Exp_f4.print };
    { exp_id = Exp_f5.id; exp_title = Exp_f5.title; tables = Exp_f5.tables;
      print = Exp_f5.print };
    { exp_id = Exp_f6.id; exp_title = Exp_f6.title; tables = Exp_f6.tables;
      print = Exp_f6.print };
    { exp_id = Exp_f7.id; exp_title = Exp_f7.title; tables = Exp_f7.tables;
      print = Exp_f7.print };
    { exp_id = Exp_f8.id; exp_title = Exp_f8.title; tables = Exp_f8.tables;
      print = Exp_f8.print };
    { exp_id = Exp_f9.id; exp_title = Exp_f9.title; tables = Exp_f9.tables;
      print = Exp_f9.print };
    { exp_id = Exp_a1.id; exp_title = Exp_a1.title; tables = Exp_a1.tables;
      print = Exp_a1.print };
    { exp_id = Exp_a2.id; exp_title = Exp_a2.title; tables = Exp_a2.tables;
      print = Exp_a2.print };
    { exp_id = Exp_a3.id; exp_title = Exp_a3.title; tables = Exp_a3.tables;
      print = Exp_a3.print };
    { exp_id = Exp_v1.id; exp_title = Exp_v1.title; tables = Exp_v1.tables;
      print = Exp_v1.print };
    { exp_id = Exp_r1.id; exp_title = Exp_r1.title; tables = Exp_r1.tables;
      print = Exp_r1.print };
    { exp_id = Exp_r2.id; exp_title = Exp_r2.title; tables = Exp_r2.tables;
      print = Exp_r2.print };
    { exp_id = Exp_s1.id; exp_title = Exp_s1.title; tables = Exp_s1.tables;
      print = Exp_s1.print };
    { exp_id = Exp_s2.id; exp_title = Exp_s2.title; tables = Exp_s2.tables;
      print = Exp_s2.print };
    { exp_id = Exp_m1.id; exp_title = Exp_m1.title; tables = Exp_m1.tables;
      print = Exp_m1.print };
    { exp_id = Exp_m2.id; exp_title = Exp_m2.title; tables = Exp_m2.tables;
      print = Exp_m2.print };
    { exp_id = Exp_m3.id; exp_title = Exp_m3.title; tables = Exp_m3.tables;
      print = Exp_m3.print };
    { exp_id = Exp_sec1.id; exp_title = Exp_sec1.title;
      tables = Exp_sec1.tables; print = Exp_sec1.print };
    { exp_id = Exp_sec2.id; exp_title = Exp_sec2.title;
      tables = Exp_sec2.tables; print = Exp_sec2.print };
    { exp_id = "micro"; exp_title = "Micro-benchmarks (Bechamel)";
      tables = (fun () -> []); print = Bench_micro.print } ]

(* 100k-flow (S) cells: heavy.  `main.exe` runs these only when they
   are named explicitly.  The M-series stays in the default sweep: its
   cache rows must be in BASELINE.json for `bench --check`. *)
let scale_ids = [ Exp_s1.id; Exp_s2.id ]

let find id = List.find_opt (fun e -> e.exp_id = id) all
