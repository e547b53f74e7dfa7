(* Pair-granularity n:n migration (§3.6 option 3): exactly-once pairs,
   intersection semantics of per-side predicates, background coverage,
   deletes, and the coarse join-key-class alternative. *)

open Bullfrog_db
open Bullfrog_core
open Bullfrog_sql

let check = Alcotest.check

let mk_db () =
  let db = Database.create () in
  ignore
    (Database.exec_script db
       {|
    CREATE TABLE a (a_id INT PRIMARY KEY, k INT, ax TEXT);
    CREATE TABLE b (b_id INT PRIMARY KEY, k INT, bx TEXT);
    CREATE INDEX a_k ON a (k);
    CREATE INDEX b_k ON b (k);
  |});
  (* key classes: k=1 has 2x3 pairs, k=2 has 1x1, k=3 a-side only (no pairs) *)
  ignore
    (Database.exec_script db
       {|
    INSERT INTO a VALUES (1,1,'a1'),(2,1,'a2'),(3,2,'a3'),(4,3,'a4');
    INSERT INTO b VALUES (10,1,'b1'),(11,1,'b2'),(12,1,'b3'),(13,2,'b4'),(14,9,'b5');
  |});
  db

let spec () =
  Migration.make ~name:"ab" ~drop_old:[ "a"; "b" ]
    [
      Migration.statement_of_sql ~name:"ab"
        "CREATE TABLE ab AS (SELECT a_id, b_id, a.k AS k, ax, bx FROM a, b WHERE a.k = b.k)"
        ~extra_ddl:[ "CREATE INDEX ab_k ON ab (k)" ];
    ]

let count db tbl =
  match Database.query_one db ("SELECT COUNT(*) FROM " ^ tbl) with
  | [| Value.Int n |] -> n
  | _ -> -1

let pair_mode_installed () =
  let db = mk_db () in
  let bf = Lazy_db.create db in
  let rt = Lazy_db.start_migration bf (spec ()) in
  match (List.hd rt.Migrate_exec.stmts).Migrate_exec.rs_pair with
  | Some pr ->
      check Alcotest.string "a side" "a" pr.Migrate_exec.pr_a.Migrate_exec.ri_heap.Heap.name;
      check Alcotest.string "b side" "b" pr.Migrate_exec.pr_b.Migrate_exec.ri_heap.Heap.name;
      check Alcotest.int "outputs compiled" 1 (List.length pr.Migrate_exec.pr_outputs)
  | None -> Alcotest.fail "expected pair runtime"

let lazy_pairs_by_predicate () =
  let db = mk_db () in
  let bf = Lazy_db.create db in
  ignore (Lazy_db.start_migration bf (spec ()) : Migrate_exec.t);
  let report = Migrate_exec.new_report () in
  (* predicate on the join key reaches both sides: class k=1 = 6 pairs *)
  (match Lazy_db.exec bf ~report "SELECT * FROM ab WHERE k = 1" with
  | Executor.Rows (_, rows) -> check Alcotest.int "k=1 rows" 6 (List.length rows)
  | _ -> Alcotest.fail "rows");
  check Alcotest.int "six pairs migrated" 6 report.Migrate_exec.r_granules_migrated;
  check Alcotest.int "physical rows" 6 (count db "ab");
  (* a predicate on one side's private column intersects: only a_id=3's pairs *)
  let report2 = Migrate_exec.new_report () in
  (match Lazy_db.exec bf ~report:report2 "SELECT * FROM ab WHERE a_id = 3" with
  | Executor.Rows (_, rows) -> check Alcotest.int "a_id=3 rows" 1 (List.length rows)
  | _ -> Alcotest.fail "rows");
  check Alcotest.int "one pair for a_id=3" 1 report2.Migrate_exec.r_granules_migrated

let background_covers_all_pairs () =
  let db = mk_db () in
  let bf = Lazy_db.create db in
  let rt = Lazy_db.start_migration bf (spec ()) in
  let rec drain n =
    let k = Lazy_db.background_step bf ~batch:3 in
    if k > 0 then drain (n + k) else n
  in
  let migrated = drain 0 in
  check Alcotest.int "all pairs migrated" 7 migrated;
  check Alcotest.int "output rows" 7 (count db "ab");
  check Alcotest.bool "complete" true (Lazy_db.migration_complete bf);
  check Alcotest.bool "verified" true (Migrate_exec.verify_complete rt);
  (* rows with no join partner (a_id=4, b_id=14) produce nothing *)
  check Alcotest.int "k=3 produced nothing" 0
    (match Database.query_one db "SELECT COUNT(*) FROM ab WHERE k = 3" with
    | [| Value.Int n |] -> n
    | _ -> -1)

let exactly_once_on_overlap () =
  let db = mk_db () in
  let bf = Lazy_db.create db in
  ignore (Lazy_db.start_migration bf (spec ()) : Migrate_exec.t);
  (* overlapping requests: k=1 twice, then a full scan *)
  ignore (Lazy_db.exec bf "SELECT * FROM ab WHERE k = 1" : Executor.result);
  ignore (Lazy_db.exec bf "SELECT * FROM ab WHERE k = 1" : Executor.result);
  (match Lazy_db.exec bf "SELECT * FROM ab" with
  | Executor.Rows (_, rows) -> check Alcotest.int "full scan" 7 (List.length rows)
  | _ -> Alcotest.fail "rows");
  check Alcotest.int "no duplicates" 7 (count db "ab")

let join_key_class_mode () =
  (* the coarse §3.6 variant: one granule per join-key class *)
  let db = mk_db () in
  let bf = Lazy_db.create db in
  ignore
    (Lazy_db.start_migration ~nn:Migrate_exec.Nn_join_key bf (spec ()) : Migrate_exec.t);
  let report = Migrate_exec.new_report () in
  ignore (Lazy_db.exec bf ~report "SELECT * FROM ab WHERE a_id = 1" : Executor.result);
  (* class granularity drags the whole k=1 class along with a_id=1 *)
  check Alcotest.int "one class granule" 1 report.Migrate_exec.r_granules_migrated;
  check Alcotest.int "whole class migrated" 6 (count db "ab");
  let rec drain () = if Lazy_db.background_step bf ~batch:8 > 0 then drain () in
  drain ();
  check Alcotest.int "exactly once overall" 7 (count db "ab")

let pair_abort_injection () =
  let db = mk_db () in
  let bf = Lazy_db.create db in
  let rt = Lazy_db.start_migration bf (spec ()) in
  let fired = ref 0 in
  rt.Migrate_exec.abort_inject <-
    Some
      (fun () ->
        incr fired;
        !fired = 1);
  let report = Migrate_exec.new_report () in
  (match Lazy_db.exec bf ~report "SELECT * FROM ab WHERE k = 1" with
  | Executor.Rows (_, rows) -> check Alcotest.int "rows after retry" 6 (List.length rows)
  | _ -> Alcotest.fail "rows");
  check Alcotest.int "abort recorded" 1 report.Migrate_exec.r_aborts;
  check Alcotest.int "no duplicates after abort+retry" 6 (count db "ab")

let pair_recovery () =
  let db = mk_db () in
  let bf = Lazy_db.create db in
  let rt = Lazy_db.start_migration bf (spec ()) in
  ignore (Lazy_db.exec bf "SELECT * FROM ab WHERE k = 2" : Executor.result);
  check Alcotest.int "one pair before crash" 1 (count db "ab");
  let rt' = Recovery.simulate_crash rt in
  let restored = Recovery.rebuild rt' db.Database.redo in
  check Alcotest.int "pair restored" 1 restored;
  let report = Migrate_exec.new_report () in
  Migrate_exec.migrate_for_preds rt' report
    (Migrate_exec.compile_preds rt'
       [ ("a", Some (Parser.parse_expr "k = 2")); ("b", Some (Parser.parse_expr "k = 2")) ]);
  check Alcotest.int "no re-migration" 0 report.Migrate_exec.r_granules_migrated;
  check Alcotest.int "rows unchanged" 1 (count db "ab")

let suite =
  [
    Alcotest.test_case "pair runtime installed" `Quick pair_mode_installed;
    Alcotest.test_case "pairs by predicate" `Quick lazy_pairs_by_predicate;
    Alcotest.test_case "background covers all pairs" `Quick background_covers_all_pairs;
    Alcotest.test_case "exactly once on overlap" `Quick exactly_once_on_overlap;
    Alcotest.test_case "join-key class mode" `Quick join_key_class_mode;
    Alcotest.test_case "pair abort injection" `Quick pair_abort_injection;
    Alcotest.test_case "pair recovery" `Quick pair_recovery;
  ]
