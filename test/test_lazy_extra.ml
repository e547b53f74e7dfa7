(* Further BullFrog façade coverage: FK-driven scope expansion (§4.5),
   multi-statement migrations with per-statement trackers, worst-case
   whole-table relevance (§2.4), the SKIP wait across real threads, and
   interaction of writes with unmigrated data. *)

open Bullfrog_db
open Bullfrog_core
open Bullfrog_sql

let check = Alcotest.check

let count db tbl =
  match Database.query_one db ("SELECT COUNT(*) FROM " ^ tbl) with
  | [| Value.Int n |] -> n
  | _ -> -1

let fk_scope_expansion () =
  (* parent and child both migrate; inserting a child whose parent has not
     migrated yet must migrate the parent first so the FK check passes *)
  let db = Database.create () in
  ignore
    (Database.exec_script db
       {|
    CREATE TABLE p (p_id INT PRIMARY KEY, note TEXT);
    CREATE TABLE c (c_id INT PRIMARY KEY, p_ref INT, note TEXT);
    INSERT INTO p VALUES (1,'a'),(2,'b'),(3,'c');
    INSERT INTO c VALUES (10,1,'x'),(11,2,'y');
  |});
  let bf = Lazy_db.create db in
  let spec =
    Migration.make ~name:"v2" ~drop_old:[ "p"; "c" ]
      [
        {
          Migration.stmt_name = "p2";
          outputs =
            [
              {
                Migration.out_name = "p2";
                out_create =
                  Some (Parser.parse_one "CREATE TABLE p2 (p_id INT PRIMARY KEY, note TEXT)");
                out_population = Parser.parse_select "SELECT p_id, note FROM p";
                out_indexes = [];
              };
            ];
        };
        {
          Migration.stmt_name = "c2";
          outputs =
            [
              {
                Migration.out_name = "c2";
                out_create =
                  Some
                    (Parser.parse_one
                       "CREATE TABLE c2 (c_id INT PRIMARY KEY, p_ref INT, note TEXT, FOREIGN KEY (p_ref) REFERENCES p2 (p_id))");
                out_population = Parser.parse_select "SELECT c_id, p_ref, note FROM c";
                out_indexes = [];
              };
            ];
        };
      ]
  in
  ignore (Lazy_db.start_migration bf spec : Migrate_exec.t);
  check Alcotest.int "p2 empty at switch" 0 (count db "p2");
  (* the FK parent (p_id=3) has not migrated; the insert must drag it in *)
  (match Lazy_db.exec bf "INSERT INTO c2 VALUES (12, 3, 'z')" with
  | Executor.Affected 1 -> ()
  | _ -> Alcotest.fail "insert should succeed");
  check Alcotest.int "parent migrated for the FK check" 1
    (List.length (Database.query db "SELECT p_id FROM p2 WHERE p_id = 3"));
  (* a dangling reference still fails, after the probe migrates nothing *)
  (try
     ignore (Lazy_db.exec bf "INSERT INTO c2 VALUES (13, 99, 'w')" : Executor.result);
     Alcotest.fail "dangling FK must fail"
   with Db_error.Constraint_violation _ -> ())

let per_statement_trackers () =
  (* the same input in two separate statements gets two trackers (§3.1):
     migrating via one statement does not mark the other's granules *)
  let db = Database.create () in
  ignore
    (Database.exec_script db
       {|CREATE TABLE t (id INT PRIMARY KEY, x INT, y INT);
         INSERT INTO t VALUES (1,10,100),(2,20,200),(3,30,300);|});
  let bf = Lazy_db.create db in
  let spec =
    Migration.make ~name:"two"
      [
        Migration.statement_of_sql ~name:"tx" "CREATE TABLE tx AS (SELECT id, x FROM t)";
        Migration.statement_of_sql ~name:"ty" "CREATE TABLE ty AS (SELECT id, y FROM t)";
      ]
  in
  let rt = Lazy_db.start_migration bf spec in
  check Alcotest.int "two statements" 2 (List.length rt.Migrate_exec.stmts);
  ignore (Lazy_db.exec bf "SELECT x FROM tx WHERE id = 1" : Executor.result);
  check Alcotest.int "tx migrated" 1 (count db "tx");
  check Alcotest.int "ty untouched" 0 (count db "ty");
  ignore (Lazy_db.exec bf "SELECT y FROM ty WHERE id = 1" : Executor.result);
  check Alcotest.int "ty migrated independently" 1 (count db "ty");
  let rec drain () = if Lazy_db.background_step bf ~batch:8 > 0 then drain () in
  drain ();
  check Alcotest.int "tx complete" 3 (count db "tx");
  check Alcotest.int "ty complete" 3 (count db "ty")

let worst_case_whole_table () =
  (* a predicate the planner cannot convert (function of a projected
     expression) makes the whole input potentially relevant (§2.4) *)
  let db = Database.create () in
  ignore
    (Database.exec_script db
       {|CREATE TABLE t (id INT PRIMARY KEY, v INT);
         INSERT INTO t VALUES (1,5),(2,6),(3,7),(4,8);|});
  let bf = Lazy_db.create db in
  let spec =
    Migration.make ~name:"m"
      [
        Migration.statement_of_sql ~name:"t2"
          "CREATE TABLE t2 AS (SELECT id, v + 1 AS w FROM t)";
      ]
  in
  ignore (Lazy_db.start_migration bf spec : Migrate_exec.t);
  let report = Migrate_exec.new_report () in
  (* w % 2 = 0 cannot be pushed as an index predicate but CAN be evaluated
     per old row after substitution; either way the answer must be right *)
  (match Lazy_db.exec bf ~report "SELECT id FROM t2 WHERE w % 2 = 0" with
  | Executor.Rows (_, rows) -> check Alcotest.int "answer" 2 (List.length rows)
  | _ -> Alcotest.fail "rows");
  (* an opaque predicate over an aggregate-less projection still yields a
     correct (possibly whole-table) migration *)
  ignore (Lazy_db.exec bf "SELECT id FROM t2" : Executor.result);
  check Alcotest.int "all migrated by the unconstrained read" 4 (count db "t2")

let skip_wait_across_threads () =
  (* one thread holds a granule in progress while another requests it: the
     second must wait (Alg. 1 line 10 / Fig. 1) and then see it migrated *)
  let bt = Bitmap_tracker.create ~size:4 () in
  check Alcotest.bool "t1 acquires" true (Bitmap_tracker.try_acquire bt [ 2 ] = [ Tracker.Migrate ]);
  let t2_done = ref false in
  let t2 =
    Thread.create
      (fun () ->
        (* simulate Algorithm 1's wait loop *)
        let rec wait n =
          if n > 10_000 then failwith "never resolved"
          else if Bitmap_tracker.is_migrated bt 2 then ()
          else begin
            Thread.delay 0.001;
            wait (n + 1)
          end
        in
        (match Bitmap_tracker.try_acquire bt [ 2 ] with
        | [ Tracker.Skip ] -> wait 0
        | [ Tracker.Already_migrated ] -> ()
        | _ -> failwith "should have been locked");
        t2_done := true)
      ()
  in
  Thread.delay 0.02;
  check Alcotest.bool "t2 still waiting" false !t2_done;
  Bitmap_tracker.mark_migrated bt [ 2 ];
  Thread.join t2;
  check Alcotest.bool "t2 proceeded after the commit" true !t2_done

let update_of_unmigrated_row () =
  (* an UPDATE whose target has not migrated yet must migrate then update;
     the old-schema copy must never be read again afterwards *)
  let db = Database.create () in
  ignore
    (Database.exec_script db
       {|CREATE TABLE t (id INT PRIMARY KEY, v INT);
         INSERT INTO t VALUES (1,5),(2,6);|});
  let bf = Lazy_db.create db in
  let spec =
    Migration.make ~name:"m" ~drop_old:[ "t" ]
      [ Migration.statement_of_sql ~name:"t2" "CREATE TABLE t2 AS (SELECT id, v FROM t)" ]
  in
  ignore (Lazy_db.start_migration bf spec : Migrate_exec.t);
  (match Lazy_db.exec bf "UPDATE t2 SET v = 50 WHERE id = 1" with
  | Executor.Affected 1 -> ()
  | _ -> Alcotest.fail "update-through-migration");
  (* the stale physical copy in the old table is never consulted again *)
  (match Lazy_db.exec bf "SELECT v FROM t2 WHERE id = 1" with
  | Executor.Rows (_, [ [| Value.Int 50 |] ]) -> ()
  | _ -> Alcotest.fail "must see the new-schema write");
  let rec drain () = if Lazy_db.background_step bf ~batch:8 > 0 then drain () in
  drain ();
  match Lazy_db.exec bf "SELECT v FROM t2 WHERE id = 1" with
  | Executor.Rows (_, [ [| Value.Int 50 |] ]) -> ()
  | _ -> Alcotest.fail "background must not overwrite the migrated+updated row"

let double_migration_rejected () =
  let db = Database.create () in
  ignore (Database.exec_script db "CREATE TABLE t (id INT PRIMARY KEY)");
  let bf = Lazy_db.create db in
  let spec =
    Migration.make ~name:"m"
      [ Migration.statement_of_sql ~name:"t2" "CREATE TABLE t2 AS (SELECT id FROM t)" ]
  in
  ignore (Lazy_db.start_migration bf spec : Migrate_exec.t);
  try
    ignore (Lazy_db.start_migration bf spec : Migrate_exec.t);
    Alcotest.fail "second concurrent migration must be rejected"
  with Db_error.Sql_error _ -> ()

let finalize_requires_completion () =
  let db = Database.create () in
  ignore
    (Database.exec_script db
       "CREATE TABLE t (id INT PRIMARY KEY); INSERT INTO t VALUES (1),(2)");
  let bf = Lazy_db.create db in
  let spec =
    Migration.make ~name:"m" ~drop_old:[ "t" ]
      [ Migration.statement_of_sql ~name:"t2" "CREATE TABLE t2 AS (SELECT id FROM t)" ]
  in
  ignore (Lazy_db.start_migration bf spec : Migrate_exec.t);
  try
    Lazy_db.finalize bf;
    Alcotest.fail "finalize before completion must fail"
  with Db_error.Sql_error _ -> ()

let suite =
  [
    Alcotest.test_case "FK scope expansion (§4.5)" `Quick fk_scope_expansion;
    Alcotest.test_case "per-statement trackers" `Quick per_statement_trackers;
    Alcotest.test_case "worst-case whole-table relevance" `Quick worst_case_whole_table;
    Alcotest.test_case "SKIP wait across threads" `Quick skip_wait_across_threads;
    Alcotest.test_case "update of unmigrated row" `Quick update_of_unmigrated_row;
    Alcotest.test_case "double migration rejected" `Quick double_migration_rejected;
    Alcotest.test_case "finalize requires completion" `Quick finalize_requires_completion;
  ]
