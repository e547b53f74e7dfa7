(* Paper-extension features: §2.4 uniqueness under the pure lazy
   approach and the §3.6 option-1 (FK-class) join granularity. *)

open Bullfrog_db
open Bullfrog_core

let check = Alcotest.check

let count db tbl =
  match Database.query_one db ("SELECT COUNT(*) FROM " ^ tbl) with
  | [| Value.Int n |] -> n
  | _ -> -1

let dup_db () =
  let db = Database.create () in
  ignore
    (Database.exec_script db
       {|CREATE TABLE t (id INT, v TEXT);
         INSERT INTO t VALUES (1,'a'),(2,'b'),(2,'dup'),(3,'c');|});
  db

let keyed_spec () =
  Migration.make ~name:"m"
    [
      {
        Migration.stmt_name = "t2";
        outputs =
          [
            {
              Migration.out_name = "t2";
              out_create =
                Some
                  (Bullfrog_sql.Parser.parse_one
                     "CREATE TABLE t2 (id INT PRIMARY KEY, v TEXT)");
              out_population = Bullfrog_sql.Parser.parse_select "SELECT id, v FROM t";
              out_indexes = [];
            };
          ];
      };
    ]

(* §2.4's pure lazy approach: uniqueness is not checked at the switch.
   Over duplicate data the switch still happens and the duplicate fails
   when its granule migrates. *)
let drain bf =
  let rec go () = if Lazy_db.background_step bf ~batch:8 > 0 then go () in
  go ()

let duplicate_fails_lazily () =
  let db = dup_db () in
  let bf = Lazy_db.create db in
  ignore (Lazy_db.start_migration bf (keyed_spec ()) : Migrate_exec.t);
  check Alcotest.bool "switch happened" true (Catalog.exists db.Database.catalog "t2");
  try
    drain bf;
    Alcotest.fail "the duplicate should surface during migration"
  with Db_error.Constraint_violation _ -> ()

let clean_data_migrates () =
  let db = Database.create () in
  ignore
    (Database.exec_script db
       "CREATE TABLE t (id INT, v TEXT); INSERT INTO t VALUES (1,'a'),(2,'b')");
  let bf = Lazy_db.create db in
  ignore (Lazy_db.start_migration bf (keyed_spec ()) : Migrate_exec.t);
  drain bf;
  check Alcotest.int "clean data migrates" 2 (count db "t2")

(* Only the duplicate's records fail: requests for other keys migrate
   and read normally, and the unmigrated duplicate keeps the migration
   from finalizing. *)
let duplicate_fails_alone () =
  let db = dup_db () in
  let bf = Lazy_db.create db in
  ignore (Lazy_db.start_migration bf (keyed_spec ()) : Migrate_exec.t);
  let read id =
    match Lazy_db.exec bf (Printf.sprintf "SELECT v FROM t2 WHERE id = %d" id) with
    | Executor.Rows (_, rows) -> rows
    | _ -> []
  in
  check Alcotest.bool "id 1 reads" true (read 1 = [ [| Value.Str "a" |] ]);
  check Alcotest.bool "id 3 reads" true (read 3 = [ [| Value.Str "c" |] ]);
  (match read 2 with
  | _ -> Alcotest.fail "the duplicate key should fail to migrate"
  | exception Db_error.Constraint_violation _ -> ());
  check Alcotest.int "other keys migrated" 2 (count db "t2");
  match Lazy_db.finalize bf with
  | () -> Alcotest.fail "finalize must wait for the duplicate's granule"
  | exception Db_error.Sql_error _ -> ()

(* ---------------- §3.6 option 1 ---------------- *)

let fkpk_db () =
  let db = Database.create () in
  ignore
    (Database.exec_script db
       {|
    CREATE TABLE pk (k INT PRIMARY KEY, name TEXT);
    CREATE TABLE fk (id INT PRIMARY KEY, k INT, v INT);
    CREATE INDEX fk_k ON fk (k);
    INSERT INTO pk VALUES (1,'one'),(2,'two');
    INSERT INTO fk VALUES (10,1,100),(11,1,110),(12,1,120),(13,2,130);
  |});
  db

let join_spec () =
  Migration.make ~name:"j"
    [
      Migration.statement_of_sql ~name:"j"
        "CREATE TABLE joined AS (SELECT id, fk.k AS k, v, name FROM fk, pk WHERE fk.k = pk.k)";
    ]

let option2_tuple_granularity () =
  let db = fkpk_db () in
  let bf = Lazy_db.create db in
  let rt = Lazy_db.start_migration bf (join_spec ()) in
  (* default option 2: FKIT tuple granularity *)
  let fkit =
    List.find
      (fun (i : Migrate_exec.rt_input) -> i.Migrate_exec.ri_heap.Heap.name = "fk")
      (List.hd rt.Migrate_exec.stmts).Migrate_exec.rs_inputs
  in
  (match fkit.Migrate_exec.ri_tracker with
  | Migrate_exec.RT_bitmap _ -> ()
  | _ -> Alcotest.fail "option 2 must use a bitmap on the FKIT");
  let report = Migrate_exec.new_report () in
  ignore (Lazy_db.exec bf ~report "SELECT v FROM joined WHERE id = 10" : Executor.result);
  check Alcotest.int "one tuple granule" 1 report.Migrate_exec.r_granules_migrated;
  check Alcotest.int "one row migrated" 1 (count db "joined")

let option1_class_granularity () =
  let db = fkpk_db () in
  let bf = Lazy_db.create db in
  let rt = Lazy_db.start_migration ~fk_join:`Class bf (join_spec ()) in
  let fkit =
    List.find
      (fun (i : Migrate_exec.rt_input) -> i.Migrate_exec.ri_heap.Heap.name = "fk")
      (List.hd rt.Migrate_exec.stmts).Migrate_exec.rs_inputs
  in
  (match fkit.Migrate_exec.ri_tracker with
  | Migrate_exec.RT_hash (_, cols) ->
      check Alcotest.int "keyed by the join column" 1 (Array.length cols)
  | _ -> Alcotest.fail "option 1 must use a hashmap on the FK class");
  let report = Migrate_exec.new_report () in
  ignore (Lazy_db.exec bf ~report "SELECT v FROM joined WHERE id = 10" : Executor.result);
  (* the whole k=1 class migrates with the accessed tuple *)
  check Alcotest.int "one class granule" 1 report.Migrate_exec.r_granules_migrated;
  check Alcotest.int "whole FK class migrated" 3 (count db "joined");
  let rec drain () = if Lazy_db.background_step bf ~batch:8 > 0 then drain () in
  drain ();
  check Alcotest.int "exactly once overall" 4 (count db "joined");
  check Alcotest.bool "verified" true (Migrate_exec.verify_complete rt)

let option1_exactly_once_under_overlap () =
  let db = fkpk_db () in
  let bf = Lazy_db.create db in
  ignore (Lazy_db.start_migration ~fk_join:`Class bf (join_spec ()) : Migrate_exec.t);
  ignore (Lazy_db.exec bf "SELECT v FROM joined WHERE k = 1" : Executor.result);
  ignore (Lazy_db.exec bf "SELECT v FROM joined WHERE id = 11" : Executor.result);
  ignore (Lazy_db.exec bf "SELECT v FROM joined" : Executor.result);
  check Alcotest.int "no duplicates" 4 (count db "joined")

let suite =
  [
    Alcotest.test_case "duplicate key fails lazily" `Quick duplicate_fails_lazily;
    Alcotest.test_case "clean data migrates" `Quick clean_data_migrates;
    Alcotest.test_case "duplicate fails alone" `Quick duplicate_fails_alone;
    Alcotest.test_case "FK-PK option 2 (tuple)" `Quick option2_tuple_granularity;
    Alcotest.test_case "FK-PK option 1 (class)" `Quick option1_class_granularity;
    Alcotest.test_case "option 1 exactly-once" `Quick option1_exactly_once_under_overlap;
  ]
