(* Statement / plan cache: reuse across parameter bindings, invalidation
   on DDL (schema epoch), and invalidation across BullFrog's lazy
   migration flip — a cached plan must never serve answers from a schema
   that is no longer live. *)

open Bullfrog_db
open Bullfrog_core
open Bullfrog_sql

let check = Alcotest.check

let rows_of = function
  | Executor.Rows (_, rows) -> rows
  | _ -> Alcotest.fail "expected rows"

let sorted_strings rows =
  List.sort compare (List.map (fun r -> String.concat "|" (Array.to_list (Array.map Value.to_string r))) rows)

(* A cold execution: fresh parse, fresh plan, no cache involved. *)
let cold db txn ?(params = [||]) sql =
  Executor.exec_stmt ~params (Database.exec_ctx db) txn (Parser.parse_one sql)

let cold_auto db ?params sql =
  Database.with_txn db (fun txn -> cold db txn ?params sql)

(* ------------------------------------------------------------------ *)

let statement_cache_hits () =
  let db = Database.create () in
  ignore (Database.exec db "CREATE TABLE t (a INT PRIMARY KEY, b INT)" : Executor.result);
  let sql = "SELECT b FROM t WHERE a = $1" in
  let p1 = Database.prepare db sql in
  let p2 = Database.prepare db sql in
  check Alcotest.bool "same prepared statement object" true (p1 == p2);
  let p3 = Database.prepare db "SELECT b FROM t WHERE a = $2" in
  check Alcotest.bool "different text, different entry" false (p1 == p3)

let params_reused_across_bindings () =
  let db = Database.create () in
  ignore (Database.exec db "CREATE TABLE t (a INT PRIMARY KEY, b INT)" : Executor.result);
  for i = 1 to 10 do
    ignore (Database.exec db (Printf.sprintf "INSERT INTO t VALUES (%d, %d)" i (i * i))
        : Executor.result)
  done;
  let sql = "SELECT b FROM t WHERE a = $1" in
  for i = 1 to 10 do
    let warm = rows_of (Database.exec db ~params:[| Value.Int i |] sql) in
    let c = rows_of (cold_auto db ~params:[| Value.Int i |] sql) in
    check (Alcotest.list Alcotest.string)
      (Printf.sprintf "binding %d matches cold" i)
      (sorted_strings c) (sorted_strings warm)
  done;
  (* Too few parameters is a statement error, not a crash. *)
  Alcotest.check_raises "missing parameter rejected"
    (Db_error.Sql_error "statement expects 1 parameter(s), got 0") (fun () ->
      ignore (Database.exec db sql : Executor.result))

let ddl_invalidates_plan () =
  let db = Database.create () in
  ignore (Database.exec db "CREATE TABLE t (a INT PRIMARY KEY, b INT)" : Executor.result);
  ignore (Database.exec db "INSERT INTO t VALUES (1, 10)" : Executor.result);
  let sql = "SELECT * FROM t WHERE a = $1" in
  (* Warm the plan under the 2-column schema. *)
  (match rows_of (Database.exec db ~params:[| Value.Int 1 |] sql) with
  | [ row ] -> check Alcotest.int "2 columns before DDL" 2 (Array.length row)
  | _ -> Alcotest.fail "expected one row");
  ignore (Database.exec db "ALTER TABLE t ADD COLUMN c INT DEFAULT 7" : Executor.result);
  (* The cached plan projected 2 columns; after ALTER it must be rebuilt. *)
  (match rows_of (Database.exec db ~params:[| Value.Int 1 |] sql) with
  | [ row ] ->
      check Alcotest.int "3 columns after DDL" 3 (Array.length row);
      check Alcotest.bool "default visible" true (Value.equal row.(2) (Value.Int 7))
  | _ -> Alcotest.fail "expected one row");
  ignore (Database.exec db "ALTER TABLE t DROP COLUMN b" : Executor.result);
  (match rows_of (Database.exec db ~params:[| Value.Int 1 |] sql) with
  | [ row ] -> check Alcotest.int "2 columns after DROP COLUMN" 2 (Array.length row)
  | _ -> Alcotest.fail "expected one row")

(* ------------------------------------------------------------------ *)
(* Across the migration flip                                           *)
(* ------------------------------------------------------------------ *)

(* The flights example (§2.1), small.  capacity = 100+i, passenger_count
   = 50+d, so empty_seats for FL00i on day d is 50+i-d. *)
let flights_db () =
  let db = Database.create () in
  ignore
    (Database.exec_script db
       {|
    CREATE TABLE flights (flightid CHAR(6) PRIMARY KEY, capacity INT);
    CREATE TABLE flewon (flightid CHAR(6), flightdate DATE, passenger_count INT);
  |});
  for i = 0 to 9 do
    ignore
      (Database.exec db
         (Printf.sprintf "INSERT INTO flights VALUES ('FL%03d', %d)" i (100 + i))
        : Executor.result);
    for d = 1 to 3 do
      ignore
        (Database.exec db
           (Printf.sprintf "INSERT INTO flewon VALUES ('FL%03d','2020-03-%02d',%d)" i d (50 + d))
          : Executor.result)
    done
  done;
  db

let spec () =
  Migration.make ~name:"flights_v2" ~drop_old:[ "flewon" ]
    [
      Migration.statement_of_sql ~name:"flewoninfo"
        {|CREATE TABLE flewoninfo AS (
          SELECT f.flightid AS fid, flightdate,
                 (capacity - passenger_count) AS empty_seats
          FROM flights f, flewon fi WHERE f.flightid = fi.flightid)|};
    ]

let expected_for i = List.sort compare (List.map (fun d -> 50 + i - d) [ 1; 2; 3 ])

let got_seats rows =
  List.sort compare
    (List.map (function [| Value.Int n |] -> n | _ -> Alcotest.fail "not an int") rows)

let migration_flip_invalidates () =
  let db = flights_db () in
  let bf = Lazy_db.create db in
  let sql = "SELECT empty_seats FROM flewoninfo WHERE fid = $1" in
  let old_sql = "SELECT passenger_count FROM flewon WHERE flightid = $1" in
  (* Warm a statement against the old schema before the flip. *)
  check Alcotest.int "old-schema query works before flip" 3
    (List.length (rows_of (Lazy_db.exec bf ~params:[| Value.Str "FL003" |] old_sql)));
  (* The new-schema statement fails before the flip but its parse is cached;
     the cached entry must not pin that failure. *)
  (try ignore (Lazy_db.exec bf ~params:[| Value.Str "FL003" |] sql : Executor.result)
   with Db_error.Sql_error _ -> ());
  ignore (Lazy_db.start_migration bf (spec ()) : Migrate_exec.t);
  (* During migration: the same cached statement now resolves to the
     output table and lazily migrates what it touches. *)
  let fid i = [| Value.Str (Printf.sprintf "FL%03d" i) |] in
  check (Alcotest.list Alcotest.int) "during flip: param FL003" (expected_for 3)
    (got_seats (rows_of (Lazy_db.exec bf ~params:(fid 3) sql)));
  (* Same prepared plan, different binding: migrates a different slice. *)
  check (Alcotest.list Alcotest.int) "during flip: param FL007" (expected_for 7)
    (got_seats (rows_of (Lazy_db.exec bf ~params:(fid 7) sql)));
  (* Warm result matches a cold (uncached) execution on the same state. *)
  check (Alcotest.list Alcotest.int) "warm = cold during migration"
    (got_seats (rows_of (cold_auto db ~params:(fid 7) sql)))
    (got_seats (rows_of (Lazy_db.exec bf ~params:(fid 7) sql)));
  (* exec_in inside a caller-owned transaction takes the same cached path. *)
  let txn = Database.begin_txn db in
  check (Alcotest.list Alcotest.int) "exec_in during migration" (expected_for 5)
    (got_seats (rows_of (Lazy_db.exec_in bf txn ~params:(fid 5) sql)));
  Database.commit db txn;
  (* The dropped old table is rejected even though its statement is cached. *)
  Alcotest.check_raises "cached old-schema statement rejected after flip"
    (Db_error.Sql_error
       "relation \"flewon\" was removed by a schema migration; update the client to the new schema")
    (fun () ->
      ignore (Lazy_db.exec bf ~params:[| Value.Str "FL003" |] old_sql : Executor.result));
  (* Drain, finalize (second epoch bump), and re-run the cached statement. *)
  let rec drain () = if Lazy_db.background_step bf ~batch:64 > 0 then drain () in
  drain ();
  check Alcotest.bool "complete" true (Lazy_db.migration_complete bf);
  Lazy_db.finalize bf;
  check (Alcotest.list Alcotest.int) "after finalize: param FL002" (expected_for 2)
    (got_seats (rows_of (Lazy_db.exec bf ~params:(fid 2) sql)));
  check (Alcotest.list Alcotest.int) "after finalize: warm = cold"
    (got_seats (rows_of (cold_auto db ~params:(fid 8) sql)))
    (got_seats (rows_of (Lazy_db.exec bf ~params:(fid 8) sql)))

(* ------------------------------------------------------------------ *)
(* Compiled DML closures                                               *)
(* ------------------------------------------------------------------ *)

let with_counters f =
  let was = Obs.Counters.enabled () in
  Obs.Counters.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.Counters.set_enabled was) f

let counter_delta before after name =
  Option.value ~default:0 (List.assoc_opt name (Obs.Counters.diff after before))

let table_rows db name = sorted_strings (rows_of (cold_auto db ("SELECT * FROM " ^ name)))

let affected = function
  | Executor.Affected n -> n
  | _ -> Alcotest.fail "expected an affected-row count"

(* A statement's outcome, comparable across a warm and a cold run: its
   affected-row count, or the error it raised. *)
let outcome f =
  match f () with
  | r -> Ok (affected r)
  | exception Db_error.Sql_error m -> Error m
  | exception Db_error.Constraint_violation m -> Error m

let outcome_t = Alcotest.(result int string)

let t_ddl = "CREATE TABLE t (a INT PRIMARY KEY, b INT, c INT DEFAULT 0)"

let t_fill = String.concat "; " (List.init 20 (fun i -> Printf.sprintf "INSERT INTO t (a, b) VALUES (%d, %d)" (i + 1) (i mod 4)))

let dml =
  [
    ("INSERT INTO t (a, b) VALUES ($1, $2)", fun k -> [| Value.Int (100 + k); Value.Int (k mod 4) |]);
    ("UPDATE t SET c = c + $2 WHERE b = $1", fun k -> [| Value.Int (k mod 4); Value.Int k |]);
    ("DELETE FROM t WHERE a = $1", fun k -> [| Value.Int k |]);
  ]

(* Runs the UPDATE prepared on [warm] and uncached on [cold]; returns the
   index probes the warm run made: 1 on an index path, 0 on a scan. *)
let update_probes warm cold k =
  let sql, params = List.nth dml 1 in
  ignore (cold_auto cold ~params:(params k) sql : Executor.result);
  Database.with_txn warm (fun txn ->
      ignore (Database.exec_in warm txn ~params:(params k) sql : Executor.result);
      txn.Txn.counters.Txn.index_probes)

(* Prepared UPDATE / DELETE / INSERT before and after each catalog change:
   the cached closures must give what a fresh, uncached [exec_stmt] gives
   on an identical database, and be reused while the epoch holds. *)
let dml_cache_across_ddl () =
  with_counters @@ fun () ->
  List.iter
    (fun (label, setup, ddl, probes_before, probes_after) ->
      let mk () =
        let db = Database.create () in
        ignore (Database.exec_script db (String.concat "; " ([ t_ddl; t_fill ] @ setup)));
        db
      in
      let warm = mk () and cold = mk () in
      let round k =
        List.iter
          (fun (sql, params) ->
            check outcome_t
              (Printf.sprintf "%s: %s [%d]" label sql k)
              (outcome (fun () -> cold_auto cold ~params:(params k) sql))
              (outcome (fun () -> Database.exec warm ~params:(params k) sql)))
          dml;
        check (Alcotest.list Alcotest.string)
          (Printf.sprintf "%s: rows after round %d" label k)
          (table_rows cold "t") (table_rows warm "t")
      in
      round 1;
      let before = Obs.Counters.snapshot () in
      round 2;
      let after = Obs.Counters.snapshot () in
      check Alcotest.int (label ^ ": re-execution hits the cache") 3
        (counter_delta before after "db.plan_cache.hits");
      check Alcotest.int (label ^ ": access path before") probes_before (update_probes warm cold 3);
      List.iter (fun db -> ignore (Database.exec_script db ddl)) [ warm; cold ];
      List.iter round [ 4; 5; 6 ];
      check Alcotest.int (label ^ ": access path after") probes_after (update_probes warm cold 7);
      check (Alcotest.list Alcotest.string) (label ^ ": final rows") (table_rows cold "t")
        (table_rows warm "t"))
    [
      ("CREATE INDEX", [], "CREATE INDEX t_b ON t (b)", 0, 1);
      ("DROP INDEX", [ "CREATE INDEX t_b ON t (b)" ], "DROP INDEX t_b", 1, 0);
      ("ADD COLUMN", [], "ALTER TABLE t ADD COLUMN d INT DEFAULT 7", 0, 0);
      ("DROP + CREATE", [], String.concat "; " [ "DROP TABLE t"; t_ddl; t_fill ], 0, 0);
    ]

(* Statements the cache must not hold — subqueries are evaluated at
   compile time — and ON CONFLICT statements whose conflict target can
   disappear under them. *)
let dml_uncached_shapes () =
  with_counters @@ fun () ->
  let mk () =
    let db = Database.create () in
    ignore (Database.exec_script db (String.concat "; " [ t_ddl; t_fill; "UPDATE t SET c = a"; "CREATE UNIQUE INDEX t_bc ON t (b, c)" ]));
    db
  in
  let warm = mk () and cold = mk () in
  let same label sql params =
    check outcome_t label
      (outcome (fun () -> cold_auto cold ~params sql))
      (outcome (fun () -> Database.exec warm ~params sql));
    check (Alcotest.list Alcotest.string) (label ^ ": rows") (table_rows cold "t") (table_rows warm "t")
  in
  let subquery_sql =
    [
      "INSERT INTO t (a, b, c) VALUES ((SELECT MAX(a) FROM t) + 1, $1, $1)";
      "UPDATE t SET c = c + 1 WHERE b = $1 AND a = (SELECT MIN(a) FROM t)";
      "DELETE FROM t WHERE a = (SELECT MAX(a) FROM t) AND b = $1";
      "UPDATE t SET c = (SELECT MAX(c) FROM t) WHERE a = $1";
      "INSERT INTO t (a, b, c) SELECT a + 1000, b, c + $1 FROM t WHERE a = 5";
    ]
  in
  let before = Obs.Counters.snapshot () in
  for k = 1 to 3 do
    List.iter (fun sql -> same (Printf.sprintf "%s [%d]" sql k) sql [| Value.Int (k + 10) |]) subquery_sql
  done;
  let after = Obs.Counters.snapshot () in
  check Alcotest.int "subquery shapes never cached" 0
    (counter_delta before after "db.plan_cache.hits" + counter_delta before after "db.plan_cache.misses");
  let conflict = "INSERT INTO t (a, b, c) VALUES ($1, $2, $3) ON CONFLICT (b, c) DO NOTHING" in
  let bindings k = [| Value.Int (200 + k); Value.Int (k mod 2); Value.Int ((k mod 3) + 1) |] in
  for k = 1 to 8 do
    same (Printf.sprintf "ON CONFLICT [%d]" k) conflict (bindings k)
  done;
  List.iter (fun db -> ignore (Database.exec db "DROP INDEX t_bc" : Executor.result)) [ warm; cold ];
  same "ON CONFLICT after its target is dropped" conflict (bindings 9)

(* DML cached before a BullFrog flip: closures over a table the migration
   does not touch are recompiled, and DML on the migration's output table
   runs through lazy migration.  The oracle drains its migration first
   and then runs each statement uncached; both sides end fully migrated
   and must hold the same rows. *)
let dml_cache_across_flip () =
  with_counters @@ fun () ->
  let mk () =
    let db = flights_db () in
    ignore (Database.exec db "CREATE TABLE audit (k INT PRIMARY KEY, n INT)" : Executor.result);
    (db, Lazy_db.create db)
  in
  let wdb, wbf = mk () and cdb, cbf = mk () in
  let audit =
    [
      ("INSERT INTO audit VALUES ($1, 0)", fun k -> [| Value.Int k |]);
      ("UPDATE audit SET n = n + $2 WHERE k = $1", fun k -> [| Value.Int (k - 1); Value.Int k |]);
      ("DELETE FROM audit WHERE k = $1", fun k -> [| Value.Int (k - 2) |]);
    ]
  in
  let round stmts k =
    List.iter
      (fun (sql, params) ->
        check outcome_t
          (Printf.sprintf "%s [%d]" sql k)
          (outcome (fun () -> cold_auto cdb ~params:(params k) sql))
          (outcome (fun () -> Lazy_db.exec wbf ~params:(params k) sql)))
      stmts
  in
  List.iter (round audit) [ 1; 2; 3 ];
  let drain bf =
    let rec go () = if Lazy_db.background_step bf ~batch:64 > 0 then go () in
    go ()
  in
  ignore (Lazy_db.start_migration wbf (spec ()) : Migrate_exec.t);
  ignore (Lazy_db.start_migration cbf (spec ()) : Migrate_exec.t);
  drain cbf;
  let before = Obs.Counters.snapshot () in
  round audit 4;
  let mid = Obs.Counters.snapshot () in
  check Alcotest.int "flip: stale closures recompiled" 3 (counter_delta before mid "db.plan_cache.misses");
  round audit 5;
  check Alcotest.int "flip: then reused" 3 (counter_delta mid (Obs.Counters.snapshot ()) "db.plan_cache.hits");
  let fid k = Value.Str (Printf.sprintf "FL%03d" k) in
  let output =
    [
      ("UPDATE flewoninfo SET empty_seats = empty_seats - $2 WHERE fid = $1", fun k -> [| fid k; Value.Int k |]);
      ("DELETE FROM flewoninfo WHERE fid = $1 AND flightdate = '2020-03-02'", fun k -> [| fid (k + 1) |]);
      ("INSERT INTO flewoninfo VALUES ($1, '2020-04-01', $2)", fun k -> [| fid (k + 20); Value.Int k |]);
    ]
  in
  List.iter (round output) [ 1; 4; 6 ];
  check Alcotest.bool "oracle complete" true (Lazy_db.migration_complete cbf);
  check Alcotest.bool "lazy side still migrating" false (Lazy_db.migration_complete wbf);
  drain wbf;
  List.iter
    (fun name ->
      check (Alcotest.list Alcotest.string) (name ^ " after drain") (table_rows cdb name)
        (table_rows wdb name))
    [ "flewoninfo"; "audit" ]

let suite =
  [
    Alcotest.test_case "statement cache hits" `Quick statement_cache_hits;
    Alcotest.test_case "plan reuse across bindings" `Quick params_reused_across_bindings;
    Alcotest.test_case "DDL invalidates cached plan" `Quick ddl_invalidates_plan;
    Alcotest.test_case "migration flip invalidates" `Quick migration_flip_invalidates;
    Alcotest.test_case "DML closures across DDL" `Quick dml_cache_across_ddl;
    Alcotest.test_case "DML shapes left uncached" `Quick dml_uncached_shapes;
    Alcotest.test_case "DML closures across the flip" `Quick dml_cache_across_flip;
  ]
