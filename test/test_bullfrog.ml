(* BullFrog end-to-end: classification, predicate extraction, lazy
   migration semantics on the paper's flights example (§2.1), abort
   handling (§3.5), ON CONFLICT mode (§3.7), page granularity (§4.4.3),
   constraint-driven scope expansion, recovery. *)

open Bullfrog_db
open Bullfrog_core
open Bullfrog_sql

let check = Alcotest.check

let v = Alcotest.testable (Fmt.of_to_string Value.to_string) Value.equal

let count db tbl =
  match Database.query_one db ("SELECT COUNT(*) FROM " ^ tbl) with
  | [| Value.Int n |] -> n
  | _ -> -1

let flights_db ?(flights = 20) ?(days = 5) () =
  let db = Database.create () in
  ignore
    (Database.exec_script db
       {|
    CREATE TABLE flights (flightid CHAR(6) PRIMARY KEY, source CHAR(3), dest CHAR(3),
      airlineid CHAR(2), departure_time TIMESTAMP, arrival_time TIMESTAMP, capacity INT);
    CREATE TABLE flewon (flightid CHAR(6), flightdate DATE, passenger_count INT CHECK (passenger_count > 0));
    CREATE INDEX flewon_flightid_idx ON flewon (flightid);
  |});
  for i = 0 to flights - 1 do
    ignore
      (Database.exec db
         (Printf.sprintf
            "INSERT INTO flights VALUES ('FL%03d','AAA','BBB','XX','2020-01-01 08:00:00','2020-01-01 11:00:00',%d)"
            i (100 + i))
        : Executor.result)
  done;
  for i = 0 to flights - 1 do
    for d = 1 to days do
      ignore
        (Database.exec db
           (Printf.sprintf "INSERT INTO flewon VALUES ('FL%03d','2020-03-%02d',%d)" i d (50 + d))
          : Executor.result)
    done
  done;
  db

let flewoninfo_stmt () =
  Migration.statement_of_sql ~name:"flewoninfo"
    {|CREATE TABLE flewoninfo AS (
      SELECT f.flightid AS fid, flightdate, passenger_count,
             (capacity - passenger_count) AS empty_seats,
             departure_time AS expected_departure_time,
             NULL AS actual_departure_time,
             arrival_time AS expected_arrival_time,
             NULL AS actual_arrival_time
      FROM flights f, flewon fi WHERE f.flightid = fi.flightid)|}
    ~extra_ddl:[ "CREATE INDEX flewoninfo_fid ON flewoninfo (fid)" ]

let flights_spec () =
  Migration.make ~name:"flights_v2" ~drop_old:[ "flewon" ] [ flewoninfo_stmt () ]

(* ---------------- classification ---------------- *)

let classify_fk_pk_join () =
  let db = flights_db () in
  let plans = Classify.classify_statement db.Database.catalog (flewoninfo_stmt ()) in
  check Alcotest.int "two inputs" 2 (List.length plans);
  let flights = List.find (fun p -> p.Classify.ip_table = "flights") plans in
  let flewon = List.find (fun p -> p.Classify.ip_table = "flewon") plans in
  check Alcotest.string "PKIT is 1:n" "1:n"
    (Classify.category_to_string flights.Classify.ip_category);
  check Alcotest.bool "PKIT untracked (option 2)" true
    (flights.Classify.ip_tracking = Classify.T_none);
  check Alcotest.string "FKIT is 1:1" "1:1"
    (Classify.category_to_string flewon.Classify.ip_category);
  check Alcotest.bool "FKIT bitmap" true (flewon.Classify.ip_tracking = Classify.T_bitmap)

let classify_single_table () =
  let db = flights_db () in
  let stmt =
    Migration.statement_of_sql "CREATE TABLE f2 AS (SELECT flightid, capacity FROM flights)"
  in
  (match Classify.classify_statement db.Database.catalog stmt with
  | [ p ] ->
      check Alcotest.string "1:1" "1:1" (Classify.category_to_string p.Classify.ip_category);
      check Alcotest.bool "bitmap" true (p.Classify.ip_tracking = Classify.T_bitmap)
  | _ -> Alcotest.fail "one input expected");
  (* two outputs over the same input = table split = 1:n *)
  let split =
    Migration.split_statement ~name:"split" ~input:"flights"
      ~outputs:[ ("fa", [ "source" ]); ("fb", [ "dest" ]) ]
      ~key:[ "flightid" ] ()
  in
  match Classify.classify_statement db.Database.catalog split with
  | [ p ] ->
      check Alcotest.string "split is 1:n" "1:n"
        (Classify.category_to_string p.Classify.ip_category)
  | _ -> Alcotest.fail "one input expected"

let classify_group_by () =
  let db = flights_db () in
  let stmt =
    Migration.statement_of_sql
      "CREATE TABLE per_flight AS (SELECT flightid, SUM(passenger_count) AS total FROM flewon GROUP BY flightid)"
  in
  match Classify.classify_statement db.Database.catalog stmt with
  | [ p ] ->
      check Alcotest.string "n:1" "n:1" (Classify.category_to_string p.Classify.ip_category);
      check Alcotest.bool "hash tracking on group cols" true
        (p.Classify.ip_tracking = Classify.T_hash [ "flightid" ])
  | _ -> Alcotest.fail "one input expected"

let classify_nn_join () =
  let db = Database.create () in
  ignore
    (Database.exec_script db
       {|CREATE TABLE a (x INT, k INT); CREATE TABLE b (y INT, k INT);|});
  let stmt =
    Migration.statement_of_sql "CREATE TABLE ab AS (SELECT x, y FROM a, b WHERE a.k = b.k)"
  in
  let plans = Classify.classify_statement db.Database.catalog stmt in
  check Alcotest.int "both classified" 2 (List.length plans);
  List.iter
    (fun p ->
      check Alcotest.string "n:n" "n:n" (Classify.category_to_string p.Classify.ip_category))
    plans

let classify_errors () =
  let db = Database.create () in
  ignore (Database.exec_script db "CREATE TABLE a (x INT); CREATE TABLE b (y INT)");
  let cross = Migration.statement_of_sql "CREATE TABLE ab AS (SELECT x, y FROM a, b)" in
  try
    ignore (Classify.classify_statement db.Database.catalog cross);
    Alcotest.fail "cross join without equality must be rejected"
  with Db_error.Sql_error _ -> ()

(* ---------------- predicate extraction ---------------- *)

let extraction () =
  let db = flights_db () in
  let bf = Lazy_db.create db in
  ignore (Lazy_db.start_migration bf (flights_spec ()) : Migrate_exec.t);
  let preds stmt_sql =
    match Lazy_db.interception_preds bf stmt_sql with
    | Some preds -> List.map (fun (table, cp) -> (table, cp.Migrate_exec.cp_where)) preds
    | None -> Alcotest.fail "expected an interception entry"
  in
  (* the paper's example: FID maps to both tables through the join equality *)
  let p = preds "SELECT * FROM flewoninfo WHERE fid = 'FL007' AND EXTRACT(DAY FROM flightdate) = 2" in
  let find t = List.assoc t p in
  (match find "flights" with
  | Some e ->
      let s = Pretty.expr_to_string e in
      if not (String.length s > 0 && s <> "") then Alcotest.fail "empty";
      check Alcotest.bool "flights pred mentions flightid" true
        (String.length s >= 8 &&
         (let rec has i = i + 8 <= String.length s && (String.sub s i 8 = "flightid" || has (i+1)) in has 0))
  | None -> Alcotest.fail "flights should be constrained");
  (match find "flewon" with
  | Some _ -> ()
  | None -> Alcotest.fail "flewon should be constrained");
  (* unconstrained query -> whole tables potentially relevant (None) *)
  let p = preds "SELECT * FROM flewoninfo" in
  check Alcotest.bool "flewon unconstrained" true (List.assoc "flewon" p = None);
  (* UPDATE and DELETE extract from their WHERE *)
  let p = preds "DELETE FROM flewoninfo WHERE fid = 'FL001'" in
  check Alcotest.bool "delete constrained" true (List.assoc "flewon" p <> None);
  (* statements not touching outputs extract nothing *)
  check Alcotest.int "unrelated stmt" 0 (List.length (preds "SELECT * FROM flights"))

(* ---------------- lazy migration semantics ---------------- *)

let lazy_flights_end_to_end () =
  let db = flights_db ~flights:20 ~days:5 () in
  let bf = Lazy_db.create db in
  let rt = Lazy_db.start_migration bf (flights_spec ()) in
  (* logical switch is immediate: output exists and is empty *)
  check Alcotest.int "output empty at switch" 0 (count db "flewoninfo");
  (* big flip rejection *)
  (try
     ignore (Lazy_db.exec bf "SELECT * FROM flewon" : Executor.result);
     Alcotest.fail "old relation must be rejected"
   with Db_error.Sql_error _ -> ());
  (* lazy read migrates exactly the relevant granules *)
  let report = Migrate_exec.new_report () in
  (match Lazy_db.exec bf ~report "SELECT fid, empty_seats FROM flewoninfo WHERE fid = 'FL007'" with
  | Executor.Rows (_, rows) -> check Alcotest.int "query result" 5 (List.length rows)
  | _ -> Alcotest.fail "rows expected");
  check Alcotest.int "only FL007's rows migrated" 5 report.Migrate_exec.r_granules_migrated;
  check Alcotest.int "physical rows" 5 (count db "flewoninfo");
  (* repeat: nothing migrates twice *)
  let report2 = Migrate_exec.new_report () in
  ignore (Lazy_db.exec bf ~report:report2 "SELECT fid FROM flewoninfo WHERE fid = 'FL007'" : Executor.result);
  check Alcotest.int "no re-migration" 0 report2.Migrate_exec.r_granules_migrated;
  check Alcotest.int "already counted" 5 report2.Migrate_exec.r_granules_already;
  (* writes through the new schema work mid-migration *)
  (match
     Lazy_db.exec bf
       "UPDATE flewoninfo SET actual_departure_time = '2020-03-01 08:15:00' WHERE fid = 'FL007'"
   with
  | Executor.Affected 5 -> ()
  | Executor.Affected n -> Alcotest.failf "expected 5 updated, got %d" n
  | _ -> Alcotest.fail "affected expected");
  (* deletes must not resurrect: delete a migrated row, re-query *)
  ignore
    (Lazy_db.exec bf "DELETE FROM flewoninfo WHERE fid = 'FL007' AND EXTRACT(DAY FROM flightdate) = 1"
      : Executor.result);
  (match Lazy_db.exec bf "SELECT * FROM flewoninfo WHERE fid = 'FL007'" with
  | Executor.Rows (_, rows) -> check Alcotest.int "deleted row stays deleted" 4 (List.length rows)
  | _ -> Alcotest.fail "rows");
  (* background completes the rest; totals are exact *)
  let rec drain () = if Lazy_db.background_step bf ~batch:16 > 0 then drain () in
  drain ();
  check Alcotest.bool "complete" true (Lazy_db.migration_complete bf);
  check Alcotest.bool "verified complete" true (Migrate_exec.verify_complete rt);
  check Alcotest.int "exactly once overall" ((20 * 5) - 1) (count db "flewoninfo");
  check (Alcotest.float 0.001) "progress" 1.0 (Lazy_db.progress bf);
  (* finalize drops the old input *)
  Lazy_db.finalize bf;
  check Alcotest.bool "flewon dropped" false (Catalog.exists db.Database.catalog "flewon")

let lazy_insert_conflict_scope () =
  (* INSERT into a keyed output must first migrate conflict candidates
     (§2.1): inserting a row whose key exists in the old schema must
     collide after lazy migration. *)
  let db = flights_db ~flights:5 ~days:1 () in
  let bf = Lazy_db.create db in
  let split =
    Migration.make ~name:"split"
      [
        {
          Migration.stmt_name = "split";
          outputs =
            [
              {
                Migration.out_name = "flights2";
                out_create =
                  Some
                    (Parser.parse_one
                       "CREATE TABLE flights2 (flightid CHAR(6) PRIMARY KEY, capacity INT)");
                out_population = Parser.parse_select "SELECT flightid, capacity FROM flights";
                out_indexes = [];
              };
            ];
        };
      ]
  in
  ignore (Lazy_db.start_migration bf split : Migrate_exec.t);
  (try
     ignore
       (Lazy_db.exec bf "INSERT INTO flights2 VALUES ('FL001', 1)" : Executor.result);
     Alcotest.fail "duplicate key must be detected through lazy migration"
   with Db_error.Constraint_violation _ -> ());
  (* and the probe migrated that granule *)
  check v "conflict candidate was migrated" (Value.Int 1)
    (Database.query_one db "SELECT COUNT(*) FROM flights2 WHERE flightid = 'FL001'").(0);
  (* a genuinely new key inserts fine *)
  match Lazy_db.exec bf "INSERT INTO flights2 VALUES ('ZZ999', 1)" with
  | Executor.Affected 1 -> ()
  | _ -> Alcotest.fail "fresh insert should succeed"

let lazy_abort_injection () =
  let db = flights_db ~flights:10 ~days:2 () in
  let bf = Lazy_db.create db in
  let rt = Lazy_db.start_migration bf (flights_spec ()) in
  (* First migration transaction aborts; Algorithm 1 retries and the final
     state is exactly-once. *)
  let fired = ref 0 in
  rt.Migrate_exec.abort_inject <-
    Some
      (fun () ->
        incr fired;
        !fired = 1);
  let report = Migrate_exec.new_report () in
  (match Lazy_db.exec bf ~report "SELECT * FROM flewoninfo WHERE fid = 'FL003'" with
  | Executor.Rows (_, rows) -> check Alcotest.int "rows after retry" 2 (List.length rows)
  | _ -> Alcotest.fail "rows");
  check Alcotest.int "one abort recorded" 1 report.Migrate_exec.r_aborts;
  check Alcotest.int "granules migrated once" 2 report.Migrate_exec.r_granules_migrated;
  check Alcotest.int "no duplicates" 2 (count db "flewoninfo")

let lazy_on_conflict_mode () =
  let db = flights_db ~flights:10 ~days:3 () in
  let bf = Lazy_db.create db in
  (* ON CONFLICT mode needs a unique key on the output: use a split with PK *)
  let split =
    Migration.make ~name:"split" ~drop_old:[ "flewon" ]
      [
        {
          Migration.stmt_name = "fw2";
          outputs =
            [
              {
                Migration.out_name = "flewon2";
                out_create =
                  Some
                    (Parser.parse_one
                       "CREATE TABLE flewon2 (flightid CHAR(6), flightdate DATE, passenger_count INT, PRIMARY KEY (flightid, flightdate))");
                out_population =
                  Parser.parse_select "SELECT flightid, flightdate, passenger_count FROM flewon";
                out_indexes = [];
              };
            ];
        };
      ]
  in
  ignore (Lazy_db.start_migration ~mode:Migrate_exec.On_conflict bf split : Migrate_exec.t);
  ignore (Lazy_db.exec bf "SELECT * FROM flewon2 WHERE flightid = 'FL001'" : Executor.result);
  check Alcotest.int "migrated via on-conflict" 3 (count db "flewon2");
  ignore (Lazy_db.exec bf "SELECT * FROM flewon2 WHERE flightid = 'FL001'" : Executor.result);
  check Alcotest.int "no duplicates on re-access" 3 (count db "flewon2");
  let rec drain () = if Lazy_db.background_step bf ~batch:64 > 0 then drain () in
  drain ();
  check Alcotest.int "exactly once overall" 30 (count db "flewon2")

let lazy_page_granularity () =
  let db = flights_db ~flights:16 ~days:1 () in
  let bf = Lazy_db.create db in
  let split =
    Migration.make ~name:"split"
      [ Migration.statement_of_sql "CREATE TABLE f2 AS (SELECT flightid, capacity FROM flights)" ]
  in
  ignore (Lazy_db.start_migration ~page_size:4 bf split : Migrate_exec.t);
  let report = Migrate_exec.new_report () in
  ignore (Lazy_db.exec bf ~report "SELECT * FROM f2 WHERE flightid = 'FL005'" : Executor.result);
  (* one granule = a page of 4 tuples: accessing one row drags the page *)
  check Alcotest.int "one page granule" 1 report.Migrate_exec.r_granules_migrated;
  check Alcotest.int "page of rows migrated" 4 (count db "f2")

let recovery_rebuild () =
  let db = flights_db ~flights:10 ~days:2 () in
  let bf = Lazy_db.create db in
  let rt = Lazy_db.start_migration bf (flights_spec ()) in
  ignore (Lazy_db.exec bf "SELECT * FROM flewoninfo WHERE fid = 'FL001'" : Executor.result);
  ignore (Lazy_db.exec bf "SELECT * FROM flewoninfo WHERE fid = 'FL002'" : Executor.result);
  let migrated_before = count db "flewoninfo" in
  check Alcotest.int "some rows migrated" 4 migrated_before;
  (* crash: trackers are volatile; data survives *)
  let rt' = Recovery.simulate_crash rt in
  check Alcotest.bool "fresh trackers are empty" false (Migrate_exec.verify_complete rt');
  let restored = (Recovery.rebuild_report rt' db.Database.redo).Recovery.rb_restored in
  check Alcotest.int "granule statuses restored from the redo log" 4 restored;
  (* the restored tracker prevents re-migration *)
  let report = Migrate_exec.new_report () in
  Migrate_exec.migrate_for_preds rt' report
    (Migrate_exec.compile_preds rt'
       [ ("flewon", Some (Parser.parse_expr "flightid = 'FL001'")); ("flights", None) ]);
  check Alcotest.int "no duplicate migration after recovery" 0
    report.Migrate_exec.r_granules_migrated;
  check Alcotest.int "rows unchanged" migrated_before (count db "flewoninfo")

let suite =
  [
    Alcotest.test_case "classify FK-PK join" `Quick classify_fk_pk_join;
    Alcotest.test_case "classify single table / split" `Quick classify_single_table;
    Alcotest.test_case "classify group by" `Quick classify_group_by;
    Alcotest.test_case "classify n:n join" `Quick classify_nn_join;
    Alcotest.test_case "classify errors" `Quick classify_errors;
    Alcotest.test_case "predicate extraction" `Quick extraction;
    Alcotest.test_case "lazy flights end-to-end" `Quick lazy_flights_end_to_end;
    Alcotest.test_case "insert conflict scope" `Quick lazy_insert_conflict_scope;
    Alcotest.test_case "abort injection" `Quick lazy_abort_injection;
    Alcotest.test_case "on-conflict mode" `Quick lazy_on_conflict_mode;
    Alcotest.test_case "page granularity" `Quick lazy_page_granularity;
    Alcotest.test_case "recovery rebuild" `Quick recovery_rebuild;
  ]
