(* End-to-end SQL engine tests: DDL, DML, SELECT (joins, aggregates,
   views, pushdown), constraints, EXPLAIN, access paths. *)

open Bullfrog_db

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let check = Alcotest.check

let v = Alcotest.testable (Fmt.of_to_string Value.to_string) Value.equal

let rows db ?params sql = Database.query db ?params sql

let one db ?params sql = Database.query_one db ?params sql

let affected db ?params sql =
  match Database.exec db ?params sql with
  | Executor.Affected n -> n
  | _ -> Alcotest.fail "expected Affected"

let fresh () =
  let db = Database.create () in
  ignore
    (Database.exec_script db
       {|
    CREATE TABLE dept (d_id INT PRIMARY KEY, d_name TEXT);
    CREATE TABLE emp (e_id INT PRIMARY KEY, e_dept INT, e_name TEXT,
                      e_salary DECIMAL(10,2), e_hired DATE,
                      FOREIGN KEY (e_dept) REFERENCES dept (d_id));
    CREATE INDEX emp_dept ON emp (e_dept);
    INSERT INTO dept VALUES (1, 'eng'), (2, 'ops'), (3, 'empty');
    INSERT INTO emp VALUES
      (1, 1, 'ada', 120, '2019-01-15'),
      (2, 1, 'bob', 95,  '2020-06-01'),
      (3, 2, 'cyd', 80,  '2021-03-09'),
      (4, 2, 'dee', 80,  '2018-11-20');
  |});
  db

let select_basics () =
  let db = fresh () in
  check Alcotest.int "count" 4 (List.length (rows db "SELECT * FROM emp"));
  check v "point read" (Value.Str "ada")
    (one db "SELECT e_name FROM emp WHERE e_id = 1").(0);
  check Alcotest.int "filter" 2
    (List.length (rows db "SELECT * FROM emp WHERE e_salary < 90"));
  check v "expr projection" (Value.Float 240.0)
    (one db "SELECT e_salary * 2 FROM emp WHERE e_name = 'ada'").(0);
  check Alcotest.int "params" 2
    (List.length (rows db ~params:[| Value.Int 2 |] "SELECT * FROM emp WHERE e_dept = $1"))

let select_order_limit_distinct () =
  let db = fresh () in
  let names = rows db "SELECT e_name FROM emp ORDER BY e_salary DESC, e_name ASC LIMIT 3" in
  check
    (Alcotest.list Alcotest.string)
    "order/limit"
    [ "ada"; "bob"; "cyd" ]
    (List.map (fun r -> Value.to_string r.(0)) names);
  check Alcotest.int "distinct" 3
    (List.length (rows db "SELECT DISTINCT e_salary FROM emp"));
  (* ORDER BY on a projected alias *)
  let r = rows db "SELECT e_salary * 2 AS d FROM emp ORDER BY d DESC LIMIT 1" in
  check v "alias sort" (Value.Float 240.0) (List.hd r).(0)

let joins () =
  let db = fresh () in
  let r =
    rows db
      "SELECT e_name, d_name FROM emp, dept WHERE e_dept = d_id AND d_name = 'eng' ORDER BY e_name"
  in
  check Alcotest.int "join rows" 2 (List.length r);
  check Alcotest.string "join cols" "ada eng"
    (String.concat " " (Array.to_list (Array.map Value.to_string (List.hd r))));
  (* cross product *)
  check Alcotest.int "cross" 12 (List.length (rows db "SELECT * FROM emp, dept"));
  (* join with extra filter (residual) *)
  check Alcotest.int "join + residual" 1
    (List.length
       (rows db
          "SELECT e_name FROM emp e, dept d WHERE e.e_dept = d.d_id AND d.d_name = 'eng' AND e.e_salary > 100"))

let aggregates () =
  let db = fresh () in
  let r = one db "SELECT COUNT(*), SUM(e_salary), MIN(e_salary), MAX(e_salary), AVG(e_salary) FROM emp" in
  check v "count" (Value.Int 4) r.(0);
  check v "sum" (Value.Float 375.0) r.(1);
  check v "min" (Value.Float 80.0) r.(2);
  check v "max" (Value.Float 120.0) r.(3);
  check v "avg" (Value.Float 93.75) r.(4);
  let g =
    rows db
      "SELECT e_dept, COUNT(*), SUM(e_salary) FROM emp GROUP BY e_dept ORDER BY e_dept"
  in
  check Alcotest.int "groups" 2 (List.length g);
  check v "group sum" (Value.Float 215.0) (List.hd g).(2);
  (* HAVING *)
  check Alcotest.int "having" 1
    (List.length
       (rows db "SELECT e_dept FROM emp GROUP BY e_dept HAVING SUM(e_salary) > 200"));
  (* COUNT(DISTINCT x) *)
  check v "count distinct" (Value.Int 3)
    (one db "SELECT COUNT(DISTINCT (e_salary)) FROM emp").(0);
  (* aggregate over empty input *)
  let e = one db "SELECT COUNT(*), SUM(e_salary) FROM emp WHERE e_salary > 1000" in
  check v "count empty" (Value.Int 0) e.(0);
  check v "sum empty is null" Value.Null e.(1)

(* SUM and AVG feed no boxed float per row: each global aggregate
   allocates exactly the same minor words over N and over 4N rows.  The
   least of three warm runs keeps another thread's allocation out of
   the count. *)
let sum_avg_words_per_row () =
  let db = Database.create () in
  ignore
    (Database.exec db "CREATE TABLE g (k INT PRIMARY KEY, w INT, f FLOAT)"
      : Executor.result);
  let load lo hi =
    for k = lo to hi - 1 do
      ignore
        (Database.exec db
           ~params:[| Value.Int k; Value.Int (k mod 97); Value.Float (float_of_int k /. 4.0) |]
           "INSERT INTO g VALUES ($1, $2, $3)"
          : Executor.result)
    done
  in
  let words sql =
    let run () = ignore (Database.exec db sql : Executor.result) in
    run ();
    let best = ref infinity in
    for _ = 1 to 3 do
      let w0 = Gc.minor_words () in
      run ();
      best := Float.min !best (Gc.minor_words () -. w0)
    done;
    !best
  in
  let sqls =
    [ "SELECT SUM(w), MAX(w) FROM g"; "SELECT AVG(w) FROM g"; "SELECT SUM(f), AVG(f) FROM g" ]
  in
  let n = 1000 in
  load 0 n;
  let at_n = List.map words sqls in
  load n (4 * n);
  let at_4n = List.map words sqls in
  List.iteri
    (fun i sql ->
      check (Alcotest.float 0.0) (sql ^ ": minor words per row") 0.0
        ((List.nth at_4n i -. List.nth at_n i) /. float_of_int (3 * n)))
    sqls;
  let isum = ref 0 and fsum = ref 0.0 in
  for k = 0 to (4 * n) - 1 do
    isum := !isum + (k mod 97);
    fsum := !fsum +. (float_of_int k /. 4.0)
  done;
  let r = one db "SELECT SUM(w), AVG(w), SUM(f) FROM g" in
  check v "int sum" (Value.Int !isum) r.(0);
  check v "int avg" (Value.Float (float_of_int !isum /. float_of_int (4 * n))) r.(1);
  check v "float sum" (Value.Float !fsum) r.(2)

let dml () =
  let db = fresh () in
  check Alcotest.int "insert" 1 (affected db "INSERT INTO emp VALUES (5, 1, 'eve', 70, '2022-01-01')");
  check Alcotest.int "update" 2 (affected db "UPDATE emp SET e_salary = e_salary + 1 WHERE e_dept = 2");
  check v "updated" (Value.Float 81.0)
    (one db "SELECT e_salary FROM emp WHERE e_id = 3").(0);
  check Alcotest.int "delete" 1 (affected db "DELETE FROM emp WHERE e_id = 5");
  check Alcotest.int "count after" 4 (List.length (rows db "SELECT * FROM emp"));
  (* insert with column list and defaults *)
  ignore
    (Database.exec db "CREATE TABLE t (a INT, b INT DEFAULT 9, c TEXT)" : Executor.result);
  check Alcotest.int "partial insert" 1 (affected db "INSERT INTO t (a) VALUES (1)");
  let r = one db "SELECT a, b, c FROM t" in
  check v "default applied" (Value.Int 9) r.(1);
  check v "missing col null" Value.Null r.(2)

let constraints () =
  let db = fresh () in
  let expect_violation sql =
    try
      ignore (Database.exec db sql : Executor.result);
      Alcotest.failf "expected violation: %s" sql
    with Db_error.Constraint_violation _ -> ()
  in
  expect_violation "INSERT INTO emp VALUES (1, 1, 'dup', 1, '2020-01-01')";
  expect_violation "INSERT INTO emp VALUES (9, 99, 'orphan', 1, '2020-01-01')";
  (* NULL FK passes *)
  check Alcotest.int "null fk ok" 1
    (affected db "INSERT INTO emp VALUES (9, NULL, 'contractor', 1, '2020-01-01')");
  (* NOT NULL *)
  ignore (Database.exec db "CREATE TABLE nn (a INT NOT NULL)" : Executor.result);
  expect_violation "INSERT INTO nn VALUES (NULL)";
  (* CHECK *)
  ignore (Database.exec db "CREATE TABLE ck (a INT CHECK (a > 0))" : Executor.result);
  expect_violation "INSERT INTO ck VALUES (0)";
  check Alcotest.int "check passes" 1 (affected db "INSERT INTO ck VALUES (1)");
  (* CHECK is not violated by NULL (SQL semantics) *)
  check Alcotest.int "check null passes" 1 (affected db "INSERT INTO ck VALUES (NULL)");
  (* ON CONFLICT DO NOTHING *)
  check Alcotest.int "conflict skipped" 0
    (affected db "INSERT INTO emp VALUES (1, 1, 'dup', 1, '2020-01-01') ON CONFLICT DO NOTHING");
  (* violation inside a txn rolls the whole statement's effects back *)
  let before = List.length (rows db "SELECT * FROM emp") in
  (try
     ignore
       (Database.exec db
          "INSERT INTO emp VALUES (20, 1, 'ok', 1, '2020-01-01'), (1, 1, 'dup', 1, '2020-01-01')"
         : Executor.result)
   with Db_error.Constraint_violation _ -> ());
  check Alcotest.int "atomic multi-row insert" before (List.length (rows db "SELECT * FROM emp"))

let views_and_pushdown () =
  let db = fresh () in
  ignore
    (Database.exec db
       "CREATE VIEW rich AS (SELECT e_name AS n, e_salary AS s, e_dept FROM emp WHERE e_salary >= 90)"
      : Executor.result);
  let r = rows db "SELECT n FROM rich WHERE s > 100" in
  check Alcotest.int "view rows" 1 (List.length r);
  (* view over view *)
  ignore (Database.exec db "CREATE VIEW rich_eng AS (SELECT n, s FROM rich WHERE e_dept = 1)" : Executor.result);
  check Alcotest.int "nested view" 2 (List.length (rows db "SELECT * FROM rich_eng"));
  (* EXPLAIN shows the pushed filter reaching the base table via an index *)
  let plan = Database.explain db "SELECT n FROM rich WHERE e_dept = 2" in
  if not (contains plan "emp_dept") then
    Alcotest.failf "expected pushed filter to pick emp_dept index:\n%s" plan

(* A [$n] bound on a join column copies across the join equality the way
   a literal does: the other side gets the conjunct and probes its index. *)
let explain_param_join_copies_conjunct () =
  let db = Database.create () in
  ignore
    (Database.exec_script db
       "CREATE TABLE pa (k INT, x INT); CREATE TABLE pb (k INT, y INT); CREATE INDEX pb_k ON pb (k)");
  List.iter
    (fun sql -> ignore (Database.exec db sql : Executor.result))
    [ "INSERT INTO pa VALUES (3, 30)"; "INSERT INTO pa VALUES (4, 40)";
      "INSERT INTO pb VALUES (3, 300)"; "INSERT INTO pb VALUES (4, 400)" ];
  let sql = "SELECT x, y FROM pa, pb WHERE pa.k = pb.k AND pa.k = $1" in
  (match Database.exec db ~params:[| Value.Int 3 |] ("EXPLAIN " ^ sql) with
  | Executor.Explained plan ->
      if not (contains plan "Index Scan using pb_k on pb" && contains plan "Index Cond: ($1)")
      then Alcotest.failf "expected the copied pb.k = $1 to probe pb_k:\n%s" plan
  | _ -> Alcotest.fail "EXPLAIN returned no plan");
  check Alcotest.int "parameterized join rows" 1
    (List.length (Database.query db ~params:[| Value.Int 3 |] sql))

let explain_minmax_and_range () =
  let db = Database.create () in
  ignore
    (Database.exec_script db
       {|
    CREATE TABLE o (w INT, d INT, id INT, x INT);
    CREATE INDEX o_ord ON o USING ordered (w, d, id);
  |});
  for i = 1 to 50 do
    ignore
      (Database.exec db
         (Printf.sprintf "INSERT INTO o VALUES (1, %d, %d, %d)" (1 + (i mod 2)) i (i * 10)))
  done;
  check v "min via ordered index" (Value.Int 2)
    (one db "SELECT MIN(id) FROM o WHERE w = 1 AND d = 1").(0);
  check v "max via ordered index" (Value.Int 49)
    (one db "SELECT MAX(id) FROM o WHERE w = 1 AND d = 2").(0);
  let plan = Database.explain db "SELECT MIN(id) FROM o WHERE w = 1 AND d = 1" in
  if not (contains plan "Index Min") then
    Alcotest.failf "MIN should use the ordered index:\n%s" plan;
  (* range scan *)
  let r = rows db "SELECT id FROM o WHERE w = 1 AND d = 1 AND id >= 10 AND id < 20" in
  check Alcotest.int "range rows" 5 (List.length r);
  let plan = Database.explain db "SELECT id FROM o WHERE w = 1 AND d = 1 AND id >= 10 AND id < 20" in
  if not (contains plan "Index Range Scan") then
    Alcotest.failf "range should use the ordered index:\n%s" plan;
  (* correctness equals a full scan *)
  let expected =
    rows db "SELECT id FROM o WHERE w + 0 = 1 AND d = 1 AND id >= 10 AND id < 20"
  in
  check Alcotest.int "range matches seq scan" (List.length expected) (List.length r)

let ddl_alter () =
  let db = fresh () in
  ignore (Database.exec db "ALTER TABLE dept ADD COLUMN floor INT DEFAULT 2" : Executor.result);
  check v "existing rows widened" (Value.Int 2)
    (one db "SELECT floor FROM dept WHERE d_id = 1").(0);
  ignore (Database.exec db "ALTER TABLE dept DROP COLUMN floor" : Executor.result);
  (try
     ignore (rows db "SELECT floor FROM dept");
     Alcotest.fail "column should be gone"
   with Db_error.Sql_error _ -> ());
  (* dropping an indexed column is refused *)
  (try
     ignore (Database.exec db "ALTER TABLE emp DROP COLUMN e_dept" : Executor.result);
     Alcotest.fail "expected refusal"
   with Db_error.Sql_error _ -> ());
  ignore (Database.exec db "ALTER TABLE dept RENAME TO department" : Executor.result);
  check Alcotest.int "renamed" 3 (List.length (rows db "SELECT * FROM department"));
  ignore (Database.exec db "ALTER TABLE department RENAME COLUMN d_name TO name" : Executor.result);
  check Alcotest.int "renamed col" 1
    (List.length (rows db "SELECT name FROM department WHERE name = 'eng'"));
  (* ADD CONSTRAINT validates existing rows *)
  (try
     ignore
       (Database.exec db "ALTER TABLE emp ADD CONSTRAINT pos CHECK (e_salary > 100)"
         : Executor.result);
     Alcotest.fail "check over existing rows must fail"
   with Db_error.Constraint_violation _ -> ());
  ignore
    (Database.exec db "ALTER TABLE emp ADD CONSTRAINT pos CHECK (e_salary > 0)" : Executor.result);
  (try
     ignore (Database.exec db "UPDATE emp SET e_salary = -1 WHERE e_id = 1" : Executor.result);
     Alcotest.fail "new check must be enforced"
   with Db_error.Constraint_violation _ -> ());
  ignore (Database.exec db "ALTER TABLE emp DROP CONSTRAINT pos" : Executor.result);
  check Alcotest.int "constraint dropped" 1
    (affected db "UPDATE emp SET e_salary = -1 WHERE e_id = 1")

let create_table_as_and_drop () =
  let db = fresh () in
  (match Database.exec db "CREATE TABLE emp2 AS (SELECT e_name, e_salary FROM emp WHERE e_dept = 1)" with
  | Executor.Done _ -> ()
  | _ -> Alcotest.fail "expected Done");
  check Alcotest.int "materialised" 2 (List.length (rows db "SELECT * FROM emp2"));
  ignore (Database.exec db "DROP TABLE emp2" : Executor.result);
  (try
     ignore (rows db "SELECT * FROM emp2");
     Alcotest.fail "dropped"
   with Db_error.Sql_error _ -> ());
  ignore (Database.exec db "DROP TABLE IF EXISTS emp2" : Executor.result);
  (* index names leave with a dropped table and follow a renamed one *)
  ignore
    (Database.exec_script db
       "CREATE TABLE k (a INT PRIMARY KEY); CREATE INDEX k_a ON k (a); DROP TABLE k; \
        CREATE TABLE k (a INT PRIMARY KEY); CREATE INDEX k_a ON k (a); \
        ALTER TABLE k RENAME TO k_old; DROP INDEX k_a"
      : Executor.result list);
  let k_old = Catalog.find_table_exn db.Database.catalog "k_old" in
  check Alcotest.bool "index dropped from the renamed table" true
    (Heap.find_index k_old "k_a" = None);
  ignore
    (Database.exec_script db "DROP TABLE k_old; CREATE TABLE k (a INT PRIMARY KEY)"
      : Executor.result list)

let transactions () =
  let db = fresh () in
  (* explicit rollback restores data and indexes *)
  (try
     Database.with_txn db (fun txn ->
         ignore
           (Database.exec_in db txn "UPDATE emp SET e_salary = 0 WHERE e_id = 1"
             : Executor.result);
         ignore
           (Database.exec_in db txn "INSERT INTO emp VALUES (50, 1, 'tmp', 1, '2020-01-01')"
             : Executor.result);
         failwith "boom")
   with Failure _ -> ());
  check v "update rolled back" (Value.Float 120.0)
    (one db "SELECT e_salary FROM emp WHERE e_id = 1").(0);
  check Alcotest.int "insert rolled back" 0
    (List.length (rows db "SELECT * FROM emp WHERE e_id = 50"));
  check Alcotest.int "pk usable after rollback" 1
    (affected db "INSERT INTO emp VALUES (50, 1, 'tmp', 1, '2020-01-01')")

let redo_log_records () =
  let db = fresh () in
  let before = Redo_log.length db.Database.redo in
  ignore (Database.exec db "INSERT INTO dept VALUES (9, 'new')" : Executor.result);
  check Alcotest.int "commit logged" (before + 1) (Redo_log.length db.Database.redo);
  (* aborted txns are not logged *)
  (try
     Database.with_txn db (fun txn ->
         ignore (Database.exec_in db txn "INSERT INTO dept VALUES (10, 'x')" : Executor.result);
         failwith "boom")
   with Failure _ -> ());
  check Alcotest.int "abort not logged" (before + 1) (Redo_log.length db.Database.redo);
  (* read-only txns are not logged *)
  ignore (rows db "SELECT * FROM dept");
  check Alcotest.int "read-only not logged" (before + 1) (Redo_log.length db.Database.redo)

let scalar_subqueries () =
  let db = fresh () in
  check v "scalar" (Value.Int 4) (one db "SELECT (SELECT COUNT(*) FROM emp)").(0);
  check Alcotest.int "exists true" 4
    (List.length (rows db "SELECT e_id FROM emp WHERE EXISTS (SELECT d_id FROM dept)"));
  check Alcotest.int "exists false" 0
    (List.length
       (rows db "SELECT e_id FROM emp WHERE EXISTS (SELECT d_id FROM dept WHERE d_id > 99)"))

let error_reporting () =
  let db = fresh () in
  let expect_sql_error sql =
    try
      ignore (Database.exec db sql : Executor.result);
      Alcotest.failf "expected Sql_error: %s" sql
    with Db_error.Sql_error _ -> ()
  in
  expect_sql_error "SELECT nope FROM emp";
  expect_sql_error "SELECT * FROM nope";
  expect_sql_error "SELECT e_id FROM emp, dept WHERE d_id = d_id AND e_id = e_id GROUP BY e_id HAVING nope > 1";
  expect_sql_error "SELECT e_name FROM emp GROUP BY e_dept";
  expect_sql_error "INSERT INTO emp (e_id) VALUES (1, 2)";
  expect_sql_error "CREATE TABLE dept (a INT)"

let suite =
  [
    Alcotest.test_case "select basics" `Quick select_basics;
    Alcotest.test_case "order/limit/distinct" `Quick select_order_limit_distinct;
    Alcotest.test_case "joins" `Quick joins;
    Alcotest.test_case "aggregates" `Quick aggregates;
    Alcotest.test_case "SUM/AVG allocate nothing per row" `Quick sum_avg_words_per_row;
    Alcotest.test_case "dml" `Quick dml;
    Alcotest.test_case "constraints" `Quick constraints;
    Alcotest.test_case "views + pushdown" `Quick views_and_pushdown;
    Alcotest.test_case "ordered-index min/max/range plans" `Quick explain_minmax_and_range;
    Alcotest.test_case "parameterized join copies the conjunct" `Quick
      explain_param_join_copies_conjunct;
    Alcotest.test_case "alter table" `Quick ddl_alter;
    Alcotest.test_case "create table as / drop" `Quick create_table_as_and_drop;
    Alcotest.test_case "transactions" `Quick transactions;
    Alcotest.test_case "redo log" `Quick redo_log_records;
    Alcotest.test_case "scalar subqueries" `Quick scalar_subqueries;
    Alcotest.test_case "error reporting" `Quick error_reporting;
  ]
