(* Migration linter (Mig_lint) and its surfacing: TPC-C verdicts,
   overlap auto-switch / reject at install, EXPLAIN MIGRATION, and the
   planner's dead-predicate elimination. *)

open Bullfrog_db
open Bullfrog_core
open Bullfrog_sql
open Bullfrog_tpcc

let check = Alcotest.check

let rows_of = function
  | Executor.Rows (_, rows) -> rows
  | _ -> Alcotest.fail "expected rows"

let explained_of = function
  | Executor.Explained s -> s
  | _ -> Alcotest.fail "expected Explained"

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  ln = 0 || go 0

let tpcc_db () =
  let db = Database.create () in
  Loader.load ~seed:1 db Tpcc_schema.tiny;
  db

let kinds hs = List.map (fun h -> h.Mig_lint.hz_kind) hs

(* ------------------------------------------------------------------ *)
(* TPC-C verdicts                                                      *)
(* ------------------------------------------------------------------ *)

let tpcc_split_verdict () =
  let db = tpcc_db () in
  let v = Tpcc_migrations.preflight db.Database.catalog Tpcc_migrations.Split in
  check Alcotest.bool "action ok" true (v.Mig_lint.lint_action = Mig_lint.Act_ok);
  check Alcotest.int "no hazards" 0 (List.length (Mig_lint.all_hazards v));
  match v.Mig_lint.lint_stmts with
  | [ s ] -> (
      check Alcotest.bool "replicating column split" true
        (s.Mig_lint.sv_partition = Mig_lint.Part_replicating);
      match s.Mig_lint.sv_inputs with
      | [ iv ] ->
          check Alcotest.string "input is customer" "customer" iv.Mig_lint.iv_table;
          check Alcotest.bool "1:n" true (iv.Mig_lint.iv_category = Classify.One_to_many);
          check Alcotest.bool "bitmap tracked" true
            (iv.Mig_lint.iv_tracking = Classify.T_bitmap);
          check Alcotest.bool "precise conversion" true
            (iv.Mig_lint.iv_precision = Mig_lint.Precise)
      | _ -> Alcotest.fail "expected one input")
  | _ -> Alcotest.fail "expected one statement"

let tpcc_aggregate_verdict () =
  let db = tpcc_db () in
  let v = Tpcc_migrations.preflight db.Database.catalog Tpcc_migrations.Aggregate in
  check Alcotest.bool "action ok" true (v.Mig_lint.lint_action = Mig_lint.Act_ok);
  check Alcotest.int "no hazards" 0 (List.length (Mig_lint.all_hazards v));
  match v.Mig_lint.lint_stmts with
  | [ { Mig_lint.sv_inputs = [ iv ]; _ } ] ->
      check Alcotest.bool "n:1" true (iv.Mig_lint.iv_category = Classify.Many_to_one);
      check Alcotest.bool "hash tracked" true
        (match iv.Mig_lint.iv_tracking with Classify.T_hash _ -> true | _ -> false);
      (* SUM(ol_amount) AS ol_total is a computed output column: a query
         predicate over it cannot be converted into input granules. *)
      check
        Alcotest.(list string)
        "imprecise on the aggregate column" [ "ol_total" ]
        (match iv.Mig_lint.iv_precision with
        | Mig_lint.Imprecise cols -> cols
        | Mig_lint.Precise -> [])
  | _ -> Alcotest.fail "expected one statement with one input"

let tpcc_join_verdict () =
  let db = tpcc_db () in
  let v = Tpcc_migrations.preflight db.Database.catalog Tpcc_migrations.Join in
  check Alcotest.bool "action ok" true (v.Mig_lint.lint_action = Mig_lint.Act_ok);
  check Alcotest.int "no errors" 0 (List.length (Mig_lint.errors v));
  (* Both dropped inputs leave columns behind (e.g. ol_dist_info,
     s_data): one lossy-projection warning per dropped table. *)
  let lossy =
    List.filter
      (fun h -> h.Mig_lint.hz_kind = Mig_lint.Lossy_projection)
      (Mig_lint.warnings v)
  in
  check Alcotest.int "lossy projection per dropped table" 2 (List.length lossy);
  check Alcotest.bool "order_line's ol_dist_info flagged" true
    (List.exists (fun h -> contains h.Mig_lint.hz_detail "ol_dist_info") lossy);
  check Alcotest.bool "stock's s_data flagged" true
    (List.exists (fun h -> contains h.Mig_lint.hz_detail "s_data") lossy);
  match v.Mig_lint.lint_stmts with
  | [ { Mig_lint.sv_inputs = inputs; sv_partition; _ } ] ->
      check Alcotest.bool "partition n/a for joins" true
        (sv_partition = Mig_lint.Part_na);
      check Alcotest.int "two inputs" 2 (List.length inputs);
      List.iter
        (fun iv ->
          check Alcotest.bool
            (iv.Mig_lint.iv_table ^ " precise")
            true
            (iv.Mig_lint.iv_precision = Mig_lint.Precise))
        inputs
  | _ -> Alcotest.fail "expected one statement"

(* ------------------------------------------------------------------ *)
(* Classifier error shapes                                             *)
(* ------------------------------------------------------------------ *)

let stmt_of_population name sql =
  {
    Migration.stmt_name = name;
    outputs =
      [
        {
          Migration.out_name = name;
          out_create = None;
          out_population = Parser.parse_select sql;
          out_indexes = [];
        };
      ];
  }

let classify_error_shapes () =
  let db = tpcc_db () in
  let expect_err part stmt =
    match Classify.classify_statement db.Database.catalog stmt with
    | _ -> Alcotest.fail "expected Sql_error"
    | exception Db_error.Sql_error msg ->
        check Alcotest.bool (Printf.sprintf "message mentions %S" part) true
          (contains msg part)
  in
  expect_err "GROUP BY over a join is not supported"
    (stmt_of_population "bad_group"
       "SELECT ol_w_id, SUM(ol_amount) AS t FROM order_line, stock WHERE s_i_id = ol_i_id GROUP BY ol_w_id");
  expect_err "no equality condition"
    (stmt_of_population "bad_join"
       "SELECT ol_i_id, s_i_id FROM order_line, stock WHERE s_quantity > 0");
  (* Mig_lint.lint propagates the same error (install-path behaviour). *)
  match
    Mig_lint.lint db.Database.catalog
      (Migration.make ~name:"bad"
         [ stmt_of_population "bad_join" "SELECT ol_i_id, s_i_id FROM order_line, stock WHERE s_quantity > 0" ])
  with
  | _ -> Alcotest.fail "expected Sql_error from lint"
  | exception Db_error.Sql_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Split hazards at install                                            *)
(* ------------------------------------------------------------------ *)

let mk_split_db () =
  let db = Database.create () in
  ignore
    (Database.exec db "CREATE TABLE t (id INT PRIMARY KEY, v INT NOT NULL)"
      : Executor.result);
  for i = 1 to 20 do
    ignore
      (Database.exec db
         (Printf.sprintf "INSERT INTO t (id, v) VALUES (%d, %d)" i i)
        : Executor.result)
  done;
  db

let split_spec ?(drop = []) ~name lo_where hi_where =
  let out n where =
    {
      Migration.out_name = n;
      out_create = None;
      out_population = Parser.parse_select (Printf.sprintf "SELECT id, v FROM t WHERE %s" where);
      out_indexes = [];
    }
  in
  Migration.make ~name ~drop_old:drop
    [ { Migration.stmt_name = name; outputs = [ out "t_low" lo_where; out "t_high" hi_where ] } ]

let overlap_auto_switches_mode () =
  (* v < 10 and v > 5 overlap on (5, 10): a lazily migrated row may be
     inserted into both outputs, so the switch must fall back to ON CONFLICT. *)
  let spec = split_spec ~name:"overlap" "v < 10" "v > 5" in
  let v = Mig_lint.lint (mk_split_db ()).Database.catalog spec in
  check Alcotest.bool "verdict: on-conflict" true
    (v.Mig_lint.lint_action = Mig_lint.Act_on_conflict);
  check Alcotest.bool "overlap hazard reported" true
    (List.mem Mig_lint.Overlap (kinds (Mig_lint.errors v)));
  let bf = Lazy_db.create (mk_split_db ()) in
  let rt = Lazy_db.start_migration bf spec in
  check Alcotest.bool "mode auto-switched" true (rt.Migrate_exec.mode = Migrate_exec.On_conflict);
  check Alcotest.bool "verdict recorded on runtime" true
    (match rt.Migrate_exec.lint with
    | Some v -> v.Mig_lint.lint_action = Mig_lint.Act_on_conflict
    | None -> false);
  (* A caller that already asked for ON CONFLICT mode keeps it. *)
  let bf = Lazy_db.create (mk_split_db ()) in
  let rt = Lazy_db.start_migration ~mode:Migrate_exec.On_conflict bf spec in
  check Alcotest.bool "explicit on-conflict accepted" true
    (rt.Migrate_exec.mode = Migrate_exec.On_conflict)

let lost_rows_rejected () =
  (* Disjoint but non-covering over a dropped input: rows with
     10 <= v <= 20 would silently vanish at finalize. *)
  let spec = split_spec ~drop:[ "t" ] ~name:"gap" "v < 10" "v > 20" in
  let v = Mig_lint.lint (mk_split_db ()).Database.catalog spec in
  check Alcotest.bool "verdict: reject" true
    (v.Mig_lint.lint_action = Mig_lint.Act_reject);
  check Alcotest.bool "lost-rows hazard" true
    (List.mem Mig_lint.Lost_rows (kinds (Mig_lint.errors v)));
  (let bf = Lazy_db.create (mk_split_db ()) in
   match Lazy_db.start_migration bf spec with
   | _ -> Alcotest.fail "expected the switch to reject a lossy split"
   | exception Db_error.Sql_error msg ->
       check Alcotest.bool "mentions lint" true (contains msg "rejected by lint"));
  (* A single filtered output over the dropped input sheds rows on
     purpose (the paper's own examples do): lint only warns, and the
     migration installs. *)
  let spec =
    Migration.make ~name:"filter" ~drop_old:[ "t" ]
      [ stmt_of_population "t_low" "SELECT id, v FROM t WHERE v < 10" ]
  in
  let bf = Lazy_db.create (mk_split_db ()) in
  let rt = Lazy_db.start_migration bf spec in
  check Alcotest.bool "lost-rows warning recorded" true
    (match rt.Migrate_exec.lint with
    | Some v ->
        v.Mig_lint.lint_action = Mig_lint.Act_ok
        && List.mem Mig_lint.Lost_rows (kinds (Mig_lint.warnings v))
    | None -> false);
  check Alcotest.int "filtered rows migrate" 9
    (List.length (rows_of (Lazy_db.exec bf "SELECT id FROM t_low")))

let covering_split_accepted () =
  (* v < 10 / v >= 10 with v NOT NULL: provably disjoint AND covering,
     so dropping the input is safe and Tracked mode stands. *)
  let spec = split_spec ~drop:[ "t" ] ~name:"halves" "v < 10" "v >= 10" in
  let db = mk_split_db () in
  let v = Mig_lint.lint db.Database.catalog spec in
  check Alcotest.bool "action ok" true (v.Mig_lint.lint_action = Mig_lint.Act_ok);
  check Alcotest.int "no hazards" 0 (List.length (Mig_lint.all_hazards v));
  (match v.Mig_lint.lint_stmts with
  | [ s ] ->
      check Alcotest.bool "partition proven disjoint" true
        (s.Mig_lint.sv_partition = Mig_lint.Part_disjoint)
  | _ -> Alcotest.fail "expected one statement");
  let bf = Lazy_db.create db in
  let rt = Lazy_db.start_migration bf spec in
  check Alcotest.bool "tracked mode kept" true
    (rt.Migrate_exec.mode = Migrate_exec.Tracked);
  (* end-to-end: lazy reads partition the rows with nothing lost *)
  let n_low = List.length (rows_of (Lazy_db.exec bf "SELECT id FROM t_low")) in
  let n_high = List.length (rows_of (Lazy_db.exec bf "SELECT id FROM t_high")) in
  check Alcotest.int "rows partitioned, none lost" 20 (n_low + n_high)

let nullable_split_rejected () =
  (* Same halves but v is nullable: NULL rows satisfy neither side, so
     coverage is not provable and the linter must reject the drop. *)
  let db = Database.create () in
  ignore
    (Database.exec db "CREATE TABLE t (id INT PRIMARY KEY, v INT)" : Executor.result);
  let spec = split_spec ~drop:[ "t" ] ~name:"halves" "v < 10" "v >= 10" in
  let v = Mig_lint.lint db.Database.catalog spec in
  check Alcotest.bool "nullable column breaks coverage" true
    (v.Mig_lint.lint_action = Mig_lint.Act_reject)

let constraint_narrowing_warns () =
  let db = Database.create () in
  ignore
    (Database.exec db "CREATE TABLE t (id INT PRIMARY KEY, v INT)" : Executor.result);
  let spec =
    Migration.make ~name:"narrow"
      [
        {
          Migration.stmt_name = "narrow";
          outputs =
            [
              {
                Migration.out_name = "t2";
                out_create =
                  Some
                    (Parser.parse_one
                       "CREATE TABLE t2 (id INT, v INT NOT NULL, PRIMARY KEY (v))");
                out_population = Parser.parse_select "SELECT id, v FROM t";
                out_indexes = [];
              };
            ];
        };
      ]
  in
  let v = Mig_lint.lint db.Database.catalog spec in
  let warns = kinds (Mig_lint.warnings v) in
  (* v may be NULL in the input (NOT NULL narrowing) and carries no
     uniqueness guarantee (PRIMARY KEY narrowing). *)
  check Alcotest.int "two narrowing warnings" 2
    (List.length (List.filter (( = ) Mig_lint.Constraint_narrowing) warns));
  check Alcotest.bool "still installable" true
    (v.Mig_lint.lint_action = Mig_lint.Act_ok)

(* ------------------------------------------------------------------ *)
(* EXPLAIN MIGRATION                                                   *)
(* ------------------------------------------------------------------ *)

let explain_migration_exec () =
  let db = tpcc_db () in
  let bf = Lazy_db.create db in
  let out =
    explained_of
      (Lazy_db.exec bf
         "EXPLAIN MIGRATION CREATE TABLE hot AS (SELECT c_w_id, SUM(c_balance) AS bal FROM customer GROUP BY c_w_id)")
  in
  check Alcotest.bool "names the migration" true (contains out "migration \"hot\"");
  check Alcotest.bool "per-input verdict line" true (contains out "input customer");
  check Alcotest.bool "imprecise aggregate column" true
    (contains out "imprecise (fallback on bal)");
  check Alcotest.bool "analysis only: no migration started" true
    (Lazy_db.active bf = None);
  (* the statement analyses but never executes: no table appears *)
  check Alcotest.bool "no output table created" false
    (Catalog.exists db.Database.catalog "hot");
  (* plain engine (no BullFrog session) degrades gracefully *)
  let plain = Database.create () in
  check Alcotest.bool "plain engine message" true
    (contains
       (explained_of (Database.exec plain "EXPLAIN MIGRATION CREATE TABLE x AS (SELECT 1 AS a)"))
       "BullFrog session")

(* ------------------------------------------------------------------ *)
(* Plan lint: dead predicates, implied residuals, fullscan watch       *)
(* ------------------------------------------------------------------ *)

let plan_lint_empty_scan () =
  let db = Database.create () in
  ignore (Database.exec db "CREATE TABLE t (a INT PRIMARY KEY, b INT)" : Executor.result);
  ignore (Database.exec db "INSERT INTO t (a, b) VALUES (1, 7)" : Executor.result);
  let plan = explained_of (Database.exec db "EXPLAIN SELECT * FROM t WHERE b < 5 AND b > 9") in
  check Alcotest.bool "empty scan node" true (contains plan "Empty Scan");
  check Alcotest.int "no rows, no scan" 0
    (List.length (rows_of (Database.exec db "SELECT * FROM t WHERE b < 5 AND b > 9")));
  let plan = explained_of (Database.exec db "EXPLAIN SELECT * FROM t WHERE 1 = 2") in
  check Alcotest.bool "constant contradiction" true (contains plan "Empty Scan");
  (* sanity: a satisfiable predicate still scans *)
  check Alcotest.int "satisfiable twin returns the row" 1
    (List.length (rows_of (Database.exec db "SELECT * FROM t WHERE b > 5 AND b < 9")))

let plan_lint_residual_drop () =
  let db = Database.create () in
  ignore (Database.exec db "CREATE TABLE t (a INT PRIMARY KEY, b INT)" : Executor.result);
  ignore (Database.exec db "INSERT INTO t (a, b) VALUES (3, 7)" : Executor.result);
  (* a = 3 pins the index probe; a > 0 is implied and must not survive
     as a Filter node. *)
  let plan = explained_of (Database.exec db "EXPLAIN SELECT * FROM t WHERE a = 3 AND a > 0") in
  check Alcotest.bool "index scan" true (contains plan "Index Scan");
  check Alcotest.bool "implied residual dropped" false (contains plan "Filter");
  check Alcotest.int "answer unchanged" 1
    (List.length (rows_of (Database.exec db "SELECT * FROM t WHERE a = 3 AND a > 0")));
  (* a non-implied residual stays *)
  let plan = explained_of (Database.exec db "EXPLAIN SELECT * FROM t WHERE a = 3 AND b > 9") in
  check Alcotest.bool "real residual kept" true (contains plan "Filter")

let plan_lint_fullscan_watch () =
  let was = Obs.Counters.enabled () in
  Obs.Counters.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.Counters.set_enabled was) @@ fun () ->
  let c = Obs.Counters.make "analysis.plan.fullscan_under_migration" in
  let db = Database.create () in
  ignore (Database.exec db "CREATE TABLE t (id INT PRIMARY KEY, v INT NOT NULL)" : Executor.result);
  ignore (Database.exec db "INSERT INTO t (id, v) VALUES (1, 1)" : Executor.result);
  let bf = Lazy_db.create db in
  let spec =
    Migration.make ~name:"copy"
      [ stmt_of_population "t2" "SELECT id, v FROM t" ]
  in
  ignore (Lazy_db.start_migration bf spec : Migrate_exec.t);
  let v0 = Obs.Counters.value c in
  ignore (Lazy_db.exec bf "SELECT * FROM t2" : Executor.result);
  check Alcotest.bool "full scan over live output counted" true
    (Obs.Counters.value c > v0);
  (* after finalize the watch is disarmed *)
  Lazy_db.finalize bf;
  let v1 = Obs.Counters.value c in
  ignore (Lazy_db.exec bf "SELECT * FROM t2" : Executor.result);
  check Alcotest.int "watch cleared on finalize" v1 (Obs.Counters.value c)

let suite =
  [
    Alcotest.test_case "tpcc: split verdict" `Quick tpcc_split_verdict;
    Alcotest.test_case "tpcc: aggregate verdict" `Quick tpcc_aggregate_verdict;
    Alcotest.test_case "tpcc: join verdict" `Quick tpcc_join_verdict;
    Alcotest.test_case "classifier error shapes" `Quick classify_error_shapes;
    Alcotest.test_case "overlap: auto-switch / caller mode" `Quick
      overlap_auto_switches_mode;
    Alcotest.test_case "lost rows: reject / warn" `Quick lost_rows_rejected;
    Alcotest.test_case "covering split accepted" `Quick covering_split_accepted;
    Alcotest.test_case "nullable split rejected" `Quick nullable_split_rejected;
    Alcotest.test_case "constraint narrowing warns" `Quick constraint_narrowing_warns;
    Alcotest.test_case "EXPLAIN MIGRATION" `Quick explain_migration_exec;
    Alcotest.test_case "plan lint: empty scan" `Quick plan_lint_empty_scan;
    Alcotest.test_case "plan lint: residual drop" `Quick plan_lint_residual_drop;
    Alcotest.test_case "plan lint: fullscan watch" `Quick plan_lint_fullscan_watch;
  ]
