(* When a write's constants are coerced to their column types.  A
   compiled INSERT or UPDATE coerces each literal once, when it
   compiles, but a literal that does not coerce must still fail where
   coercing the row would have failed: at that row's turn, after the
   rows before it, never at prepare time and never when no row is
   written. *)

open Bullfrog_db

let check = Alcotest.check

let exec db ?params sql = ignore (Database.exec db ?params sql : Executor.result)

let sql_error f =
  match f () with
  | _ -> None
  | exception Db_error.Sql_error msg -> Some msg

let setup () =
  let db = Database.create () in
  exec db "CREATE TABLE c (k INT PRIMARY KEY, ts TIMESTAMP, s CHAR(3))";
  db

let count db = List.length (Database.query db "SELECT k FROM c")

let bad_ts = "column \"ts\" of c: cannot coerce string value garbage to TIMESTAMP"

(* Row 2's bad literal raises after row 1 was written, with the
   message coercing row 2 gives; the same when row 1's values are
   parameters. *)
let bad_constant_in_row_two () =
  List.iter
    (fun (sql, params) ->
      let db = setup () in
      let txn = Database.begin_txn db in
      let err =
        sql_error (fun () -> Database.exec_in db txn ~params sql)
      in
      check (Alcotest.option Alcotest.string) (sql ^ ": error") (Some bad_ts) err;
      check Alcotest.int (sql ^ ": rows_written") 1 txn.Txn.counters.Txn.rows_written;
      Database.abort db txn;
      check Alcotest.int (sql ^ ": nothing left after abort") 0 (count db))
    [
      ("INSERT INTO c VALUES (1, '2020-06-01 00:00:00', 'a'), (2, 'garbage', 'b')", [||]);
      ("INSERT INTO c VALUES ($1, $2, $3), (2, 'garbage', 'b')",
       [| Value.Int 1; Value.Str "2020-06-01 00:00:00"; Value.Str "a" |]);
      ("INSERT INTO c (k, ts) VALUES (1, '2020-06-01'), (2, 'garbage')", [||]);
    ];
  (* an evaluation error anywhere still comes before any row is written *)
  let db = setup () in
  let txn = Database.begin_txn db in
  (match Database.exec_in db txn "INSERT INTO c VALUES (1, 'garbage', 'a'), (2, NULL, 1 / 0)" with
  | _ -> Alcotest.fail "expected an evaluation error"
  | exception Expr.Eval_error msg -> check Alcotest.string "evaluation error first" "division by zero" msg);
  check Alcotest.int "no row written before it" 0 txn.Txn.counters.Txn.rows_written;
  Database.abort db txn

(* A bad literal in SET costs nothing while no row matches, and fails
   on the first row that does. *)
let update_without_rows () =
  let db = setup () in
  exec db "INSERT INTO c VALUES (1, '2020-06-01 00:00:00', 'a')";
  List.iter
    (fun sql ->
      match Database.exec db sql with
      | Executor.Affected n -> check Alcotest.int (sql ^ ": no row") 0 n
      | _ -> Alcotest.fail "expected Affected")
    [ "UPDATE c SET ts = 'garbage' WHERE false"; "UPDATE c SET ts = 'garbage' WHERE k = 99" ];
  check (Alcotest.option Alcotest.string) "a matching row fails" (Some bad_ts)
    (sql_error (fun () -> Database.exec db "UPDATE c SET ts = 'garbage' WHERE k = 1"));
  (* the last assignment to a column decides *)
  exec db "UPDATE c SET ts = 'garbage', ts = '2021-01-02 03:04:05' WHERE k = 1";
  check Alcotest.string "last assignment wins" "2021-01-02 03:04:05"
    (Value.to_string (Database.query_one db "SELECT ts FROM c WHERE k = 1").(0))

(* An over-long CHAR(n) literal is accepted by prepare and fails when
   the statement runs. *)
let long_char_at_execution () =
  let db = setup () in
  let sql = "INSERT INTO c VALUES (1, NULL, 'toolong')" in
  let p = Database.prepare db sql in
  let txn = Database.begin_txn db in
  check (Alcotest.option Alcotest.string) "fails at execution"
    (Some "column \"s\" of c: value \"toolong\" too long for CHAR(3)")
    (sql_error (fun () -> Database.exec_prepared_in db txn p));
  Database.abort db txn;
  check Alcotest.int "nothing written" 0 (count db)

let suite =
  [
    Alcotest.test_case "bad constant in row 2 raises at its turn" `Quick bad_constant_in_row_two;
    Alcotest.test_case "bad SET constant with no rows succeeds" `Quick update_without_rows;
    Alcotest.test_case "over-long CHAR constant fails at execution" `Quick
      long_char_at_execution;
  ]
