(* Plan-once interception (DESIGN.md §4.2b): each statement text's
   interception entry is built once per migration and catalog epoch from
   the unbound statement, and each migration statement's population is
   planned once.  The oracle is the bind-then-extract path: the entry of
   the statement's text with its parameters spliced in as literals
   ([Database.bind_stmt], printed back to SQL). *)

open Bullfrog_db
open Bullfrog_core
open Bullfrog_sql

let check = Alcotest.check

let with_counters f =
  let was = Obs.Counters.enabled () in
  Obs.Counters.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.Counters.set_enabled was) f

let delta before name =
  Option.value ~default:0
    (List.assoc_opt name (Obs.Counters.diff (Obs.Counters.snapshot ()) before))

let sorted_rows db sql =
  List.sort compare
    (List.map
       (fun r -> String.concat "|" (Array.to_list (Array.map Value.to_string r)))
       (Database.query db sql))

let drain ld = while Lazy_db.background_step ld ~batch:16 > 0 do () done

(* ---------------- fixtures: a split and the flights join ------------- *)

let kv_db n =
  let db = Database.create () in
  ignore (Database.exec_script db "CREATE TABLE t (id INT PRIMARY KEY, grp INT, v INT)");
  for i = 0 to n - 1 do
    ignore
      (Database.exec db (Printf.sprintf "INSERT INTO t VALUES (%d, %d, %d)" i (i mod 7) (i * 3))
        : Executor.result)
  done;
  db

let split_spec () =
  Migration.make ~name:"tsplit" ~drop_old:[ "t" ]
    [
      Migration.split_statement ~name:"tsplit" ~input:"t"
        ~outputs:[ ("ta", [ "grp" ]); ("tb", [ "v" ]) ]
        ~key:[ "id" ] ();
    ]

type fixture = {
  fx_name : string;
  fx_db : unit -> Database.t;
  fx_spec : unit -> Migration.t;
  fx_outputs : string list;
  fx_stmts : (string * (Random.State.t -> Value.t array)) list;
}

let int_in st lo hi = Value.Int (lo + Random.State.int st (hi - lo + 1))

let split_fixture =
  {
    fx_name = "split";
    fx_db = (fun () -> kv_db 60);
    fx_spec = split_spec;
    fx_outputs = [ "ta"; "tb" ];
    fx_stmts =
      [
        ("SELECT * FROM ta WHERE id = $1", fun st -> [| int_in st 0 65 |]);
        ("SELECT * FROM ta WHERE grp = $1", fun st -> [| int_in st 0 7 |]);
        ("SELECT id, v FROM tb WHERE id >= $1 AND id < $2", fun st ->
          let lo = Random.State.int st 60 in
          [| Value.Int lo; Value.Int (lo + Random.State.int st 8) |]);
        ("SELECT * FROM ta WHERE grp IN ($1, $2)", fun st -> [| int_in st 0 7; int_in st 0 7 |]);
        ("SELECT * FROM ta WHERE id = $1 AND grp = $2", fun st -> [| int_in st 0 60; int_in st 0 7 |]);
        ("UPDATE tb SET v = v + $1 WHERE id = $2", fun st -> [| int_in st 1 5; int_in st 0 60 |]);
        ("DELETE FROM ta WHERE id = $1", fun st -> [| int_in st 0 60 |]);
      ];
  }

let fid st = Value.Str (Printf.sprintf "FL%03d" (Random.State.int st 9))

let flights_fixture =
  {
    fx_name = "flights join";
    fx_db = (fun () -> Test_bullfrog.flights_db ~flights:8 ~days:3 ());
    fx_spec = Test_bullfrog.flights_spec;
    fx_outputs = [ "flewoninfo" ];
    fx_stmts =
      [
        ("SELECT * FROM flewoninfo WHERE fid = $1", fun st -> [| fid st |]);
        ("SELECT fid, empty_seats FROM flewoninfo WHERE fid = $1 AND passenger_count > $2",
          fun st -> [| fid st; int_in st 50 54 |]);
        ("SELECT fid FROM flewoninfo WHERE passenger_count = $1", fun st -> [| int_in st 50 54 |]);
        ("SELECT * FROM flewoninfo WHERE fid IN ($1, $2)", fun st -> [| fid st; fid st |]);
      ];
  }

(* Rows of [heap] a compiled candidate predicate selects under [params]. *)
let selected ?params db heap (cp : Migrate_exec.cand_pred) =
  Database.with_txn db (fun txn ->
      List.map fst (Access.select_tids ?params ~latest:true txn heap cp.Migrate_exec.cp_pred))

(* One random run: the cached path (Lazy_db.exec) on one database, the
   bind-then-extract oracle on a twin.  Per statement, the entry's
   predicates under the parameters select the oracle's rows, and the
   outputs hold the same rows; after draining they still do. *)
let equivalence fx =
  QCheck.Test.make ~count:40 ~name:("cached interception = bind-then-extract: " ^ fx.fx_name)
    QCheck.(pair small_nat (int_range 1 8))
    (fun (seed, n) ->
      let st = Random.State.make [| seed |] in
      let db1 = fx.fx_db () and db2 = fx.fx_db () in
      let ld1 = Lazy_db.create db1 and ld2 = Lazy_db.create db2 in
      ignore (Lazy_db.start_migration ld1 (fx.fx_spec ()) : Migrate_exec.t);
      let rt2 = Lazy_db.start_migration ld2 (fx.fx_spec ()) in
      let same_outputs phase =
        List.iter
          (fun o ->
            let sql = "SELECT * FROM " ^ o in
            if sorted_rows db1 sql <> sorted_rows db2 sql then
              QCheck.Test.fail_reportf "%s: %s differs between the cached and oracle paths"
                phase o)
          fx.fx_outputs
      in
      for _ = 1 to n do
        let sql, gen = List.nth fx.fx_stmts (Random.State.int st (List.length fx.fx_stmts)) in
        let params = gen st in
        let oracle =
          let bound = Database.bind_stmt (Some params) (Parser.parse_one sql) in
          match Lazy_db.interception_preds ld2 (Pretty.stmt_to_string bound) with
          | Some preds -> preds
          | None -> QCheck.Test.fail_reportf "%s: no oracle entry" sql
        in
        let cached =
          match Lazy_db.interception_preds ld2 sql with
          | Some preds -> preds
          | None -> QCheck.Test.fail_reportf "%s: no interception entry" sql
        in
        if List.map fst cached <> List.map fst oracle then
          QCheck.Test.fail_reportf "%s: tables [%s] vs oracle [%s]" sql
            (String.concat "," (List.map fst cached))
            (String.concat "," (List.map fst oracle));
        List.iter
          (fun (table, ocp) ->
            let heap = Catalog.find_table_exn db2.Database.catalog table in
            let want = selected db2 heap ocp in
            let got = selected ~params db2 heap (List.assoc table cached) in
            if got <> want then
              QCheck.Test.fail_reportf "%s on %s: %d candidate rows vs %d in the oracle" sql
                table (List.length got) (List.length want))
          oracle;
        (* execute: cached path on db1, oracle migration + plain execution on db2 *)
        let r1 = Lazy_db.exec ld1 ~params sql in
        Migrate_exec.migrate_for_preds rt2 (Migrate_exec.new_report ()) oracle;
        let r2 = Database.exec db2 ~params sql in
        (match (r1, r2) with
        | Executor.Rows (_, a), Executor.Rows (_, b) ->
            if List.sort compare a <> List.sort compare b then
              QCheck.Test.fail_reportf "%s: query results differ" sql
        | _ -> ());
        same_outputs sql
      done;
      drain ld1;
      drain ld2;
      same_outputs "after drain";
      true)

(* ---------------- counters: plan once --------------------------------- *)

let builds_once () =
  with_counters @@ fun () ->
  let db = kv_db 40 in
  let ld = Lazy_db.create db in
  ignore (Lazy_db.start_migration ld (split_spec ()) : Migrate_exec.t);
  let before = Obs.Counters.snapshot () in
  for i = 0 to 19 do
    match Lazy_db.exec ld ~params:[| Value.Int i |] "SELECT v FROM tb WHERE id = $1" with
    | Executor.Rows (_, [ [| Value.Int v |] ]) ->
        check Alcotest.int "row migrated on demand" (i * 3) v
    | _ -> Alcotest.failf "id %d: expected one row" i
  done;
  check Alcotest.int "one interception build for 20 calls" 1
    (delta before "core.migrate.intercept_builds");
  drain ld;
  check Alcotest.int "one population plan per output for the whole cycle" 2
    (delta before "core.migrate.population_plans");
  check Alcotest.(list string) "outputs complete"
    (sorted_rows (kv_db 40) "SELECT id, v FROM t")
    (sorted_rows db "SELECT id, v FROM tb")

(* A call short of parameters mid-migration does no lazy work and gets
   the executor's error, not a failed candidate scan. *)
let missing_params () =
  let db = kv_db 10 in
  let ld = Lazy_db.create db in
  ignore (Lazy_db.start_migration ld (split_spec ()) : Migrate_exec.t);
  (match Lazy_db.exec ld "SELECT v FROM tb WHERE id = $1" with
  | exception Db_error.Sql_error msg ->
      check Alcotest.string "executor's message" "statement expects 1 parameter(s), got 0" msg
  | _ -> Alcotest.fail "expected a missing-parameter error");
  check Alcotest.int "nothing migrated" 0 (List.length (Database.query db "SELECT * FROM tb"))

(* CREATE INDEX on an input mid-migration moves the epoch: the next call
   rebuilds its entry and scans through the new index. *)
let index_mid_migration () =
  with_counters @@ fun () ->
  let db = kv_db 40 in
  let ld = Lazy_db.create db in
  ignore (Lazy_db.start_migration ld (split_spec ()) : Migrate_exec.t);
  let sql = "SELECT id FROM ta WHERE grp = $1" in
  let path () =
    match Lazy_db.interception_preds ld sql with
    | Some [ ("t", cp) ] -> cp.Migrate_exec.cp_pred.Access.path
    | _ -> Alcotest.fail "expected one predicate on t"
  in
  let before = Obs.Counters.snapshot () in
  check Alcotest.int "grp = 1" 6 (List.length (Database.query db ~params:[| Value.Int 1 |] "SELECT id FROM t WHERE grp = $1"));
  ignore (Lazy_db.exec ld ~params:[| Value.Int 1 |] sql : Executor.result);
  check Alcotest.bool "sequential before the index" true (path () = Access.P_full);
  ignore (Lazy_db.exec ld "CREATE INDEX t_grp ON t (grp)" : Executor.result);
  (match path () with
  | Access.P_eq _ -> ()
  | _ -> Alcotest.fail "expected the rebuilt entry to probe t_grp");
  (* the SELECT once per epoch, and the CREATE INDEX text itself *)
  check Alcotest.int "one build per text per epoch" 3
    (delta before "core.migrate.intercept_builds");
  (match Lazy_db.exec ld ~params:[| Value.Int 2 |] sql with
  | Executor.Rows (_, rows) -> check Alcotest.int "grp = 2 rows after the index" 6 (List.length rows)
  | _ -> Alcotest.fail "expected rows");
  check Alcotest.int "no build within the new epoch" 3
    (delta before "core.migrate.intercept_builds")

(* A rollback's backward runtime starts with an empty entry table: the
   old-schema text builds its own entry, and the forward text is now
   rejected by the backward runtime's verdict. *)
let rollback_own_entries () =
  with_counters @@ fun () ->
  let db = Test_invert.mk_kv_db 32 in
  let ld = Lazy_db.create db in
  ignore (Lazy_db.start_migration ld ~page_size:4 (Test_invert.row_split_spec ()) : Migrate_exec.t);
  let before = Obs.Counters.snapshot () in
  ignore (Lazy_db.exec ld ~params:[| Value.Int 5 |] "SELECT * FROM t_low WHERE id = $1" : Executor.result);
  check Alcotest.int "forward build" 1 (delta before "core.migrate.intercept_builds");
  (match Lazy_db.rollback_migration ld with
  | Some _ -> ()
  | None -> Alcotest.fail "expected a backward runtime");
  (match Lazy_db.exec ld ~params:[| Value.Int 15 |] "SELECT id, k, v FROM t WHERE id = $1" with
  | Executor.Rows (_, [ [| Value.Int 15; _; _ |] ]) -> ()
  | _ -> Alcotest.fail "old schema must answer id 15 mid-rollback");
  check Alcotest.int "backward build" 2 (delta before "core.migrate.intercept_builds");
  (match Lazy_db.exec ld ~params:[| Value.Int 5 |] "SELECT * FROM t_low WHERE id = $1" with
  | exception Db_error.Sql_error _ -> ()
  | _ -> Alcotest.fail "the abandoned new table must be rejected");
  drain ld;
  Lazy_db.finalize ld;
  check Alcotest.(list string) "row-exact after rollback"
    (sorted_rows (Test_invert.mk_kv_db 32) "SELECT id, k, v FROM t")
    (sorted_rows db "SELECT id, k, v FROM t")

(* Two OS threads run one statement text with different parameters: they
   share its interception entry and the statement's population plans. *)
let threads_share_plan () =
  with_counters @@ fun () ->
  let n = 120 in
  let db = kv_db n in
  let ld = Lazy_db.create db in
  ignore (Lazy_db.start_migration ld (split_spec ()) : Migrate_exec.t);
  let before = Obs.Counters.snapshot () in
  let bad = Atomic.make 0 in
  let worker ids =
    List.iter
      (fun i ->
        match Lazy_db.exec ld ~params:[| Value.Int i |] "SELECT v FROM tb WHERE id = $1" with
        | Executor.Rows (_, [ [| Value.Int v |] ]) when v = i * 3 -> ()
        | _ -> Atomic.incr bad)
      ids
  in
  let ids = List.init n Fun.id in
  let a = Thread.create worker ids and b = Thread.create worker (List.rev ids) in
  Thread.join a;
  Thread.join b;
  check Alcotest.int "every call saw its row" 0 (Atomic.get bad);
  check Alcotest.int "one population plan per output" 2
    (delta before "core.migrate.population_plans");
  let builds = delta before "core.migrate.intercept_builds" in
  check Alcotest.bool "at most one build per racing thread" true (builds >= 1 && builds <= 2);
  drain ld;
  check Alcotest.(list string) "outputs complete"
    (sorted_rows (kv_db n) "SELECT id, v FROM t")
    (sorted_rows db "SELECT id, v FROM tb")

let suite =
  [
    Alcotest.test_case "one build per text, one plan per output" `Quick builds_once;
    Alcotest.test_case "CREATE INDEX mid-migration rebuilds (epoch)" `Quick index_mid_migration;
    Alcotest.test_case "missing parameters do no lazy work" `Quick missing_params;
    Alcotest.test_case "rollback builds its own entries" `Quick rollback_own_entries;
    Alcotest.test_case "two threads share entry and plan" `Quick threads_share_plan;
    QCheck_alcotest.to_alcotest (equivalence split_fixture);
    QCheck_alcotest.to_alcotest (equivalence flights_fixture);
  ]
