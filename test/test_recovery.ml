(* Durable redo replay and crash recovery: serialize/replay round trips,
   checkpointing, mark rebuilds for every tracker shape, out-of-range
   mark accounting, a randomised prefix-replay property, a failed eager
   copy rolling back completely, and the bounded deterministic fault
   sweep. *)

open Bullfrog_db
open Bullfrog_core
open Bullfrog_sql

let check = Alcotest.check

let count db tbl =
  match Database.query_one db ("SELECT COUNT(*) FROM " ^ tbl) with
  | [| Value.Int n |] -> n
  | _ -> -1

(* live (tid, row) set of a table — TID fidelity matters because bitmap
   granules are TID-derived *)
let table_sig db tbl =
  let h = Catalog.find_table_exn db.Database.catalog tbl in
  List.sort compare
    (Heap.fold_live h ~init:[] ~f:(fun acc tid row ->
         (tid, Array.to_list row) :: acc))

(* ---------------- redo-log round trips ---------------- *)

let mixed_workload () =
  let db = Database.create () in
  ignore
    (Database.exec_script db
       {|
    CREATE TABLE t1 (id INT PRIMARY KEY, f FLOAT, s TEXT, ok BOOL, d DATE, ts TIMESTAMP);
    CREATE INDEX t1_s ON t1 (s);
  |});
  for i = 0 to 9 do
    ignore
      (Database.exec db
         ~params:
           [|
             Value.Int i;
             Value.Float (1.0 /. float_of_int (i + 3));
             Value.Str (Printf.sprintf "s%d" i);
             Value.Bool (i mod 2 = 0);
             Value.Date (18000 + i);
             Value.Timestamp (1.5e9 +. (0.1 *. float_of_int i));
           |]
         "INSERT INTO t1 VALUES ($1, $2, $3, $4, $5, $6)"
        : Executor.result)
  done;
  ignore (Database.exec db "UPDATE t1 SET s = 'updated' WHERE id = 3" : Executor.result);
  ignore (Database.exec db "DELETE FROM t1 WHERE id = 7" : Executor.result);
  (* an aborted transaction burns TIDs without contributing writes *)
  (try
     Database.with_txn db (fun txn ->
         ignore
           (Database.exec_in db txn
              ~params:
                [|
                  Value.Int 99;
                  Value.Float 0.5;
                  Value.Str "doomed";
                  Value.Bool true;
                  Value.Date 18100;
                  Value.Timestamp 1.6e9;
                |]
              "INSERT INTO t1 VALUES ($1, $2, $3, $4, $5, $6)"
             : Executor.result);
         raise Exit)
   with Exit -> ());
  ignore
    (Database.exec db "CREATE TABLE t2 AS (SELECT id, s FROM t1 WHERE id < 5)"
      : Executor.result);
  db

let redo_roundtrip () =
  let db = mixed_workload () in
  let bytes = Redo_log.serialize db.Database.redo in
  let log' = Redo_log.deserialize bytes in
  check Alcotest.bool "serialize is bit-exact after a round trip" true
    (Redo_log.serialize log' = bytes);
  check Alcotest.int "commit records preserved"
    (Redo_log.length db.Database.redo)
    (Redo_log.length log');
  let db' = Database.replay log' in
  check
    Alcotest.(list string)
    "same catalog"
    (Catalog.table_names db.Database.catalog)
    (Catalog.table_names db'.Database.catalog);
  List.iter
    (fun tbl ->
      check Alcotest.bool ("table " ^ tbl ^ " replays identically") true
        (table_sig db tbl = table_sig db' tbl))
    (Catalog.table_names db.Database.catalog);
  (* indexes came back via the replayed DDL *)
  check Alcotest.int "index probe works on the replayed db" 1
    (List.length (Database.query db' "SELECT * FROM t1 WHERE s = 'updated'"))

let redo_file_roundtrip () =
  let db = mixed_workload () in
  let path = "bfredo_test.log" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      Redo_log.write_file db.Database.redo path;
      let log' = Redo_log.read_file path in
      check Alcotest.bool "file round trip is bit-exact" true
        (Redo_log.serialize log' = Redo_log.serialize db.Database.redo))

let corrupt_rejected () =
  let db = mixed_workload () in
  let bytes = Redo_log.serialize db.Database.redo in
  let truncated = String.sub bytes 0 (String.length bytes - 3) in
  (match Redo_log.deserialize truncated with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "truncated log accepted");
  match Redo_log.deserialize ("XX" ^ bytes) with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "bad magic accepted"

(* ---------------- mark rebuilds per tracker shape ---------------- *)

let mk_src_db rows =
  let db = Database.create () in
  ignore
    (Database.exec_script db "CREATE TABLE src (id INT PRIMARY KEY, grp INT, v TEXT)");
  Database.with_txn db (fun txn ->
      for i = 0 to rows - 1 do
        ignore
          (Database.exec_in db txn
             ~params:
               [| Value.Int i; Value.Int (i mod 4); Value.Str (Printf.sprintf "v%d" i) |]
             "INSERT INTO src VALUES ($1, $2, $3)"
            : Executor.result)
      done);
  db

let copy_spec () =
  Migration.make ~name:"copy" ~drop_old:[ "src" ]
    [
      Migration.statement_of_sql ~name:"copy"
        "CREATE TABLE dst AS (SELECT id, grp, v FROM src)";
    ]

let agg_spec () =
  Migration.make ~name:"agg" ~drop_old:[ "src" ]
    [
      Migration.statement_of_sql ~name:"agg"
        "CREATE TABLE agg AS (SELECT grp, COUNT(*) AS n FROM src GROUP BY grp)";
    ]

let hash_tracker_recovery () =
  let db = mk_src_db 16 in
  let bf = Lazy_db.create db in
  let rt = Lazy_db.start_migration bf (agg_spec ()) in
  ignore (Lazy_db.exec bf "SELECT * FROM agg WHERE grp = 2" : Executor.result);
  check Alcotest.int "one group before crash" 1 (count db "agg");
  let rt', report = Recovery.recover rt in
  check Alcotest.int "group mark restored" 1 report.Recovery.rb_restored;
  check Alcotest.int "nothing dropped" 0 report.Recovery.rb_dropped;
  let rep = Migrate_exec.new_report () in
  Migrate_exec.migrate_for_preds rt' rep
    (Migrate_exec.compile_preds rt' [ ("src", Some (Parser.parse_expr "grp = 2")) ]);
  check Alcotest.int "no re-migration of the recovered group" 0
    rep.Migrate_exec.r_granules_migrated;
  check Alcotest.int "no duplicate group rows" 1 (count db "agg")

(* Finalize drops the migration's inputs as logged DDL: a node rebuilt
   from the redo log no longer serves the old table. *)
let finalized_drop_survives_replay () =
  let db = Database.create () in
  ignore
    (Database.exec_script db
       "CREATE TABLE t (id INT PRIMARY KEY, v INT); INSERT INTO t VALUES (1, 10), (2, 20)");
  let bf = Lazy_db.create db in
  ignore
    (Lazy_db.start_migration bf
       (Migration.make ~name:"copy" ~drop_old:[ "t" ]
          [ Migration.statement_of_sql "CREATE TABLE t2 AS (SELECT id, v FROM t)" ])
      : Migrate_exec.t);
  while Lazy_db.background_step bf ~batch:8 > 0 do () done;
  Lazy_db.finalize bf;
  let db' = Database.replay (Redo_log.deserialize (Redo_log.serialize db.Database.redo)) in
  let bf' = Lazy_db.create db' in
  (match Lazy_db.exec bf' "SELECT id FROM t" with
  | _ -> Alcotest.fail "t was dropped by the finalized migration"
  | exception Db_error.Sql_error msg ->
      check Alcotest.string "dropped-relation error" {|relation "t" does not exist|} msg);
  check Alcotest.int "t2 replayed" 2
    (List.length (Database.query db' "SELECT id FROM t2"))

let replayed db = Database.replay (Redo_log.deserialize (Redo_log.serialize db.Database.redo))

let exists db name = Catalog.exists db.Database.catalog name

(* A 1:1 copy of [src]'s (id, v) into [dst]. *)
let move_spec ?(drop_old = []) src dst =
  Migration.make ~name:(src ^ "_to_" ^ dst) ~drop_old
    [
      Migration.statement_of_sql
        (Printf.sprintf "CREATE TABLE %s AS (SELECT id, v FROM %s)" dst src);
    ]

let t_db () =
  let db = Database.create () in
  ignore
    (Database.exec_script db
       "CREATE TABLE t (id INT PRIMARY KEY, v INT); INSERT INTO t VALUES (1, 10), (2, 20)");
  db

(* Start, drain and finalize [spec] on [bf]. *)
let run_lazy bf spec =
  ignore (Lazy_db.start_migration bf spec : Migrate_exec.t);
  while Lazy_db.background_step bf ~batch:8 > 0 do () done;
  Lazy_db.finalize bf

(* Every drop path logs its drop, so replay leaves the table dropped:
   an eager migration's [drop_old], a trivial rollback's output, and a
   multistep switch-over's [drop_old]. *)
let drops_survive_replay () =
  let paths =
    [
      ( "eager",
        "t",
        "t2",
        fun db -> ignore (Eager.migrate db (move_spec ~drop_old:[ "t" ] "t" "t2") : Eager.outcome)
      );
      ( "trivial rollback",
        "t2",
        "t",
        fun db ->
          let bf = Lazy_db.create db in
          ignore (Lazy_db.start_migration bf (move_spec "t" "t2") : Migrate_exec.t);
          check Alcotest.bool "rollback is trivial" true
            (Option.is_none (Lazy_db.rollback_migration bf)) );
      ( "multistep",
        "t",
        "t2",
        fun db ->
          let ms = Multistep.start db (move_spec ~drop_old:[ "t" ] "t" "t2") in
          while Multistep.copier_step ms ~batch:8 > 0 do () done;
          Multistep.switch_over ms );
    ]
  in
  List.iter
    (fun (path, gone, kept, run) ->
      let db = t_db () in
      run db;
      check Alcotest.bool (path ^ ": dropped live") false (exists db gone);
      let db' = replayed db in
      check Alcotest.bool (path ^ ": stays dropped after replay") false (exists db' gone);
      check Alcotest.int (path ^ ": kept table replayed") 2 (count db' kept))
    paths

(* Finalize drops the spec's [drop_old] and nothing else: an aggregate
   keeps its input, live and after replay. *)
let aggregate_finalize_keeps_inputs () =
  let db = Database.create () in
  ignore
    (Database.exec_script db
       "CREATE TABLE ol (id INT PRIMARY KEY, g INT, v INT); INSERT INTO ol VALUES \
        (1, 1, 10), (2, 1, 20), (3, 2, 30), (4, 3, 40)");
  let bf = Lazy_db.create db in
  run_lazy bf
    (Migration.make ~name:"tot" ~drop_old:[]
       [
         Migration.statement_of_sql
           "CREATE TABLE tot AS (SELECT g, SUM(v) AS s FROM ol GROUP BY g)";
       ]);
  (match Lazy_db.exec bf "SELECT id FROM ol" with
  | Executor.Rows (_, rows) -> check Alcotest.int "input kept" 4 (List.length rows)
  | _ -> Alcotest.fail "expected rows"
  | exception Db_error.Sql_error msg -> Alcotest.failf "input dropped: %s" msg);
  check Alcotest.int "output" 3 (count db "tot");
  check Alcotest.int "input kept after replay" 4 (count (replayed db) "ol")

(* Finalize drops [drop_old], so a name that is not an input of the
   spec (a typo for an unrelated table) or that is one of its outputs is
   rejected at the switch, lazy and eager alike, before any output
   exists. *)
let drop_old_names_inputs () =
  let starts =
    [
      ("lazy", fun db spec -> ignore (Lazy_db.start_migration (Lazy_db.create db) spec : Migrate_exec.t));
      ("eager", fun db spec -> ignore (Eager.migrate db spec : Eager.outcome));
    ]
  in
  List.iter
    (fun (path, start) ->
      List.iter
        (fun drop ->
          let db = t_db () in
          ignore (Database.exec db "CREATE TABLE other (id INT PRIMARY KEY)" : Executor.result);
          let case = Printf.sprintf "%s, drop_old %S" path drop in
          (match start db (move_spec ~drop_old:[ drop ] "t" "t2") with
          | () -> Alcotest.failf "%s: accepted" case
          | exception Db_error.Sql_error _ -> ());
          check Alcotest.bool (case ^ ": no output created") false (exists db "t2");
          check Alcotest.bool (case ^ ": other kept") true (exists db "other");
          check Alcotest.int (case ^ ": t kept") 2 (count db "t"))
        [ "other"; "t2"; "nope" ])
    starts

(* t -> t2, then t2 -> t, straight through and with a crash and
   recovery between the two migrations: the new t answers queries.  What
   a migration hides comes from the active spec alone, so nothing
   remembers that the first migration dropped t. *)
let name_reuse_round_trip () =
  List.iter
    (fun crash ->
      let bf = Lazy_db.create (t_db ()) in
      run_lazy bf (move_spec ~drop_old:[ "t" ] "t" "t2");
      let bf = if crash then Lazy_db.create (replayed (Lazy_db.db bf)) else bf in
      run_lazy bf (move_spec ~drop_old:[ "t2" ] "t2" "t");
      let leg = if crash then "after recovery" else "straight" in
      match Lazy_db.exec bf "SELECT id, v FROM t WHERE id = 2" with
      | Executor.Rows (_, [ [| Value.Int 2; Value.Int 20 |] ]) -> (
          match Lazy_db.exec bf "SELECT id FROM t2" with
          | _ -> Alcotest.failf "%s: t2 still answers" leg
          | exception Db_error.Sql_error msg ->
              check Alcotest.string (leg ^ ": t2 gone") {|relation "t2" does not exist|} msg)
      | _ -> Alcotest.failf "%s: wrong rows from the new t" leg
      | exception Db_error.Sql_error msg -> Alcotest.failf "%s: new t rejected: %s" leg msg)
    [ false; true ]

(* A restart resumes an overlapping split in the ON CONFLICT mode its
   switch chose, and the resumed copy drains to the original's rows. *)
let resume_keeps_on_conflict () =
  let db = Database.create () in
  ignore
    (Database.exec_script db "CREATE TABLE t (id INT PRIMARY KEY, v INT NOT NULL)");
  for i = 1 to 20 do
    ignore
      (Database.exec db (Printf.sprintf "INSERT INTO t VALUES (%d, %d)" i i)
        : Executor.result)
  done;
  let out name where =
    {
      Migration.out_name = name;
      out_create = None;
      out_population =
        Parser.parse_select ("SELECT id, v FROM t WHERE " ^ where);
      out_indexes = [];
    }
  in
  let spec =
    Migration.make ~name:"overlap"
      [
        {
          Migration.stmt_name = "overlap";
          outputs = [ out "t_low" "v < 10"; out "t_high" "v > 5" ];
        };
      ]
  in
  let bf = Lazy_db.create db in
  let rt = Lazy_db.start_migration bf spec in
  ignore (Lazy_db.background_step bf ~batch:5 : int);
  let db' =
    Database.replay (Redo_log.deserialize (Redo_log.serialize db.Database.redo))
  in
  let bf' = Lazy_db.create db' in
  let rt' = Lazy_db.resume_migration bf' ~mig_id:rt.Migrate_exec.mig_id spec in
  check Alcotest.bool "resumed in ON CONFLICT mode" true
    (rt'.Migrate_exec.mode = Migrate_exec.On_conflict);
  let drain bf =
    let rec go () = if Lazy_db.background_step bf ~batch:8 > 0 then go () in
    go ()
  in
  drain bf;
  drain bf';
  List.iter
    (fun tbl ->
      let rows db = Database.query db ("SELECT id, v FROM " ^ tbl ^ " ORDER BY id") in
      check Alcotest.bool (tbl ^ " row-identical after resume") true (rows db = rows db'))
    [ "t_low"; "t_high" ]

let shared_tracker_recovery () =
  let db = Database.create () in
  ignore
    (Database.exec_script db
       {|
    CREATE TABLE a (a_id INT PRIMARY KEY, k INT, ax TEXT);
    CREATE TABLE b (b_id INT PRIMARY KEY, k INT, bx TEXT);
    CREATE INDEX a_k ON a (k);
    CREATE INDEX b_k ON b (k);
    INSERT INTO a VALUES (1,1,'a1'),(2,1,'a2'),(3,2,'a3');
    INSERT INTO b VALUES (10,1,'b1'),(11,1,'b2'),(13,2,'b4');
  |});
  let bf = Lazy_db.create db in
  let spec =
    Migration.make ~name:"ab" ~drop_old:[ "a"; "b" ]
      [
        Migration.statement_of_sql ~name:"ab"
          "CREATE TABLE ab AS (SELECT a_id, b_id, a.k AS k, ax, bx FROM a, b WHERE a.k = b.k)";
      ]
  in
  let rt = Lazy_db.start_migration bf ~nn:Migrate_exec.Nn_join_key spec in
  ignore (Lazy_db.exec bf "SELECT * FROM ab WHERE k = 1" : Executor.result);
  check Alcotest.int "class k=1 pairs before crash" 4 (count db "ab");
  let rt', report = Recovery.recover rt in
  check Alcotest.bool "shared class mark restored" true (report.Recovery.rb_restored >= 1);
  let rep = Migrate_exec.new_report () in
  Migrate_exec.migrate_for_preds rt' rep
    (Migrate_exec.compile_preds rt'
       [ ("a", Some (Parser.parse_expr "k = 1")); ("b", Some (Parser.parse_expr "k = 1")) ]);
  check Alcotest.int "class not re-migrated" 0 rep.Migrate_exec.r_granules_migrated;
  check Alcotest.int "no duplicate pairs" 4 (count db "ab")

let checkpoint_preserves_marks () =
  let db = mk_src_db 16 in
  let bf = Lazy_db.create db in
  let rt = Lazy_db.start_migration bf ~page_size:4 (copy_spec ()) in
  ignore (Lazy_db.exec bf "SELECT * FROM dst WHERE id = 1" : Executor.result);
  ignore (Lazy_db.background_step bf ~batch:1 : int);
  let before = Redo_log.entry_count db.Database.redo in
  let dropped = Redo_log.checkpoint db.Database.redo in
  check Alcotest.bool "checkpoint dropped entries" true (dropped = before && dropped > 0);
  check Alcotest.int "only the synthetic mark record remains" 1
    (Redo_log.entry_count db.Database.redo);
  check Alcotest.int "truncation accounted" before (Redo_log.truncated db.Database.redo);
  let rt', report = Recovery.recover rt in
  check Alcotest.int "both granules survive the checkpoint" 2 report.Recovery.rb_restored;
  let rep = Migrate_exec.new_report () in
  while Migrate_exec.background_step rt' rep ~batch:4 > 0 do
    ()
  done;
  check Alcotest.bool "complete after drain" true (Migrate_exec.verify_complete rt');
  check Alcotest.int "exactly once" 16 (count db "dst")

let dropped_marks_reported () =
  let db = mk_src_db 8 in
  let bf = Lazy_db.create db in
  let rt = Lazy_db.start_migration bf ~page_size:4 (copy_spec ()) in
  let log = Redo_log.create () in
  Redo_log.append log
    {
      Redo_log.txn_id = 42;
      commit_ts = 0;
      writes = [];
      marks =
        [
          { Redo_log.mig_id = rt.Migrate_exec.mig_id; mig_table = "src"; granule = Redo_log.G_tid 0 };
          { Redo_log.mig_id = rt.Migrate_exec.mig_id; mig_table = "src"; granule = Redo_log.G_tid 9999 };
        ];
    };
  let rt' = Recovery.simulate_crash rt in
  let report = Recovery.rebuild_report rt' log in
  check Alcotest.int "in-range mark restored" 1 report.Recovery.rb_restored;
  check Alcotest.int "out-of-range mark counted, not lost" 1 report.Recovery.rb_dropped

(* ---------------- randomised prefix-replay property ---------------- *)

(* Replaying the first j committed migration records restores exactly the
   granules those records marked — no more, no fewer. *)
let prefix_replay_prop =
  let open QCheck in
  Test.make ~name:"replaying a log prefix restores exactly that prefix" ~count:30
    (int_range 0 100)
    (fun j ->
      let db = mk_src_db 12 in
      let bf = Lazy_db.create db in
      let rt = Lazy_db.start_migration bf ~page_size:1 (copy_spec ()) in
      while Lazy_db.background_step bf ~batch:1 > 0 do
        ()
      done;
      let records = Redo_log.records db.Database.redo in
      let j = min j (List.length records) in
      let prefix = Redo_log.create () in
      List.iteri (fun i r -> if i < j then Redo_log.append prefix r) records;
      let expected =
        List.concat_map
          (fun (r : Redo_log.record) ->
            List.filter_map
              (fun (m : Redo_log.migration_mark) ->
                match m.Redo_log.granule with
                | Redo_log.G_tid g when m.Redo_log.mig_id = rt.Migrate_exec.mig_id ->
                    Some g
                | _ -> None)
              r.Redo_log.marks)
          (List.filteri (fun i _ -> i < j) records)
      in
      let rt' = Recovery.simulate_crash rt in
      let restored = Recovery.rebuild rt' db.Database.redo in
      ignore (restored : int);
      let rt'' = Recovery.simulate_crash rt in
      let restored'' = Recovery.rebuild rt'' prefix in
      if restored'' <> List.length expected then
        Test.fail_reportf "restored %d granules, prefix marked %d" restored''
          (List.length expected);
      let bt =
        List.find_map
          (fun (s : Migrate_exec.rt_stmt) ->
            List.find_map
              (fun (i : Migrate_exec.rt_input) ->
                match i.Migrate_exec.ri_tracker with
                | Migrate_exec.RT_bitmap bt -> Some bt
                | _ -> None)
              s.Migrate_exec.rs_inputs)
          rt''.Migrate_exec.stmts
      in
      match bt with
      | None -> Test.fail_report "no bitmap tracker in the rebuilt runtime"
      | Some bt ->
          for g = 0 to Bitmap_tracker.granule_count bt - 1 do
            let want = List.mem g expected in
            if Bitmap_tracker.is_migrated bt g <> want then
              Test.fail_reportf "granule %d: migrated=%b, prefix says %b g"
                g
                (Bitmap_tracker.is_migrated bt g)
                want
          done;
          true)

(* ---------------- failed eager copy ---------------- *)

(* Eager copies row by row inside one transaction per statement; a unique
   violation 4,500 rows in (past the copy's first crash point, which fires
   every 4,096 rows) must abort the copy and leave the output with no row
   and no index entry. *)
let failed_eager_copy () =
  let db = Database.create () in
  ignore (Database.exec db "CREATE TABLE src (id INT PRIMARY KEY, k INT)" : Executor.result);
  let src = Catalog.find_table_exn db.Database.catalog "src" in
  let n = 5_000 and dup_at = 4_500 in
  for i = 0 to n - 1 do
    let k = if i = dup_at then 7 else i in
    ignore (Heap.insert src [| Value.Int i; Value.Int k |] : int)
  done;
  let spec =
    Migration.make ~name:"copy" ~drop_old:[ "src" ]
      [
        {
          Migration.stmt_name = "dst";
          outputs =
            [
              {
                Migration.out_name = "dst";
                out_create =
                  Some (Parser.parse_one "CREATE TABLE dst (k INT PRIMARY KEY, id INT)");
                out_population = Parser.parse_select "SELECT k, id FROM src";
                out_indexes = [];
              };
            ];
        };
      ]
  in
  (match Eager.migrate db spec with
  | _ -> Alcotest.fail "expected a unique violation"
  | exception Db_error.Constraint_violation _ -> ());
  let dst = Catalog.find_table_exn db.Database.catalog "dst" in
  check Alcotest.int "no live row" 0 (Heap.live_count dst);
  check Alcotest.bool "has a unique index" true (dst.Heap.indexes <> []);
  List.iter
    (fun idx -> check Alcotest.int (Index.name idx ^ " empty") 0 (Index.entry_count idx))
    dst.Heap.indexes;
  check Alcotest.int "source kept" n (count db "src")

(* ---------------- bounded fault sweep ---------------- *)

let bounded_fault_sweep () =
  let cells = Fault_sweep.run_bounded () in
  List.iter
    (fun (c : Fault_sweep.cell) ->
      check Alcotest.bool (Fault_sweep.pp_cell c) true c.Fault_sweep.c_ok;
      check Alcotest.bool (Fault_sweep.pp_cell c ^ " (point reached)") true
        c.Fault_sweep.c_fired)
    cells;
  check Alcotest.bool "sweep not empty" true (List.length cells >= 7)

let suite =
  [
    Alcotest.test_case "redo round trip (serialize/replay)" `Quick redo_roundtrip;
    Alcotest.test_case "redo file round trip" `Quick redo_file_roundtrip;
    Alcotest.test_case "corrupt logs rejected" `Quick corrupt_rejected;
    Alcotest.test_case "hash tracker recovery" `Quick hash_tracker_recovery;
    Alcotest.test_case "shared (join-key) tracker recovery" `Quick shared_tracker_recovery;
    Alcotest.test_case "finalized drop survives replay" `Quick finalized_drop_survives_replay;
    Alcotest.test_case "drops survive replay on every path" `Quick drops_survive_replay;
    Alcotest.test_case "aggregate finalize keeps its inputs" `Quick
      aggregate_finalize_keeps_inputs;
    Alcotest.test_case "drop_old must name inputs" `Quick drop_old_names_inputs;
    Alcotest.test_case "dropped name reused after a round trip" `Quick name_reuse_round_trip;
    Alcotest.test_case "resume keeps ON CONFLICT mode" `Quick resume_keeps_on_conflict;
    Alcotest.test_case "checkpoint preserves marks" `Quick checkpoint_preserves_marks;
    Alcotest.test_case "out-of-range marks reported" `Quick dropped_marks_reported;
    QCheck_alcotest.to_alcotest prefix_replay_prop;
    Alcotest.test_case "failed eager copy leaves nothing" `Quick failed_eager_copy;
    Alcotest.test_case "bounded fault sweep" `Slow bounded_fault_sweep;
  ]
