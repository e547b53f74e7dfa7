(* Invertibility analyzer (Mig_invert / Mig_lint glue) and mid-flight
   rollback (§4.2j): TPC-C verdicts, enforce-mode gating, rollback
   row-exactness against never-migrated oracles (with concurrent edits
   and deletes through the new schema), the derived-spec shapes, and the
   Migration serialization / validation surface the analyzer rides on. *)

open Bullfrog_db
open Bullfrog_core
open Bullfrog_tpcc

let check = Alcotest.check

let rows db sql =
  List.sort compare
    (List.map
       (fun r -> String.concat "|" (List.map Value.to_string (Array.to_list r)))
       (Database.query db sql))

let exec ld sql = ignore (Lazy_db.exec ld sql : Executor.result)

let drain ld =
  while Lazy_db.background_step ld ~batch:4 > 0 do
    ()
  done

let expect_sql_error what f =
  try
    f ();
    Alcotest.failf "%s: expected Sql_error" what
  with Db_error.Sql_error _ -> ()

(* ------------------------------------------------------------------ *)
(* TPC-C verdicts                                                      *)
(* ------------------------------------------------------------------ *)

let tpcc_db () =
  let db = Database.create () in
  Loader.load ~seed:1 db Tpcc_schema.tiny;
  db

let split_invertible () =
  let db = tpcc_db () in
  let v = Tpcc_migrations.preflight db.Database.catalog Tpcc_migrations.Split in
  check Alcotest.bool "invertible" true (Mig_lint.invertible v);
  (match v.Mig_lint.lint_inverts with
  | [ si ] -> (
      check Alcotest.bool "column split" true
        (si.Mig_lint.si_smo = Bullfrog_analysis.Mig_invert.Smo_column_split);
      match si.Mig_lint.si_verdict with
      | Bullfrog_analysis.Mig_invert.Invertible [ bo ] ->
          check Alcotest.string "reconstructs customer" "customer"
            bo.Bullfrog_analysis.Mig_invert.bo_table
      | _ -> Alcotest.fail "expected Invertible with one backward output")
  | _ -> Alcotest.fail "expected one statement verdict");
  match v.Mig_lint.lint_backward with
  | Some b ->
      check Alcotest.string "rollback spec name" "customer_split_rollback"
        b.Migration.name;
      check
        Alcotest.(slist string String.compare)
        "rollback drops both halves"
        [ "customer_public"; "customer_private" ]
        b.Migration.drop_old;
      check Alcotest.int "one backward statement" 1
        (List.length b.Migration.statements)
  | None -> Alcotest.fail "expected a derived backward spec"

let aggregate_trivially_invertible () =
  let db = tpcc_db () in
  let v =
    Tpcc_migrations.preflight db.Database.catalog Tpcc_migrations.Aggregate
  in
  (* order_line survives the flip, so the aggregate is invertible with
     nothing to reconstruct: rollback = drop the materialized total. *)
  check Alcotest.bool "invertible" true (Mig_lint.invertible v);
  check Alcotest.bool "nothing to reconstruct" true
    (v.Mig_lint.lint_backward = None);
  match v.Mig_lint.lint_inverts with
  | [ si ] ->
      check Alcotest.bool "aggregate" true
        (si.Mig_lint.si_smo = Bullfrog_analysis.Mig_invert.Smo_aggregate)
  | _ -> Alcotest.fail "expected one statement verdict"

let join_not_invertible () =
  let db = tpcc_db () in
  let v = Tpcc_migrations.preflight db.Database.catalog Tpcc_migrations.Join in
  check Alcotest.bool "not invertible" false (Mig_lint.invertible v);
  check Alcotest.bool "no backward spec" true (v.Mig_lint.lint_backward = None);
  match Mig_lint.non_invertible_reasons v with
  | [ reason ] ->
      check Alcotest.bool "join fan-out named" true
        (String.length reason > 0
        &&
        let lower = String.lowercase_ascii reason in
        let rec find i =
          i + 4 <= String.length lower
          && (String.sub lower i 4 = "join" || find (i + 1))
        in
        find 0)
  | _ -> Alcotest.fail "expected exactly one non-invertibility reason"

(* ------------------------------------------------------------------ *)
(* invertibility at the switch                                         *)
(* ------------------------------------------------------------------ *)

let invertible_spec_installs () =
  let db = tpcc_db () in
  let ld = Lazy_db.create db in
  let rt = Lazy_db.start_migration ld (Tpcc_migrations.aggregate_spec ()) in
  check Alcotest.bool "active" true (Lazy_db.active ld <> None);
  check Alcotest.bool "verdict says invertible" true
    (match rt.Migrate_exec.lint with Some v -> Mig_lint.invertible v | None -> false)

(* A non-invertible spec installs (the switch only warns), and rollback
   is refused later. *)
let warn_allows_but_rollback_refused () =
  let db = tpcc_db () in
  let ld = Lazy_db.create db in
  ignore (Lazy_db.start_migration ld (Tpcc_migrations.join_spec ()) : Migrate_exec.t);
  check Alcotest.bool "join installed" true
    (Catalog.exists db.Database.catalog "orderline_stock");
  expect_sql_error "rollback of non-invertible" (fun () ->
      ignore (Lazy_db.rollback_migration ld : Migrate_exec.t option))

let rollback_without_migration_refused () =
  let db = tpcc_db () in
  let ld = Lazy_db.create db in
  expect_sql_error "rollback with nothing active" (fun () ->
      ignore (Lazy_db.rollback_migration ld : Migrate_exec.t option))

(* ------------------------------------------------------------------ *)
(* mid-flight rollback, single-node                                    *)
(* ------------------------------------------------------------------ *)

let mk_kv_db rows =
  let db = Database.create () in
  ignore
    (Database.exec_script db
       "CREATE TABLE t (id INT PRIMARY KEY, k INT NOT NULL, v TEXT)");
  for i = 0 to rows - 1 do
    ignore
      (Database.exec db
         (Printf.sprintf "INSERT INTO t VALUES (%d, %d, 'r%02d')" i (i mod 20) i)
        : Executor.result)
  done;
  db

let copy_spec () =
  Migration.make ~name:"tcopy" ~drop_old:[ "t" ]
    [
      Migration.statement_of_sql ~name:"tcopy"
        "CREATE TABLE t2 AS (SELECT id, k, v FROM t)"
        ~extra_ddl:[ "CREATE UNIQUE INDEX t2_id ON t2 (id)" ];
    ]

let low_stmt () =
  Migration.statement_of_sql ~name:"tsplit"
    "CREATE TABLE t_low AS (SELECT id, k, v FROM t WHERE k < 10)"
    ~extra_ddl:[ "CREATE UNIQUE INDEX t_low_id ON t_low (id)" ]

let high_stmt () =
  Migration.statement_of_sql ~name:"tsplit2"
    "CREATE TABLE t_high AS (SELECT id, k, v FROM t WHERE k >= 10)"
    ~extra_ddl:[ "CREATE UNIQUE INDEX t_high_id ON t_high (id)" ]

(* one statement, two outputs: the canonical row split (proved disjoint
   and covering, so fully invertible) *)
let row_split_spec () =
  Migration.make ~name:"tsplit" ~drop_old:[ "t" ]
    [
      {
        Migration.stmt_name = "tsplit";
        outputs = (low_stmt ()).Migration.outputs @ (high_stmt ()).Migration.outputs;
      };
    ]

(* two independent filtered statements over the same input: each is only
   lossy-invertible on its own, and each keeps its own tracker — the
   shape that forces per-row purging and the multi-shadow backward
   extraction *)
let two_stmt_split_spec () =
  Migration.make ~name:"tsplit" ~drop_old:[ "t" ] [ low_stmt (); high_stmt () ]

(* Drive a migration half-way with edits through the new schema, roll
   back, drain, and compare against a second database that never
   migrated but took the same logical edits on the old schema. *)
let rollback_vs_oracle ~spec ~new_edits ~old_edits () =
  let db = mk_kv_db 32 in
  let ld = Lazy_db.create db in
  ignore (Lazy_db.start_migration ld ~page_size:4 (spec ()) : Migrate_exec.t);
  new_edits ld;
  (match Lazy_db.rollback_migration ld with
  | Some _ -> ()
  | None -> Alcotest.fail "expected a backward runtime");
  (* old schema answers immediately (lazy backward migration) *)
  exec ld "SELECT * FROM t WHERE id = 15";
  drain ld;
  check Alcotest.bool "complete after drain" true (Lazy_db.migration_complete ld);
  Lazy_db.finalize ld;
  let odb = mk_kv_db 32 in
  List.iter
    (fun sql -> ignore (Database.exec odb sql : Executor.result))
    old_edits;
  check
    Alcotest.(list string)
    "row-exact vs never-migrated oracle"
    (rows odb "SELECT id, k, v FROM t")
    (rows db "SELECT id, k, v FROM t");
  check Alcotest.bool "new tables dropped at finalize" false
    (List.exists
       (fun n -> Catalog.exists db.Database.catalog n)
       [ "t2"; "t_low"; "t_high" ])

let copy_rollback_mid_flight () =
  rollback_vs_oracle ~spec:copy_spec
    ~new_edits:(fun ld ->
      exec ld "SELECT * FROM t2 WHERE id = 5";
      ignore (Lazy_db.background_step ld ~batch:2 : int);
      exec ld "UPDATE t2 SET v = 'edited' WHERE id = 5";
      exec ld "DELETE FROM t2 WHERE id = 6")
    ~old_edits:
      [ "UPDATE t SET v = 'edited' WHERE id = 5"; "DELETE FROM t WHERE id = 6" ]
    ()

(* A rollback after lazy requests on the unindexed [k] built and probed
   the forward runtime's probe map: the map goes with that runtime, and
   the rollback still ends row-exact. *)
let rollback_after_probe_build () =
  let was = Obs.Counters.enabled () in
  Obs.Counters.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.Counters.set_enabled was) @@ fun () ->
  let before = Obs.Counters.snapshot () in
  rollback_vs_oracle ~spec:copy_spec
    ~new_edits:(fun ld ->
      exec ld "SELECT * FROM t2 WHERE k = 3";
      exec ld "SELECT * FROM t2 WHERE k IN (4, 5)";
      ignore (Lazy_db.background_step ld ~batch:2 : int);
      exec ld "UPDATE t2 SET v = 'edited' WHERE k = 4";
      exec ld "DELETE FROM t2 WHERE k = 7")
    ~old_edits:[ "UPDATE t SET v = 'edited' WHERE k = 4"; "DELETE FROM t WHERE k = 7" ]
    ();
  let delta name =
    Option.value ~default:0
      (List.assoc_opt name (Obs.Counters.diff (Obs.Counters.snapshot ()) before))
  in
  check Alcotest.bool "the forward runtime built a probe map" true
    (delta "core.migrate.candidate_probe_builds" >= 1);
  check Alcotest.bool "later requests probed it" true
    (delta "core.migrate.candidate_probes" >= 3)

let row_split_rollback () =
  rollback_vs_oracle ~spec:row_split_spec
    ~new_edits:(fun ld ->
      exec ld "SELECT * FROM t_low WHERE id = 5";
      ignore (Lazy_db.background_step ld ~batch:2 : int);
      exec ld "UPDATE t_high SET v = 'edited' WHERE id = 15";
      exec ld "DELETE FROM t_low WHERE id = 5")
    ~old_edits:
      [ "UPDATE t SET v = 'edited' WHERE id = 15"; "DELETE FROM t WHERE id = 5" ]
    ()

let two_stmt_split_rollback () =
  rollback_vs_oracle ~spec:two_stmt_split_spec
    ~new_edits:(fun ld ->
      (* migrate granules of the t_low statement only, so rows covered by
         the not-yet-migrated t_high statement sit in "migrated" granules
         of the other tracker — the per-row purge decision under test *)
      exec ld "SELECT * FROM t_low WHERE id = 5";
      ignore (Lazy_db.background_step ld ~batch:2 : int);
      exec ld "UPDATE t_high SET v = 'edited' WHERE id = 15";
      exec ld "DELETE FROM t_low WHERE id = 5")
    ~old_edits:
      [ "UPDATE t SET v = 'edited' WHERE id = 15"; "DELETE FROM t WHERE id = 5" ]
    ()

(* a fully drained (but unfinalized) migration still rolls back *)
let rollback_after_full_drain () =
  rollback_vs_oracle ~spec:copy_spec
    ~new_edits:(fun ld ->
      drain ld;
      exec ld "UPDATE t2 SET v = 'edited' WHERE id = 5")
    ~old_edits:[ "UPDATE t SET v = 'edited' WHERE id = 5" ] ()

let tpcc_customer_split_rollback () =
  let db = tpcc_db () in
  (* the loader's c_since derives from a process-global clock, so the
     oracle is a pre-flip snapshot of THIS database, not a second load *)
  let others =
    "SELECT * FROM customer WHERE c_w_id <> 1 OR c_d_id <> 1 OR c_id <> 3"
  in
  let target_stable =
    "SELECT c_first, c_since FROM customer WHERE c_w_id = 1 AND c_d_id = 1 AND c_id = 3"
  in
  let baseline_others = rows db others in
  let baseline_target = rows db target_stable in
  let ld = Lazy_db.create db in
  ignore
    (Lazy_db.start_migration ld ~page_size:8 (Tpcc_migrations.split_spec ())
      : Migrate_exec.t);
  exec ld
    "SELECT * FROM customer_public WHERE c_w_id = 1 AND c_d_id = 1 AND c_id = 3";
  ignore (Lazy_db.background_step ld ~batch:2 : int);
  exec ld
    "UPDATE customer_private SET c_balance = 9999.5 WHERE c_w_id = 1 AND c_d_id = 1 AND c_id = 3";
  (match Lazy_db.rollback_migration ld with
  | Some _ -> ()
  | None -> Alcotest.fail "expected a backward runtime");
  exec ld
    "SELECT c_balance FROM customer WHERE c_w_id = 1 AND c_d_id = 1 AND c_id = 3";
  while Lazy_db.background_step ld ~batch:8 > 0 do
    ()
  done;
  Lazy_db.finalize ld;
  check Alcotest.(list string) "untouched customers row-exact" baseline_others
    (rows db others);
  check Alcotest.(list string) "edited customer keeps identity" baseline_target
    (rows db target_stable);
  (match
     Database.query_one db
       "SELECT c_balance FROM customer WHERE c_w_id = 1 AND c_d_id = 1 AND c_id = 3"
   with
  | [| Value.Float b |] -> check (Alcotest.float 0.0) "balance edit survives" 9999.5 b
  | _ -> Alcotest.fail "expected one float balance");
  check Alcotest.bool "halves dropped" false
    (Catalog.exists db.Database.catalog "customer_public"
    || Catalog.exists db.Database.catalog "customer_private")

(* ------------------------------------------------------------------ *)
(* randomized backward∘forward identity                                *)
(* ------------------------------------------------------------------ *)

(* Forward-migrate an arbitrary prefix, edit arbitrary surviving rows
   through the new schema, roll back, drain — the old table must equal
   the brute-force oracle (the original rows with the same edits
   applied).  Exercises copy and split shapes across random split
   boundaries, flip points, and edit sets. *)
let backward_forward_identity =
  let open QCheck in
  let gen = triple (int_range 0 20) (int_range 0 10) (int_range 0 31) in
  Test.make ~name:"backward o forward = identity on migrated rows" ~count:40 gen
    (fun (boundary, steps, edit_id) ->
      let db = mk_kv_db 32 in
      let spec () =
        if boundary = 0 then copy_spec ()
        else
          Migration.make ~name:"tsplit" ~drop_old:[ "t" ]
            [
              {
                Migration.stmt_name = "tsplit";
                outputs =
                  (Migration.statement_of_sql ~name:"a"
                     (Printf.sprintf
                        "CREATE TABLE t_low AS (SELECT id, k, v FROM t WHERE k < %d)"
                        boundary))
                    .Migration.outputs
                  @ (Migration.statement_of_sql ~name:"b"
                       (Printf.sprintf
                          "CREATE TABLE t_high AS (SELECT id, k, v FROM t WHERE k >= %d)"
                          boundary))
                      .Migration.outputs;
              };
            ]
      in
      let ld = Lazy_db.create db in
      ignore (Lazy_db.start_migration ld ~page_size:4 (spec ()) : Migrate_exec.t);
      for _ = 1 to steps do
        ignore (Lazy_db.background_step ld ~batch:1 : int)
      done;
      (* edit one row through whatever new table now owns it *)
      let owner =
        if boundary = 0 then "t2"
        else if edit_id mod 20 < boundary then "t_low"
        else "t_high"
      in
      exec ld (Printf.sprintf "UPDATE %s SET v = 'x' WHERE id = %d" owner edit_id);
      (match Lazy_db.rollback_migration ld with
      | Some _ -> ()
      | None -> failwith "expected backward runtime");
      drain ld;
      Lazy_db.finalize ld;
      let odb = mk_kv_db 32 in
      ignore
        (Database.exec odb
           (Printf.sprintf "UPDATE t SET v = 'x' WHERE id = %d" edit_id)
          : Executor.result);
      rows db "SELECT id, k, v FROM t" = rows odb "SELECT id, k, v FROM t")

(* ------------------------------------------------------------------ *)
(* Migration.serialize round-trip                                      *)
(* ------------------------------------------------------------------ *)

let serialize_roundtrip =
  let open QCheck in
  let gen = triple bool bool (int_range 1 3) in
  Test.make ~name:"Migration.serialize/deserialize round-trip" ~count:50 gen
    (fun (drop, shared, nstmts) ->
      let stmts =
        List.init nstmts (fun i ->
            if shared then
              (* shared-output shape: every statement repopulates t_old,
                 each from its own branch — a derived rollback spec *)
              Migration.statement_of_sql
                ~name:(Printf.sprintf "rb%d" i)
                (Printf.sprintf
                   "CREATE TABLE t_old AS (SELECT id, k, v FROM t%d WHERE k >= %d)"
                   i i)
            else
              Migration.statement_of_sql
                ~name:(Printf.sprintf "s%d" i)
                (Printf.sprintf
                   "CREATE TABLE out%d AS (SELECT id, k, v FROM t WHERE k >= %d)"
                   i i)
                ~extra_ddl:
                  [ Printf.sprintf "CREATE UNIQUE INDEX out%d_id ON out%d (id)" i i ])
      in
      let spec =
        Migration.make ~name:"m"
          ~drop_old:(if drop then [ "t"; "u" ] else [])
          ~allow_shared_outputs:shared stmts
      in
      let rt = Migration.deserialize (Migration.serialize spec) in
      rt.Migration.name = spec.Migration.name
      && rt.Migration.drop_old = spec.Migration.drop_old
      && rt.Migration.allow_shared_outputs = spec.Migration.allow_shared_outputs
      && List.length rt.Migration.statements = List.length spec.Migration.statements
      && Migration.serialize rt = Migration.serialize spec)

let derived_backward_roundtrips () =
  (* the spec the cluster logs in its BFMIG-RB marker is a derived one:
     shared outputs and all — it must survive the coordinator log *)
  let db = mk_kv_db 8 in
  let v = Mig_lint.lint db.Database.catalog (two_stmt_split_spec ()) in
  match v.Mig_lint.lint_backward with
  | None -> Alcotest.fail "expected derived backward spec"
  | Some b ->
      check Alcotest.bool "derived spec shares outputs" true
        b.Migration.allow_shared_outputs;
      let rt = Migration.deserialize (Migration.serialize b) in
      check Alcotest.bool "shared-output flag round-trips" true
        rt.Migration.allow_shared_outputs;
      check Alcotest.string "serialized form stable"
        (Migration.serialize b) (Migration.serialize rt)

(* ------------------------------------------------------------------ *)
(* Migration.make validation + install collision pre-pass              *)
(* ------------------------------------------------------------------ *)

let duplicate_outputs_rejected () =
  expect_sql_error "same output twice across statements" (fun () ->
      ignore
        (Migration.make ~name:"dup" [ low_stmt (); low_stmt () ] : Migration.t));
  (* the same shape is legal under allow_shared_outputs *)
  ignore
    (Migration.make ~name:"dup" ~allow_shared_outputs:true
       [ low_stmt (); low_stmt () ]
      : Migration.t);
  (* ... but a duplicate within one statement never is *)
  let o = List.hd (low_stmt ()).Migration.outputs in
  expect_sql_error "same output twice within a statement" (fun () ->
      ignore
        (Migration.make ~name:"dup" ~allow_shared_outputs:true
           [ { Migration.stmt_name = "s"; outputs = [ o; o ] } ]
          : Migration.t))

let install_collision_rejected () =
  let db = mk_kv_db 8 in
  ignore
    (Database.exec_script db "CREATE TABLE t2 (id INT PRIMARY KEY)"
      : Executor.result list);
  let ld = Lazy_db.create db in
  expect_sql_error "output collides with existing table" (fun () ->
      ignore (Lazy_db.start_migration ld (copy_spec ()) : Migrate_exec.t));
  check Alcotest.bool "no active migration" true (Lazy_db.active ld = None)

(* ------------------------------------------------------------------ *)

let suite =
  [
    Alcotest.test_case "TPC-C split is invertible (backward join derived)" `Quick
      split_invertible;
    Alcotest.test_case "TPC-C aggregate trivially invertible" `Quick
      aggregate_trivially_invertible;
    Alcotest.test_case "TPC-C join is not invertible" `Quick join_not_invertible;
    Alcotest.test_case "invertible spec installs" `Quick invertible_spec_installs;
    Alcotest.test_case "warn installs but rollback is refused" `Quick
      warn_allows_but_rollback_refused;
    Alcotest.test_case "rollback without a migration is refused" `Quick
      rollback_without_migration_refused;
    Alcotest.test_case "copy rollback mid-flight is row-exact" `Quick
      copy_rollback_mid_flight;
    Alcotest.test_case "rollback after a probe-map build is row-exact" `Quick
      rollback_after_probe_build;
    Alcotest.test_case "row-split rollback is row-exact" `Quick
      row_split_rollback;
    Alcotest.test_case "two-statement split rollback purges per row" `Quick
      two_stmt_split_rollback;
    Alcotest.test_case "rollback after full drain is row-exact" `Quick
      rollback_after_full_drain;
    Alcotest.test_case "TPC-C customer split rolls back row-exact" `Quick
      tpcc_customer_split_rollback;
    QCheck_alcotest.to_alcotest backward_forward_identity;
    QCheck_alcotest.to_alcotest serialize_roundtrip;
    Alcotest.test_case "derived backward spec round-trips the wire" `Quick
      derived_backward_roundtrips;
    Alcotest.test_case "duplicate outputs rejected by Migration.make" `Quick
      duplicate_outputs_rejected;
    Alcotest.test_case "install rejects output colliding with live table" `Quick
      install_collision_rejected;
  ]
