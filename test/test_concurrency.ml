(* Real-thread stress of the full migration loop: several OS threads run
   Algorithm 1 over overlapping candidate sets against one runtime; the
   outcome must be exactly-once (no duplicate output rows, no lost
   granules), exercising the SKIP wait path (§3.2/Fig. 1) and abort
   takeover (§3.5/Fig. 2) for real.

   The engine's write path is safe here because each heap mutation
   (including unique-index maintenance) happens under the table latch;
   the contention story of the paper lives in the trackers, which these
   threads hit concurrently for real. *)

open Bullfrog_db
open Bullfrog_core
open Bullfrog_sql

let check = Alcotest.check

let mk_db rows =
  let db = Database.create () in
  ignore
    (Database.exec_script db
       "CREATE TABLE src (id INT PRIMARY KEY, grp INT, v TEXT); CREATE INDEX src_grp ON src (grp)");
  Database.with_txn db (fun txn ->
      for i = 1 to rows do
        ignore
          (Database.exec_in db txn
             ~params:[| Value.Int i; Value.Int (i mod 16); Value.Str ("v" ^ string_of_int i) |]
             "INSERT INTO src VALUES ($1, $2, $3)"
            : Executor.result)
      done);
  db

let count db tbl =
  match Database.query_one db ("SELECT COUNT(*) FROM " ^ tbl) with
  | [| Value.Int n |] -> n
  | _ -> -1

(* Threads race migrate_for_preds over overlapping id ranges. *)
let threaded_bitmap_migration () =
  let rows = 256 in
  let db = mk_db rows in
  let bf = Lazy_db.create db in
  let spec =
    Migration.make ~name:"copy"
      [ Migration.statement_of_sql "CREATE TABLE dst AS (SELECT id, grp, v FROM src)" ]
  in
  let rt = Lazy_db.start_migration bf spec in
  let errors = ref [] in
  let err_mu = Mutex.create () in
  let threads =
    List.init 6 (fun t ->
        Thread.create
          (fun () ->
            try
              let report = Migrate_exec.new_report () in
              (* overlapping slices: [t*32, t*32+96) *)
              let lo = (t * 32) + 1 and hi = min rows ((t * 32) + 96) in
              Migrate_exec.migrate_for_preds rt report
                (Migrate_exec.compile_preds rt
                   [
                     ( "src",
                       Some
                         (Parser.parse_expr
                            (Printf.sprintf "id >= %d AND id <= %d" lo hi)) );
                   ])
            with e ->
              Mutex.lock err_mu;
              errors := Printexc.to_string e :: !errors;
              Mutex.unlock err_mu)
          ())
  in
  List.iter Thread.join threads;
  (match !errors with
  | [] -> ()
  | e :: _ -> Alcotest.failf "thread raised: %s" e);
  (* the six overlapping slices cover every id exactly once *)
  let migrated = count db "dst" in
  check Alcotest.int "no duplicates from racing workers" rows migrated;
  (match
     Database.query_one db "SELECT COUNT(DISTINCT (id)) FROM dst"
   with
  | [| Value.Int distinct |] -> check Alcotest.int "all ids distinct" migrated distinct
  | _ -> Alcotest.fail "distinct");
  (* the rest via background *)
  let rec drain () = if Lazy_db.background_step bf ~batch:64 > 0 then drain () in
  drain ();
  check Alcotest.int "complete" rows (count db "dst");
  check Alcotest.bool "verified" true (Migrate_exec.verify_complete rt)

let threaded_hash_migration () =
  let rows = 160 in
  let db = mk_db rows in
  let bf = Lazy_db.create db in
  let spec =
    Migration.make ~name:"agg"
      [
        Migration.statement_of_sql
          "CREATE TABLE grp_count AS (SELECT grp, COUNT(*) AS n FROM src GROUP BY grp)";
      ]
  in
  let rt = Lazy_db.start_migration bf spec in
  let threads =
    List.init 6 (fun t ->
        Thread.create
          (fun () ->
            let report = Migrate_exec.new_report () in
            (* every thread asks for a band of groups, overlapping heavily *)
            Migrate_exec.migrate_for_preds rt report
              (Migrate_exec.compile_preds rt
                 [
                   ( "src",
                     Some
                       (Parser.parse_expr
                          (Printf.sprintf "grp >= %d AND grp <= %d" (t mod 4) ((t mod 4) + 12)))
                   );
                 ]))
          ())
  in
  List.iter Thread.join threads;
  let rec drain () = if Lazy_db.background_step bf ~batch:64 > 0 then drain () in
  drain ();
  check Alcotest.int "16 groups exactly once" 16 (count db "grp_count");
  (* totals correct despite the races *)
  match
    Database.query_one db "SELECT SUM(n) FROM grp_count"
  with
  | [| Value.Int total |] -> check Alcotest.int "group sizes sum to rows" rows total
  | _ -> Alcotest.fail "sum"

(* Snapshot readers race the migration flip and the background migrator.
   Each granule move is one timestamped commit, so a reader's COUNT over
   a granule's id range must be 0 or the whole granule — a half-migrated
   granule must never be visible at any snapshot.  And reads are
   latch-free: none may stall anywhere near the lock-manager timeout
   (the generous bound below only has to absorb 1-core scheduling). *)
let snapshot_readers_during_flip () =
  let rows = 256 and page = 4 in
  let db = mk_db rows in
  let bf = Lazy_db.create db in
  let granules = rows / page in
  let violations = ref [] in
  let max_lat = ref 0.0 in
  let mu = Mutex.create () in
  let stop = ref false in
  let readers =
    List.init 4 (fun r ->
        Thread.create
          (fun () ->
            let g = ref r in
            while not !stop do
              let p = !g mod granules in
              incr g;
              (* ids are 1-based, tids 0-based: granule p = ids (p*page, p*page+page] *)
              let lo = (p * page) + 1 and hi = (p * page) + page in
              let t0 = Unix.gettimeofday () in
              (match
                 try
                   Some
                     (Database.query_one db
                        (Printf.sprintf
                           "SELECT COUNT(*) FROM dst WHERE id >= %d AND id <= %d" lo hi))
                 with Db_error.Sql_error _ -> None (* pre-flip: dst not yet flipped in *)
               with
              | Some [| Value.Int n |] when n <> 0 && n <> page ->
                  Mutex.lock mu;
                  violations := (p, n) :: !violations;
                  Mutex.unlock mu
              | _ -> ());
              let dt = Unix.gettimeofday () -. t0 in
              Mutex.lock mu;
              if dt > !max_lat then max_lat := dt;
              Mutex.unlock mu
            done)
          ())
  in
  (* let the readers observe the pre-flip world, then flip under them *)
  Unix.sleepf 0.02;
  let spec =
    Migration.make ~name:"copy"
      [ Migration.statement_of_sql "CREATE TABLE dst AS (SELECT id, grp, v FROM src)" ]
  in
  let rt = Lazy_db.start_migration ~page_size:page bf spec in
  (* paced background migrator: the sleep hands the core to the readers
     between granule commits (systhreads only preempt every ~50ms) *)
  let rec drain () =
    if Lazy_db.background_step bf ~batch:3 > 0 then begin
      Unix.sleepf 0.005;
      drain ()
    end
  in
  drain ();
  Unix.sleepf 0.02;
  stop := true;
  List.iter Thread.join readers;
  (match !violations with
  | [] -> ()
  | (p, n) :: _ ->
      Alcotest.failf "half-migrated granule visible: granule %d showed %d of %d rows" p n page);
  check Alcotest.bool "readers never stalled" true (!max_lat < 1.0);
  check Alcotest.int "copy complete" rows (count db "dst");
  check Alcotest.bool "verified" true (Migrate_exec.verify_complete rt)

let suite =
  [
    Alcotest.test_case "threads race the bitmap migration" `Slow threaded_bitmap_migration;
    Alcotest.test_case "threads race the hashmap migration" `Slow threaded_hash_migration;
    Alcotest.test_case "snapshot readers race the flip" `Slow snapshot_readers_during_flip;
  ]
