(* Cluster coverage: predicate routing (with counter evidence), 2PC
   atomicity for cross-shard writes, scatter/gather merge checked
   against a single-node oracle, the QCheck routed-vs-broadcast
   equivalence property, the 2PC fault-sweep cells, a row-moving
   migration whose new partition key differs from the sharding key,
   whole-cluster crash recovery, and budgeted vacuum equivalence. *)

open Bullfrog_db
open Bullfrog_cluster
module Fault_sweep = Bullfrog_core.Fault_sweep
module Migration = Bullfrog_core.Migration
module Lazy_db = Bullfrog_core.Lazy_db
module Migrate_exec = Bullfrog_core.Migrate_exec

let check = Alcotest.check

let row_str row =
  String.concat "|" (List.map Value.to_string (Array.to_list row))

let sorted_rows_c c sql = List.sort compare (List.map row_str (Cluster.query c sql))

let sorted_rows_db db sql =
  List.sort compare (List.map row_str (Database.query db sql))

let with_counters f =
  let was = Obs.Counters.enabled () in
  Obs.Counters.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.Counters.set_enabled was) f

let counter_delta before after name =
  match List.assoc_opt name (Obs.Counters.diff after before) with
  | Some n -> n
  | None -> 0

(* A 4-shard cluster with [n] rows (id PK, v = 'g<id mod 3>'). *)
let mk_cluster ?(shards = 4) n =
  let c = Cluster.create ~shards () in
  ignore (Cluster.exec c "CREATE TABLE t (id INT PRIMARY KEY, v TEXT)"
           : Executor.result);
  let values =
    String.concat ", "
      (List.init n (fun i -> Printf.sprintf "(%d, 'g%d')" i (i mod 3)))
  in
  if n > 0 then
    ignore (Cluster.exec c ("INSERT INTO t VALUES " ^ values) : Executor.result);
  c

(* ------------------------------------------------------------------ *)
(* Routing: PK point queries touch exactly one shard                   *)
(* ------------------------------------------------------------------ *)

let point_query_routing () =
  with_counters @@ fun () ->
  let c = mk_cluster 40 in
  let before = Obs.Counters.snapshot () in
  for i = 0 to 19 do
    let rows = Cluster.query c (Printf.sprintf "SELECT v FROM t WHERE id = %d" i) in
    check Alcotest.int "point query returns its row" 1 (List.length rows);
    check Alcotest.string "right value"
      (Printf.sprintf "g%d" (i mod 3))
      (row_str (List.hd rows))
  done;
  let after = Obs.Counters.snapshot () in
  check Alcotest.int "20 selects" 20 (counter_delta before after "shard.selects");
  check Alcotest.int "every PK point query routed to one shard" 20
    (counter_delta before after "shard.selects_single");
  check Alcotest.int "no scatters" 0 (counter_delta before after "shard.scatters");
  (* a non-partition-column predicate must scatter *)
  let before = Obs.Counters.snapshot () in
  let rows = Cluster.query c "SELECT id FROM t WHERE v = 'g1'" in
  let after = Obs.Counters.snapshot () in
  check Alcotest.int "broadcast finds all matches" 13 (List.length rows);
  check Alcotest.int "one scatter" 1 (counter_delta before after "shard.scatters")

(* ------------------------------------------------------------------ *)
(* 2PC: cross-shard statements commit or abort atomically              *)
(* ------------------------------------------------------------------ *)

let cross_shard_atomicity () =
  with_counters @@ fun () ->
  let c = mk_cluster 8 in
  let before = Obs.Counters.snapshot () in
  (* a multi-row insert with a duplicate key aborts on EVERY shard,
     including shards whose local rows were conflict-free *)
  (try
     ignore
       (Cluster.exec c "INSERT INTO t VALUES (100, 'x'), (101, 'y'), (3, 'dup')"
         : Executor.result);
     Alcotest.fail "duplicate key must fail"
   with Db_error.Constraint_violation _ | Db_error.Sql_error _ -> ());
  check (Alcotest.list Alcotest.string) "no partial insert survives" []
    (sorted_rows_c c "SELECT id FROM t WHERE id >= 100");
  let after = Obs.Counters.snapshot () in
  check Alcotest.bool "abort counted" true
    (counter_delta before after "shard.2pc_aborts" >= 1);
  (* a clean cross-shard insert is visible everywhere at once *)
  (match Cluster.exec c "INSERT INTO t VALUES (100, 'x'), (101, 'y'), (102, 'z')" with
  | Executor.Affected 3 -> ()
  | _ -> Alcotest.fail "cross-shard insert should affect 3 rows");
  check Alcotest.int "all three present" 3
    (List.length (Cluster.query c "SELECT id FROM t WHERE id >= 100"));
  (* cross-shard delete *)
  (match Cluster.exec c "DELETE FROM t WHERE id IN (100, 101, 102)" with
  | Executor.Affected 3 -> ()
  | _ -> Alcotest.fail "cross-shard delete should affect 3 rows");
  check Alcotest.int "gone" 0
    (List.length (Cluster.query c "SELECT id FROM t WHERE id >= 100"))

(* ------------------------------------------------------------------ *)
(* Scatter/gather merge vs a single-node oracle                        *)
(* ------------------------------------------------------------------ *)

let scatter_merge_oracle () =
  let n = 30 in
  let c = mk_cluster n in
  let db = Database.create () in
  ignore (Database.exec db "CREATE TABLE t (id INT PRIMARY KEY, v TEXT)"
           : Executor.result);
  ignore
    (Database.exec db
       ("INSERT INTO t VALUES "
       ^ String.concat ", "
           (List.init n (fun i -> Printf.sprintf "(%d, 'g%d')" i (i mod 3))))
      : Executor.result);
  let same sql =
    check (Alcotest.list Alcotest.string) sql (sorted_rows_db db sql)
      (sorted_rows_c c sql)
  in
  let same_ordered sql =
    check (Alcotest.list Alcotest.string) sql
      (List.map row_str (Database.query db sql))
      (List.map row_str (Cluster.query c sql))
  in
  same "SELECT id, v FROM t";
  same "SELECT DISTINCT v FROM t";
  same "SELECT id FROM t WHERE id >= 10 AND id < 25";
  same_ordered "SELECT id, v FROM t ORDER BY id DESC LIMIT 7";
  same_ordered "SELECT id FROM t WHERE v = 'g2' ORDER BY id LIMIT 4";
  check Alcotest.string "count-star merge"
    (row_str (Database.query_one db "SELECT COUNT(*) FROM t WHERE v >= 'g1'"))
    (row_str (Cluster.query_one c "SELECT COUNT(*) FROM t WHERE v >= 'g1'"));
  (* writes report the same affected counts and converge to the same rows *)
  let same_write sql =
    let a = Database.exec db sql and b = Cluster.exec c sql in
    (match (a, b) with
    | Executor.Affected x, Executor.Affected y ->
        check Alcotest.int ("affected: " ^ sql) x y
    | _ -> Alcotest.fail ("unexpected result shape: " ^ sql));
    same "SELECT id, v FROM t"
  in
  same_write "UPDATE t SET v = 'hot' WHERE id < 10";
  same_write "UPDATE t SET v = 'cold' WHERE id = 17";
  same_write "DELETE FROM t WHERE id IN (2, 13, 21, 28)";
  same_write "DELETE FROM t WHERE v = 'g1'"

(* ------------------------------------------------------------------ *)
(* Scatter runs on the calling thread                                  *)
(* ------------------------------------------------------------------ *)

(* A non-prunable scan visits each candidate shard once, in its own
   "shard-N" span directly under "route", all on the caller's thread. *)
let scatter_on_calling_thread () =
  let module T = Obs.Trace in
  let c = mk_cluster 40 in
  Fun.protect ~finally:(fun () ->
      T.disable ();
      T.clear ();
      Cluster.close c)
  @@ fun () ->
  T.enable ~capacity:4_096 ();
  T.clear ();
  let rows = Cluster.query c "SELECT id FROM t WHERE v = 'g1'" in
  check Alcotest.int "scan finds all matches" 13 (List.length rows);
  let begins = List.filter (fun e -> e.T.ev_phase = T.Span_begin) (T.export ()) in
  let route =
    match List.filter (fun e -> e.T.ev_name = "route") begins with
    | [ r ] -> r
    | l -> Alcotest.fail (Printf.sprintf "expected one route span, got %d" (List.length l))
  in
  let shards =
    List.filter
      (fun e -> String.length e.T.ev_name > 6 && String.sub e.T.ev_name 0 6 = "shard-")
      begins
  in
  check (Alcotest.list Alcotest.string) "one span per candidate shard"
    [ "shard-0"; "shard-1"; "shard-2"; "shard-3" ]
    (List.sort compare (List.map (fun e -> e.T.ev_name) shards));
  let me = Thread.id (Thread.self ()) in
  List.iter
    (fun e ->
      check Alcotest.int (e.T.ev_name ^ " is a child of route") route.T.ev_span
        e.T.ev_parent;
      check Alcotest.int (e.T.ev_name ^ " ran on the calling thread") me e.T.ev_tid)
    shards

(* One shard's share of a scan raises: the caller sees that error, and
   every shard is left with no open transaction, so the next
   cross-shard write and scan go through. *)
let scatter_error_reraised () =
  let c = Cluster.create ~shards:4 () in
  Fun.protect ~finally:(fun () -> Cluster.close c) @@ fun () ->
  ignore (Cluster.exec c "CREATE TABLE d (id INT PRIMARY KEY, n INT)" : Executor.result);
  ignore
    (Cluster.exec c
       ("INSERT INTO d VALUES "
       ^ String.concat ", "
           (List.init 20 (fun i -> Printf.sprintf "(%d, %d)" i (if i = 7 then 0 else 1))))
      : Executor.result);
  let shard_ids = List.init (Cluster.shard_count c) Fun.id in
  let zero_on s = Database.query (Cluster.shard_db c s) "SELECT id FROM d WHERE n = 0" <> [] in
  check Alcotest.int "the zero lives on one shard" 1
    (List.length (List.filter zero_on shard_ids));
  (match Cluster.query c "SELECT id, 10 / n FROM d" with
  | _ -> Alcotest.fail "the failing shard's error must reach the caller"
  | exception Expr.Eval_error msg ->
      check Alcotest.string "the shard's own error" "division by zero" msg);
  List.iter
    (fun s ->
      let db = Cluster.shard_db c s in
      for owner = 1 to db.Database.next_txn_id - 1 do
        check Alcotest.int
          (Printf.sprintf "shard %d txn %d holds no locks" s owner)
          0
          (Lock_manager.held_count db.Database.locks ~owner)
      done)
    shard_ids;
  (match Cluster.exec c "UPDATE d SET n = n + 1" with
  | Executor.Affected 20 -> ()
  | _ -> Alcotest.fail "cross-shard update after the error should affect 20 rows");
  check Alcotest.int "scan works again" 20
    (List.length (Cluster.query c "SELECT id, 10 / n FROM d"))

(* ------------------------------------------------------------------ *)
(* QCheck: routed scatter/gather == broadcast to every shard           *)
(* ------------------------------------------------------------------ *)

let pred_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun k -> Printf.sprintf "id = %d" k) (int_bound 70);
        map2
          (fun a b ->
            Printf.sprintf "id >= %d AND id < %d" (min a b) (max a b))
          (int_bound 70) (int_bound 70);
        map
          (fun ks ->
            Printf.sprintf "id IN (%s)"
              (String.concat ", " (List.map string_of_int ks)))
          (list_size (int_range 1 5) (int_bound 70));
        map (fun k -> Printf.sprintf "v = 'g%d'" (k mod 3)) (int_bound 70);
        map2
          (fun a b -> Printf.sprintf "id = %d OR id = %d" a b)
          (int_bound 70) (int_bound 70);
        map2
          (fun a b ->
            Printf.sprintf "id = %d AND v = 'g%d'" a (b mod 3))
          (int_bound 70) (int_bound 70);
      ])

let routed_vs_broadcast =
  (* two long-lived read-only clusters: hash- and range-partitioned *)
  let hash_c = lazy (mk_cluster 60) in
  let range_c =
    lazy
      (let c = Cluster.create ~shards:4 () in
       ignore (Cluster.exec c "CREATE TABLE t (id INT PRIMARY KEY, v TEXT)"
                : Executor.result);
       Cluster.set_partition c "t"
         (Partition.range ~column:"id"
            [ Value.Int 15; Value.Int 30; Value.Int 45 ]);
       ignore
         (Cluster.exec c
            ("INSERT INTO t VALUES "
            ^ String.concat ", "
                (List.init 60 (fun i -> Printf.sprintf "(%d, 'g%d')" i (i mod 3))))
           : Executor.result);
       c)
  in
  let prop (use_range, pred) =
    let c = Lazy.force (if use_range then range_c else hash_c) in
    let sql = "SELECT id, v FROM t WHERE " ^ pred in
    let routed = sorted_rows_c c sql in
    let broadcast =
      List.sort compare
        (List.concat
           (List.init (Cluster.shard_count c) (fun i ->
                List.map row_str (Database.query (Cluster.shard_db c i) sql))))
    in
    routed = broadcast
  in
  QCheck.Test.make ~count:80 ~name:"routed scatter/gather == broadcast"
    (QCheck.make
       ~print:(fun (r, p) ->
         Printf.sprintf "%s partition, WHERE %s" (if r then "range" else "hash") p)
       QCheck.Gen.(pair bool pred_gen))
    prop

(* ------------------------------------------------------------------ *)
(* 2PC crash points: every cell recovers to the oracle                 *)
(* ------------------------------------------------------------------ *)

let sweep_cells () =
  let cells = Cluster_sweep.run_bounded () in
  List.iter
    (fun cl ->
      if not cl.Fault_sweep.c_ok then
        Alcotest.failf "cell not ok: %s" (Fault_sweep.pp_cell cl))
    cells;
  (* 3 armed 2PC points for cluster2pc, the same 3 and the finalize
     point for cluster_mig *)
  check Alcotest.int "every 2PC crash point reached" 7
    (Fault_sweep.fired_count cells);
  Cluster_sweep.register ();
  Cluster_sweep.register ();
  List.iter
    (fun name ->
      check Alcotest.bool (name ^ " registered once") true
        (List.exists
           (fun s -> s.Fault_sweep.sc_name = name)
           (Fault_sweep.all_scenarios ())))
    [ "cluster2pc"; "cluster_mig" ]

(* Every crash point the mid-migration sweep reaches must leave a
   post-mortem-readable flight-recorder dump naming the point that
   fired — the crash path is exactly what the recorder exists for. *)
let sweep_leaves_flight_dumps () =
  let module Fault = Bullfrog_core.Fault in
  let was = Obs.Flight.enabled () in
  let old_path = Obs.Flight.path () in
  let dump = Filename.temp_file "bf_sweep_flight" ".dump" in
  Fun.protect ~finally:(fun () ->
      (try Sys.remove dump with Sys_error _ -> ());
      Obs.Flight.set_path old_path;
      Obs.Flight.set_enabled was)
  @@ fun () ->
  Obs.Flight.set_enabled true;
  Obs.Flight.set_path dump;
  Cluster_sweep.register ();
  let sc = Fault_sweep.find_scenario "cluster_mig" in
  let oracle = sc.Fault_sweep.sc_run () in
  List.iter
    (fun point ->
      (try Sys.remove dump with Sys_error _ -> ());
      let cell = Fault_sweep.run_cell sc oracle point in
      check Alcotest.bool
        (Printf.sprintf "point %s fired and recovered" (Fault.name_of point))
        true
        (cell.Fault_sweep.c_fired && cell.Fault_sweep.c_ok);
      let reason, entries = Obs.Flight.load dump in
      check Alcotest.string "dump names the crash point" (Fault.name_of point)
        reason;
      check Alcotest.bool "dump carries the fault note" true
        (List.exists
           (fun e ->
             e.Obs.Flight.fl_cat = "fault"
             &&
             let n = Fault.name_of point and m = e.Obs.Flight.fl_msg in
             let ln = String.length n in
             let rec has i =
               i + ln <= String.length m && (String.sub m i ln = n || has (i + 1))
             in
             has 0)
           entries))
    Cluster_sweep.mig_points

(* ------------------------------------------------------------------ *)
(* Migration that changes the partition key: rows move between shards  *)
(* ------------------------------------------------------------------ *)

let regroup_spec () =
  Migration.make ~name:"regroup" ~drop_old:[ "src" ]
    [
      Migration.statement_of_sql ~name:"dst"
        "CREATE TABLE dst AS (SELECT id, grp, v FROM src)";
    ]

let mig_setup exec =
  exec "CREATE TABLE src (id INT PRIMARY KEY, grp INT, v TEXT)";
  exec
    ("INSERT INTO src VALUES "
    ^ String.concat ", "
        (List.init 24 (fun i -> Printf.sprintf "(%d, %d, 'r%02d')" i (i mod 5) i)))

let migration_row_movement () =
  with_counters @@ fun () ->
  let shards = 4 in
  let c = Cluster.create ~shards () in
  mig_setup (fun sql -> ignore (Cluster.exec c sql : Executor.result));
  (* single-node oracle runs the identical lazy migration *)
  let odb = Database.create () in
  mig_setup (fun sql -> ignore (Database.exec odb sql : Executor.result));
  let obf = Lazy_db.create odb in
  ignore (Lazy_db.start_migration obf (regroup_spec ()) : Migrate_exec.t);
  let part = Partition.hash ~column:"grp" ~shards in
  let epoch0 = Cluster.epoch c in
  let before = Obs.Counters.snapshot () in
  Cluster.start_migration ~partitions:[ ("dst", part) ] c (regroup_spec ());
  check Alcotest.int "epoch published after all shards ack" (epoch0 + 1)
    (Cluster.epoch c);
  check Alcotest.bool "migration active" true
    (Cluster.active_migration c <> None);
  (* lazy drive: the grp=3 slice migrates on demand, row-exact vs oracle *)
  let drive = "SELECT v FROM dst WHERE grp = 3" in
  let oracle_drive =
    match Lazy_db.exec obf drive with
    | Executor.Rows (_, rows) -> List.sort compare (List.map row_str rows)
    | _ -> Alcotest.fail "oracle drive should return rows"
  in
  check (Alcotest.list Alcotest.string) "lazy slice row-exact vs oracle"
    oracle_drive (sorted_rows_c c drive);
  (* the driven slice already sits on its new home shard *)
  let home = Partition.shard_of_value part (Value.Int 3) in
  for i = 0 to shards - 1 do
    let here =
      List.length (Database.query (Cluster.shard_db c i) "SELECT id FROM dst WHERE grp = 3")
    in
    check Alcotest.int
      (Printf.sprintf "grp=3 rows on shard %d" i)
      (if i = home then List.length oracle_drive else 0)
      here
  done;
  (* drain the background migrator on both sides *)
  let fuel = ref 200 in
  while (not (Cluster.migration_complete c)) && !fuel > 0 do
    decr fuel;
    ignore (Cluster.background_step c ~batch:4 : int)
  done;
  check Alcotest.bool "cluster migration completes" true
    (Cluster.migration_complete c);
  let rec drain () = if Lazy_db.background_step obf ~batch:8 > 0 then drain () in
  drain ();
  Cluster.finalize c;
  Lazy_db.finalize obf;
  let after = Obs.Counters.snapshot () in
  check Alcotest.bool "rows moved between shards" true
    (counter_delta before after "shard.rows_moved" > 0);
  (* row-exact vs the single-node oracle *)
  check (Alcotest.list Alcotest.string) "final table row-exact vs oracle"
    (sorted_rows_db odb "SELECT id, grp, v FROM dst")
    (sorted_rows_c c "SELECT id, grp, v FROM dst");
  (* every row lives on its new home shard *)
  for i = 0 to shards - 1 do
    List.iter
      (fun row ->
        match row with
        | [| Value.Int _; g; _ |] ->
            check Alcotest.int "row on its grp-hash home shard"
              (Partition.shard_of_value part g) i
        | _ -> Alcotest.fail "unexpected row shape")
      (Database.query (Cluster.shard_db c i) "SELECT id, grp, v FROM dst")
  done;
  (* the dropped input is gone from the cluster frontend *)
  (try
     ignore (Cluster.query c "SELECT id FROM src" : Value.t array list);
     Alcotest.fail "src must be dropped after finalize"
   with Db_error.Sql_error _ -> ());
  (* and PK point queries on the NEW partition key route to one shard *)
  let b0 = Obs.Counters.snapshot () in
  ignore (Cluster.query c "SELECT v FROM dst WHERE grp = 2" : Value.t array list);
  let b1 = Obs.Counters.snapshot () in
  check Alcotest.int "new-key point query routes single" 1
    (counter_delta b0 b1 "shard.selects_single")

(* One call's misplaced rows move in ONE 2PC.  An uncrashed run shows
   the batching (more rows moved than 2PCs committed); a crash between
   the prepares of that first multi-row move recovers, under presumed
   abort, to every row on exactly one shard — its home — once the
   migration drains. *)
let multi_row_move_crash () =
  with_counters @@ fun () ->
  let module Fault = Bullfrog_core.Fault in
  let shards = 4 in
  let part = Partition.hash ~column:"grp" ~shards in
  let drive = "SELECT v FROM dst WHERE grp IN (0, 1, 2, 3, 4)" in
  let fresh () =
    let c = Cluster.create ~shards () in
    mig_setup (fun sql -> ignore (Cluster.exec c sql : Executor.result));
    Cluster.start_migration ~partitions:[ ("dst", part) ] c (regroup_spec ());
    c
  in
  let clean = fresh () in
  let b0 = Obs.Counters.snapshot () in
  ignore (Cluster.exec clean drive : Executor.result);
  let b1 = Obs.Counters.snapshot () in
  let moved = counter_delta b0 b1 "shard.rows_moved"
  and commits = counter_delta b0 b1 "shard.2pc_commits" in
  check Alcotest.bool
    (Printf.sprintf "%d rows moved in %d 2PCs" moved commits)
    true
    (commits > 0 && moved > commits);
  let c = fresh () in
  (* the drive migrates shard 0 first, so the first 2PC is its move *)
  let first_move =
    List.length
      (List.filter
         (fun row -> Partition.shard_of_value part row.(0) <> 0)
         (Database.query (Cluster.shard_db c 0) "SELECT grp FROM src"))
  in
  check Alcotest.bool "the crashed move is multi-row" true (first_move >= 2);
  Fault.arm Fault.p_2pc_prepare;
  let c =
    match Cluster.exec c drive with
    | _ ->
        Fault.disarm ();
        Alcotest.fail "the armed move should have crashed"
    | exception Fault.Crash _ ->
        Fault.disarm ();
        Cluster.recover c
  in
  ignore (Cluster.exec c drive : Executor.result);
  while not (Cluster.migration_complete c) do
    ignore (Cluster.background_step c ~batch:8 : int)
  done;
  Cluster.finalize c;
  let placed =
    List.concat
      (List.init shards (fun i ->
           List.map
             (fun row ->
               match row with
               | [| Value.Int id; g; _ |] ->
                   check Alcotest.int
                     (Printf.sprintf "id %d on its home shard" id)
                     (Partition.shard_of_value part g) i;
                   id
               | _ -> Alcotest.fail "unexpected row shape")
             (Database.query (Cluster.shard_db c i) "SELECT id, grp, v FROM dst")))
  in
  check (Alcotest.list Alcotest.int) "every row on exactly one shard"
    (List.init 24 Fun.id) (List.sort compare placed)

(* Each shard's statement cache parses a SQL text once and the call's
   parameters bind per call; a text that does not parse raises on every
   call and is never cached. *)
let stmt_cache_binds_per_call () =
  let c = mk_cluster 12 in
  let sql = "SELECT v FROM t WHERE id = $1" in
  List.iter
    (fun id ->
      check (Alcotest.list Alcotest.string)
        (Printf.sprintf "id %d" id)
        [ Printf.sprintf "g%d" (id mod 3) ]
        (List.map row_str (Cluster.query c ~params:[| Value.Int id |] sql)))
    [ 1; 5; 5; 10; 1 ];
  let bad = "SELEC v FROM t" in
  for _ = 1 to 2 do
    match Cluster.exec c bad with
    | _ -> Alcotest.fail "expected a parse error"
    | exception Bullfrog_sql.Parser.Parse_error _ -> ()
  done;
  for i = 0 to Cluster.shard_count c - 1 do
    check Alcotest.bool
      (Printf.sprintf "shard %d cached no entry for the bad text" i)
      false
      (Hashtbl.mem (Cluster.shard_db c i).Database.stmt_cache bad)
  done

(* Routing reads [$n] from the call's parameters: a WHERE routes
   exactly where the same WHERE with the values spliced in as literals
   does, for hash and range partitions; a NULL key routes nowhere and a
   parameter the call does not supply is opaque. *)
let route_with_params () =
  let where sql = Some (Bullfrog_sql.Parser.parse_expr sql) in
  let parts =
    [
      ("hash", Partition.hash ~column:"id" ~shards:4);
      ("range", Partition.range ~column:"id" [ Value.Int 10; Value.Int 20; Value.Int 30 ]);
    ]
  in
  let shapes =
    [
      "id = $1";
      "v = 'x' AND $1 = T.ID AND id > 0";
      "id IN ($1, NULL, $2)";
      "id = $1 OR id = $2";
      "id = $1 AND id = $2";
      "T.ID BETWEEN $1 AND $2";
    ]
  in
  (* [$1] -> [a], [$2] -> [b] *)
  let literal a b shape =
    let buf = Buffer.create 64 in
    String.iteri
      (fun i ch ->
        if ch = '$' then ()
        else if i > 0 && shape.[i - 1] = '$' then
          Buffer.add_string buf (if ch = '1' then a else b)
        else Buffer.add_char buf ch)
      shape;
    Buffer.contents buf
  in
  List.iter
    (fun (name, p) ->
      let ints = Alcotest.(list int) in
      for k = 0 to 40 do
        let params = [| Value.Int k; Value.Int (k + 7) |] in
        List.iter
          (fun shape ->
            let lit = literal (string_of_int k) (string_of_int (k + 7)) shape in
            check ints
              (Printf.sprintf "%s: %s routes like %s" name shape lit)
              (Partition.route p (where lit))
              (Partition.route ~params p (where shape)))
          shapes
      done;
      let all = List.init (Partition.shard_count p) Fun.id in
      check ints (name ^ ": a NULL key matches no shard") []
        (Partition.route ~params:[| Value.Null |] p (where "id = $1"));
      check ints (name ^ ": an unsupplied parameter is opaque") all
        (Partition.route ~params:[| Value.Int 1 |] p (where "id = $2"));
      check ints (name ^ ": a WHERE without the key goes everywhere") all
        (Partition.route ~params:[| Value.Str "x" |] p (where "v = $1")))
    parts

(* A routed call looks its text up in shard 0's statement cache, whose
   interception speaks for the statement, and in the cache of the shard
   it runs on: two lookups off shard 0, one on it. *)
let routed_call_lookups () =
  with_counters @@ fun () ->
  let c = mk_cluster 12 in
  let sql = "SELECT v FROM t WHERE id = $1" in
  let part = Option.get (Cluster.partition_of c "t") in
  let on_shard0 id = Partition.shard_of_value part (Value.Int id) = 0 in
  let ids = List.init 12 Fun.id in
  List.iter
    (fun (label, id, expected) ->
      ignore (Cluster.query c ~params:[| Value.Int id |] sql : Value.t array list);
      let before = Obs.Counters.snapshot () in
      for _ = 1 to 10 do
        ignore (Cluster.query c ~params:[| Value.Int id |] sql : Value.t array list)
      done;
      let after = Obs.Counters.snapshot () in
      check Alcotest.int label expected
        (counter_delta before after "db.stmt_cache.hits"
        + counter_delta before after "db.stmt_cache.misses"))
    [
      ("routed off shard 0: two lookups per call", List.find (fun i -> not (on_shard0 i)) ids, 20);
      ("routed to shard 0: one lookup per call", List.find on_shard0 ids, 10);
    ]

(* ------------------------------------------------------------------ *)
(* One request path: shards intercept through their own caches         *)
(* ------------------------------------------------------------------ *)

(* t split column-wise by two independent statements: a request naming
   one output drives only the statement behind it (§3.1). *)
let vsplit_spec () =
  Migration.make ~name:"vsplit" ~drop_old:[ "t" ]
    [
      Migration.statement_of_sql ~name:"ta" "CREATE TABLE ta AS (SELECT id, v FROM t)";
      Migration.statement_of_sql ~name:"tb" "CREATE TABLE tb AS (SELECT id FROM t)";
    ]

(* Rows of [table] per shard, read straight from the shard databases so
   the read drives no lazy migration. *)
let rows_per_shard c table =
  List.init (Cluster.shard_count c) (fun i ->
      List.length (Database.query (Cluster.shard_db c i) ("SELECT id FROM " ^ table)))

(* A prepared text repeated against a migrating cluster builds one
   interception entry per shard, and the shard it routes to reuses its
   cached plan. *)
let repeated_text_caches () =
  with_counters @@ fun () ->
  let c = mk_cluster 40 in
  Cluster.start_migration c (vsplit_spec ());
  let sql = "SELECT v FROM ta WHERE id = $1" in
  let before = Obs.Counters.snapshot () in
  for i = 0 to 19 do
    check (Alcotest.list Alcotest.string)
      (Printf.sprintf "id %d" i)
      [ Printf.sprintf "g%d" (i mod 3) ]
      (List.map row_str (Cluster.query c ~params:[| Value.Int i |] sql))
  done;
  let after = Obs.Counters.snapshot () in
  let d = counter_delta before after in
  check Alcotest.int "one interception entry per shard" (Cluster.shard_count c)
    (d "core.migrate.intercept_builds");
  check Alcotest.bool
    (Printf.sprintf "plans built at most once per shard (%d)" (d "db.plan_cache.misses"))
    true
    (d "db.plan_cache.misses" <= Cluster.shard_count c);
  check Alcotest.bool
    (Printf.sprintf "repeats hit the shard plan caches (%d)" (d "db.plan_cache.hits"))
    true
    (d "db.plan_cache.hits" >= 20 - Cluster.shard_count c)

(* A point statement migrates on its routed shard alone: one candidate
   scan (one lazy-migrate span), and its row lands on that shard. *)
let routed_point_migrates_one_shard () =
  let module T = Obs.Trace in
  let c = mk_cluster 40 in
  Cluster.start_migration c (vsplit_spec ());
  let home =
    match Cluster.partition_of c "t" with
    | Some p -> Partition.shard_of_value p (Value.Int 7)
    | None -> Alcotest.fail "t has a partition"
  in
  Fun.protect ~finally:(fun () ->
      T.disable ();
      T.clear ())
  @@ fun () ->
  T.enable ~capacity:4_096 ();
  T.clear ();
  check (Alcotest.list Alcotest.string) "row 7" [ "g1" ]
    (List.map row_str (Cluster.query c ~params:[| Value.Int 7 |] "SELECT v FROM ta WHERE id = $1"));
  let scans =
    List.filter
      (fun e -> e.T.ev_phase = T.Span_begin && e.T.ev_name = "lazy-migrate")
      (T.export ())
  in
  check Alcotest.int "one candidate scan" 1 (List.length scans);
  check (Alcotest.list Alcotest.int) "ta's row on the routed shard only"
    (List.init (Cluster.shard_count c) (fun i -> if i = home then 1 else 0))
    (rows_per_shard c "ta")

(* A request naming one output of a two-statement split migrates only
   that statement's granules; the drained cluster still matches a
   single-node oracle row for row. *)
let split_output_filter () =
  let c = mk_cluster 40 in
  let odb = Database.create () in
  ignore (Database.exec odb "CREATE TABLE t (id INT PRIMARY KEY, v TEXT)" : Executor.result);
  ignore
    (Database.exec odb
       ("INSERT INTO t VALUES "
       ^ String.concat ", " (List.init 40 (fun i -> Printf.sprintf "(%d, 'g%d')" i (i mod 3))))
      : Executor.result);
  let obf = Lazy_db.create odb in
  ignore (Lazy_db.start_migration obf (vsplit_spec ()) : Migrate_exec.t);
  Cluster.start_migration c (vsplit_spec ());
  let debt0 = Cluster.migration_debt c in
  let drive = "SELECT v FROM ta WHERE id IN (3, 11, 26)" in
  check (Alcotest.list Alcotest.string) "driven rows vs oracle"
    (match Lazy_db.exec obf drive with
    | Executor.Rows (_, rows) -> List.sort compare (List.map row_str rows)
    | _ -> Alcotest.fail "oracle drive should return rows")
    (sorted_rows_c c drive);
  check Alcotest.int "ta got the driven rows" 3 (List.fold_left ( + ) 0 (rows_per_shard c "ta"));
  check Alcotest.int "tb's statement did not run" 0 (List.fold_left ( + ) 0 (rows_per_shard c "tb"));
  check Alcotest.int "only ta's granules left the debt" 3 (debt0 - Cluster.migration_debt c);
  ignore (Cluster.exec c "UPDATE ta SET v = 'x' WHERE id = 11" : Executor.result);
  ignore (Lazy_db.exec obf "UPDATE ta SET v = 'x' WHERE id = 11" : Executor.result);
  let fuel = ref 200 in
  while (not (Cluster.migration_complete c)) && !fuel > 0 do
    decr fuel;
    ignore (Cluster.background_step c ~batch:4 : int)
  done;
  while Lazy_db.background_step obf ~batch:8 > 0 do () done;
  Cluster.finalize c;
  Lazy_db.finalize obf;
  List.iter
    (fun sql ->
      check (Alcotest.list Alcotest.string) sql (sorted_rows_db odb sql) (sorted_rows_c c sql))
    [ "SELECT id, v FROM ta"; "SELECT id FROM tb" ]

(* Finalize drops the migration's inputs from the shard catalogs only;
   a recovered cluster must not serve them again from the replayed
   logs. *)
let finalized_drop_survives_recovery () =
  let c = mk_cluster 12 in
  Cluster.start_migration c (vsplit_spec ());
  while not (Cluster.migration_complete c) do
    ignore (Cluster.background_step c ~batch:8 : int)
  done;
  Cluster.finalize c;
  let c = Cluster.recover c in
  (match Cluster.query c "SELECT id FROM t" with
  | _ -> Alcotest.fail "t was dropped by the finalized migration"
  | exception Db_error.Sql_error _ -> ());
  check Alcotest.int "ta intact" 12 (List.length (Cluster.query c "SELECT id FROM ta"))

(* A crash after shard 0 dropped the inputs, before the other shards
   did: recovery finishes the drops named by the coordinator's
   BFMIG-FINALIZE marker instead of resuming a migration whose input is
   gone on shard 0, and closes the marker, so a second recovery finds
   nothing pending. *)
let finalize_crash_between_shards () =
  let module Fault = Bullfrog_core.Fault in
  let holds_t c = List.init (Cluster.shard_count c) (fun s ->
      Catalog.exists (Cluster.shard_db c s).Database.catalog "t")
  in
  let c = mk_cluster 12 in
  Cluster.start_migration c (vsplit_spec ());
  while not (Cluster.migration_complete c) do
    ignore (Cluster.background_step c ~batch:8 : int)
  done;
  Fault.arm Fault.p_cluster_finalize;
  (match Cluster.finalize c with
  | () ->
      Fault.disarm ();
      Alcotest.fail "finalize did not reach its crash point"
  | exception Fault.Crash _ -> ());
  check Alcotest.(list bool) "only shard 0 dropped t" [ false; true; true; true ] (holds_t c);
  let c = Cluster.recover c in
  let c = Cluster.recover c in
  check Alcotest.bool "no migration pending" true (Cluster.active_migration c = None);
  check Alcotest.(list bool) "t dropped everywhere" [ false; false; false; false ] (holds_t c);
  check Alcotest.int "ta intact" 12 (List.length (Cluster.query c "SELECT id FROM ta"));
  check Alcotest.int "tb intact" 12 (List.length (Cluster.query c "SELECT id FROM tb"))

(* ------------------------------------------------------------------ *)
(* Aggregate (n:1) migrations: group key must cover the partition key  *)
(* ------------------------------------------------------------------ *)

let agg_spec select =
  Migration.make ~name:"rollup"
    [ Migration.statement_of_sql ("CREATE TABLE rollup AS (" ^ select ^ ")") ]

let aggregate_partition_guard () =
  let shards = 4 in
  let setup ~by_grp =
    let c = Cluster.create ~shards () in
    ignore (Cluster.exec c "CREATE TABLE src (id INT PRIMARY KEY, grp INT, x INT)"
             : Executor.result);
    (* partitioning is chosen before any data lands, so the rows are
       actually placed by the registered key *)
    if by_grp then Cluster.set_partition c "src" (Partition.hash ~column:"grp" ~shards);
    List.iter
      (fun i ->
        ignore
          (Cluster.exec c
             (Printf.sprintf "INSERT INTO src VALUES (%d, %d, %d)" i (i mod 3) i)
            : Executor.result))
      (List.init 12 Fun.id);
    c
  in
  (* src is hash-partitioned by its PK (id); grouping by grp straddles
     shards, so each shard would emit a silent partial SUM — reject. *)
  let c = setup ~by_grp:false in
  (try
     Cluster.start_migration c
       (agg_spec "SELECT grp, SUM(x) AS total FROM src GROUP BY grp");
     Alcotest.fail "group key != partition key must be rejected"
   with Db_error.Sql_error msg ->
     let contains hay needle =
       let nh = String.length hay and nn = String.length needle in
       let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
       go 0
     in
     check Alcotest.bool "error names the partition column" true
       (contains msg "partitioned by id"));
  check Alcotest.bool "rejected switch leaves no active migration" true
    (Cluster.active_migration c = None);
  (* the same engine still accepts a sound spec afterwards *)
  let c = setup ~by_grp:true in
  Cluster.start_migration c
    (agg_spec "SELECT grp, SUM(x) AS total FROM src GROUP BY grp");
  check Alcotest.bool "group-by-partition-column accepted" true
    (Cluster.active_migration c <> None);
  (* groups live wholly on one shard: totals are exact vs a single node *)
  let odb = Database.create () in
  ignore (Database.exec odb "CREATE TABLE src (id INT PRIMARY KEY, grp INT, x INT)"
           : Executor.result);
  List.iter
    (fun i ->
      ignore
        (Database.exec odb
           (Printf.sprintf "INSERT INTO src VALUES (%d, %d, %d)" i (i mod 3) i)
          : Executor.result))
    (List.init 12 Fun.id);
  ignore
    (Database.exec odb
       "CREATE TABLE rollup AS (SELECT grp, SUM(x) AS total FROM src GROUP BY grp)"
      : Executor.result);
  let fuel = ref 100 in
  while (not (Cluster.migration_complete c)) && !fuel > 0 do
    decr fuel;
    ignore (Cluster.background_step c ~batch:8 : int)
  done;
  Cluster.finalize c;
  check (Alcotest.list Alcotest.string) "per-shard aggregates exact"
    (sorted_rows_db odb "SELECT grp, total FROM rollup")
    (sorted_rows_c c "SELECT grp, total FROM rollup");
  (* the spec drops nothing, so finalize keeps the aggregate's input *)
  check Alcotest.int "src kept after finalize" 12
    (List.length (Cluster.query c "SELECT id FROM src"))

(* ------------------------------------------------------------------ *)
(* Recovery: replay every shard log + coordinator decisions            *)
(* ------------------------------------------------------------------ *)

let recover_preserves_rows () =
  let c = mk_cluster ~shards:3 25 in
  ignore (Cluster.exec c "DELETE FROM t WHERE id IN (1, 7, 13, 19)" : Executor.result);
  ignore (Cluster.exec c "UPDATE t SET v = 'survivor' WHERE id = 11" : Executor.result);
  let want = sorted_rows_c c "SELECT id, v FROM t" in
  let c' = Cluster.recover c in
  check Alcotest.int "shard count survives" 3 (Cluster.shard_count c');
  check (Alcotest.list Alcotest.string) "rows survive crash-restart" want
    (sorted_rows_c c' "SELECT id, v FROM t");
  (* the recovered cluster still routes and writes *)
  ignore (Cluster.exec c' "INSERT INTO t VALUES (90, 'post'), (91, 'post')"
           : Executor.result);
  check Alcotest.int "recovered cluster accepts 2PC writes" 2
    (List.length (Cluster.query c' "SELECT id FROM t WHERE v = 'post'"))

(* A restart in the middle of an active migration resumes it: the spec
   comes back from the coordinator log, already-migrated rows survive
   via redo replay, and granules migrated before the crash are not
   re-migrated (the trackers refill from the logged marks). *)
let recover_mid_migration () =
  let shards = 4 in
  let c = Cluster.create ~shards () in
  mig_setup (fun sql -> ignore (Cluster.exec c sql : Executor.result));
  let odb = Database.create () in
  mig_setup (fun sql -> ignore (Database.exec odb sql : Executor.result));
  let obf = Lazy_db.create odb in
  ignore (Lazy_db.start_migration obf (regroup_spec ()) : Migrate_exec.t);
  let part = Partition.hash ~column:"grp" ~shards in
  Cluster.start_migration ~partitions:[ ("dst", part) ] c (regroup_spec ());
  (* lazily migrate one slice, then crash-restart *)
  ignore (Cluster.exec c "SELECT v FROM dst WHERE grp = 3" : Executor.result);
  ignore (Lazy_db.exec obf "SELECT v FROM dst WHERE grp = 3" : Executor.result);
  let c = Cluster.recover c in
  check Alcotest.bool "migration still active after restart" true
    (Cluster.active_migration c <> None);
  check Alcotest.string "resumed spec survives the round-trip" "regroup"
    (match Cluster.active_migration c with
    | Some m -> m.Migration.name
    | None -> "");
  (* the pre-crash slice is already there without re-driving *)
  check Alcotest.int "pre-crash slice survived replay"
    (List.length (Database.query odb "SELECT v FROM dst WHERE grp = 3"))
    (List.length (Cluster.query c "SELECT v FROM dst WHERE grp = 3"));
  (* drive another slice on the recovered cluster, then drain + finalize *)
  ignore (Cluster.exec c "SELECT v FROM dst WHERE grp = 1" : Executor.result);
  ignore (Lazy_db.exec obf "SELECT v FROM dst WHERE grp = 1" : Executor.result);
  let fuel = ref 200 in
  while (not (Cluster.migration_complete c)) && !fuel > 0 do
    decr fuel;
    ignore (Cluster.background_step c ~batch:4 : int)
  done;
  check Alcotest.bool "recovered migration completes" true
    (Cluster.migration_complete c);
  let rec drain () = if Lazy_db.background_step obf ~batch:8 > 0 then drain () in
  drain ();
  Cluster.finalize c;
  Lazy_db.finalize obf;
  check (Alcotest.list Alcotest.string) "row-exact vs uncrashed oracle"
    (sorted_rows_db odb "SELECT id, grp, v FROM dst")
    (sorted_rows_c c "SELECT id, grp, v FROM dst");
  (* every row still lands on its new home shard *)
  for i = 0 to shards - 1 do
    List.iter
      (fun row ->
        match row with
        | [| Value.Int _; g; _ |] ->
            check Alcotest.int "row on its grp-hash home shard"
              (Partition.shard_of_value part g) i
        | _ -> Alcotest.fail "unexpected row shape")
      (Database.query (Cluster.shard_db c i) "SELECT id, grp, v FROM dst")
  done

(* ------------------------------------------------------------------ *)
(* Cluster-wide rollback: one epoch flip, BFMIG-RB crash recovery      *)
(* ------------------------------------------------------------------ *)

let copy_t_spec () =
  Migration.make ~name:"tcopy" ~drop_old:[ "t" ]
    [
      Migration.statement_of_sql ~name:"tcopy"
        "CREATE TABLE t2 AS (SELECT id, v FROM t)"
        ~extra_ddl:[ "CREATE UNIQUE INDEX t2_id ON t2 (id)" ];
    ]

(* Roll a half-done cluster migration back mid-flight (with edits taken
   through the new schema on the way), crash-restart in the middle of
   the BACKWARD phase, and check the recovered cluster resumes the
   rollback from the coordinator's BFMIG-RB marker and lands row-exact
   against a never-migrated single-node oracle. *)
let cluster_rollback_mid_flight () =
  let c = mk_cluster 40 in
  Cluster.start_migration c (copy_t_spec ());
  (* drive a slice lazily, edit and delete through the new schema *)
  ignore (Cluster.exec c "SELECT v FROM t2 WHERE id = 5" : Executor.result);
  ignore (Cluster.background_step c ~batch:2 : int);
  ignore (Cluster.exec c "UPDATE t2 SET v = 'edited' WHERE id = 11" : Executor.result);
  ignore (Cluster.exec c "DELETE FROM t2 WHERE id = 7" : Executor.result);
  Cluster.rollback_migration c;
  check Alcotest.bool "rollback is the active migration" true
    (match Cluster.active_migration c with
    | Some m -> m.Migration.name = "tcopy_rollback"
    | None -> false);
  (* the old schema answers immediately; the abandoned table is gone *)
  ignore (Cluster.exec c "SELECT v FROM t WHERE id = 11" : Executor.result);
  (try
     ignore (Cluster.exec c "SELECT v FROM t2 WHERE id = 11" : Executor.result);
     Alcotest.fail "t2 should be rejected mid-rollback"
   with Db_error.Sql_error _ -> ());
  (* crash-restart mid-rollback: the BFMIG-RB marker re-installs it *)
  let c = Cluster.recover c in
  check Alcotest.bool "rollback survives the crash" true
    (match Cluster.active_migration c with
    | Some m -> m.Migration.name = "tcopy_rollback"
    | None -> false);
  ignore (Cluster.exec c "SELECT v FROM t WHERE id = 5" : Executor.result);
  let fuel = ref 200 in
  while (not (Cluster.migration_complete c)) && !fuel > 0 do
    decr fuel;
    ignore (Cluster.background_step c ~batch:4 : int)
  done;
  check Alcotest.bool "rollback drains" true (Cluster.migration_complete c);
  Cluster.finalize c;
  (* never-migrated oracle with the same logical edits *)
  let odb = Database.create () in
  ignore (Database.exec odb "CREATE TABLE t (id INT PRIMARY KEY, v TEXT)"
           : Executor.result);
  ignore
    (Database.exec odb
       ("INSERT INTO t VALUES "
       ^ String.concat ", "
           (List.init 40 (fun i -> Printf.sprintf "(%d, 'g%d')" i (i mod 3))))
      : Executor.result);
  ignore (Database.exec odb "UPDATE t SET v = 'edited' WHERE id = 11" : Executor.result);
  ignore (Database.exec odb "DELETE FROM t WHERE id = 7" : Executor.result);
  check (Alcotest.list Alcotest.string) "row-exact vs never-migrated oracle"
    (sorted_rows_db odb "SELECT id, v FROM t")
    (sorted_rows_c c "SELECT id, v FROM t");
  (* finalize dropped the abandoned new table on every shard *)
  for i = 0 to Cluster.shard_count c - 1 do
    check Alcotest.bool "t2 dropped on shard" false
      (Catalog.exists (Cluster.shard_db c i).Database.catalog "t2")
  done

(* A migration that drops nothing rolls back trivially: outputs are
   dropped synchronously through logged drops, the marker closes with
   BFMIG-END, and a recovered cluster has no migration to resume and no
   output to bring back. *)
let tkeep_spec () =
  Migration.make ~name:"tkeep" ~drop_old:[]
    [
      Migration.statement_of_sql ~name:"tkeep"
        "CREATE TABLE t_copy AS (SELECT id, v FROM t)";
    ]

let cluster_rollback_trivial () =
  let c = mk_cluster 12 in
  Cluster.start_migration c (tkeep_spec ());
  ignore (Cluster.exec c "SELECT v FROM t_copy WHERE id = 3" : Executor.result);
  Cluster.rollback_migration c;
  check Alcotest.bool "no active migration" true (Cluster.active_migration c = None);
  check Alcotest.int "source table intact" 12
    (List.length (Cluster.query c "SELECT id FROM t"));
  for i = 0 to Cluster.shard_count c - 1 do
    check Alcotest.bool "output dropped on shard" false
      (Catalog.exists (Cluster.shard_db c i).Database.catalog "t_copy")
  done;
  let c = Cluster.recover c in
  check Alcotest.bool "nothing resumes after restart" true
    (Cluster.active_migration c = None);
  for i = 0 to Cluster.shard_count c - 1 do
    check Alcotest.bool "output stays dropped after recovery" false
      (Catalog.exists (Cluster.shard_db c i).Database.catalog "t_copy")
  done

(* A crash after the first k shards rolled back a migration that
   dropped nothing, before the rest did: recovery finishes the output
   drops named by the coordinator's BFMIG-FINALIZE marker instead of
   resuming a migration whose output is gone on some shards, closes the
   marker, and leaves the output's name free for a new migration. *)
let trivial_rollback_crash_between_shards () =
  let module Fault = Bullfrog_core.Fault in
  let holds_copy c =
    List.init (Cluster.shard_count c) (fun s ->
        Catalog.exists (Cluster.shard_db c s).Database.catalog "t_copy")
  in
  List.iter
    (fun after ->
      let c = mk_cluster 12 in
      Cluster.start_migration c (tkeep_spec ());
      ignore (Cluster.exec c "SELECT v FROM t_copy WHERE id = 3" : Executor.result);
      Fault.arm ~after Fault.p_cluster_rollback;
      (match Cluster.rollback_migration c with
      | () ->
          Fault.disarm ();
          Alcotest.fail "rollback did not reach its crash point"
      | exception Fault.Crash _ -> ());
      check Alcotest.(list bool)
        (Printf.sprintf "first %d shard(s) dropped t_copy" (after + 1))
        (List.init 4 (fun s -> s > after))
        (holds_copy c);
      let c = Cluster.recover c in
      let c = Cluster.recover c in
      check Alcotest.bool "no migration pending" true (Cluster.active_migration c = None);
      check Alcotest.(list bool) "t_copy dropped everywhere" [ false; false; false; false ]
        (holds_copy c);
      check Alcotest.int "source table intact" 12
        (List.length (Cluster.query c "SELECT id FROM t"));
      Cluster.start_migration c (tkeep_spec ());
      check Alcotest.int "t_copy name reused" 12
        (List.length (Cluster.query c "SELECT id FROM t_copy")))
    [ 0; 1; 2 ]

(* t -> t2, then t2 -> t, straight through and with a crash and
   recovery between the two migrations: the new t answers queries and
   keeps the partition spec its own migration gave it, because finalize
   forgets only the specs of the tables it dropped. *)
let cluster_name_reuse () =
  let shards = 4 in
  let move ~drop src dst =
    Migration.make ~name:(src ^ "_to_" ^ dst) ~drop_old:[ drop ]
      [
        Migration.statement_of_sql
          (Printf.sprintf "CREATE TABLE %s AS (SELECT id, grp, v FROM %s)" dst src);
      ]
  in
  let finish c =
    while not (Cluster.migration_complete c) do
      ignore (Cluster.background_step c ~batch:8 : int)
    done;
    Cluster.finalize c
  in
  List.iter
    (fun crash ->
      let leg = if crash then "after recovery: " else "straight: " in
      let c = Cluster.create ~shards () in
      ignore
        (Cluster.exec c "CREATE TABLE t (id INT PRIMARY KEY, grp INT, v TEXT)"
          : Executor.result);
      for i = 0 to 11 do
        ignore
          (Cluster.exec c
             (Printf.sprintf "INSERT INTO t VALUES (%d, %d, 'v%d')" i (i mod 3) i)
            : Executor.result)
      done;
      Cluster.start_migration c (move ~drop:"t" "t" "t2");
      finish c;
      let c = if crash then Cluster.recover c else c in
      Cluster.start_migration
        ~partitions:[ ("t", Partition.hash ~column:"grp" ~shards) ]
        c (move ~drop:"t2" "t2" "t");
      finish c;
      check (Alcotest.option Alcotest.string) (leg ^ "new t keeps its partition spec")
        (Some "grp")
        (Option.map Partition.column (Cluster.partition_of c "t"));
      check Alcotest.int (leg ^ "new t answers") 12
        (List.length (Cluster.query c "SELECT id FROM t"));
      check (Alcotest.list Alcotest.string) (leg ^ "new t routes by grp")
        [ "1"; "4"; "7"; "10" ]
        (List.map row_str (Cluster.query c "SELECT id FROM t WHERE grp = 1 ORDER BY id"));
      for i = 0 to shards - 1 do
        check Alcotest.bool (leg ^ "t2 dropped on shard") false
          (Catalog.exists (Cluster.shard_db c i).Database.catalog "t2")
      done)
    [ false; true ]

(* ------------------------------------------------------------------ *)
(* Frontend: the uniform surface behaves the same on both engines      *)
(* ------------------------------------------------------------------ *)

let frontend_surface () =
  let db = Database.create () in
  let single = Frontend.of_database db in
  let c = Cluster.create ~shards:4 () in
  let clustered = Cluster.frontend c in
  check Alcotest.string "single name" "single" single.Frontend.f_name;
  check Alcotest.string "cluster name" "cluster:4" clustered.Frontend.f_name;
  List.iter
    (fun f ->
      ignore
        (Frontend.exec_script f
           {|CREATE TABLE t (id INT PRIMARY KEY, v TEXT);
             INSERT INTO t VALUES (1, 'a'), (2, 'b'), (3, 'c')|}
          : Executor.result list))
    [ single; clustered ];
  let rows f sql =
    List.sort compare (List.map row_str (Frontend.query f sql))
  in
  check (Alcotest.list Alcotest.string) "same rows through both frontends"
    (rows single "SELECT id, v FROM t")
    (rows clustered "SELECT id, v FROM t");
  check Alcotest.string "query_one agrees"
    (row_str (Frontend.query_one single "SELECT v FROM t WHERE id = 2"))
    (row_str (Frontend.query_one clustered "SELECT v FROM t WHERE id = 2"));
  (try
     ignore (Frontend.query_one clustered "SELECT v FROM t WHERE id = 99"
              : Value.t array);
     Alcotest.fail "query_one on empty must raise"
   with Db_error.Sql_error _ -> ());
  check Alcotest.bool "explain mentions routing" true
    (let e = Frontend.explain clustered "SELECT v FROM t WHERE id = 2" in
     String.length e > 0)

(* ------------------------------------------------------------------ *)
(* Budgeted vacuum: same total reclamation as one full pass            *)
(* ------------------------------------------------------------------ *)

let vacuum_workload db =
  ignore (Database.exec db "CREATE TABLE t (id INT PRIMARY KEY, v INT)"
           : Executor.result);
  ignore
    (Database.exec db
       ("INSERT INTO t VALUES "
       ^ String.concat ", " (List.init 16 (fun i -> Printf.sprintf "(%d, 0)" i)))
      : Executor.result);
  for _ = 1 to 3 do
    ignore (Database.exec db "UPDATE t SET v = v + 1" : Executor.result)
  done

let vacuum_budget_equivalence () =
  let full_db = Database.create () and inc_db = Database.create () in
  vacuum_workload full_db;
  vacuum_workload inc_db;
  check Alcotest.int "identical backlogs to start"
    (Database.version_backlog full_db)
    (Database.version_backlog inc_db);
  let full = Database.vacuum full_db in
  check Alcotest.bool "workload built chains" true (full > 0);
  (* the incremental side reclaims the same total in budget-3 slices,
     each call resuming where the written-slot list was left *)
  let total = ref 0 and stopped_mid_list = ref false in
  let heap = Catalog.find_table_exn inc_db.Database.catalog "t" in
  let rec go () =
    let n = Database.vacuum ~budget:3 inc_db in
    check Alcotest.bool "budget respected" true (n <= 3);
    if Vec.length heap.Heap.written > 0 then stopped_mid_list := true;
    if n > 0 then begin
      total := !total + n;
      go ()
    end
  in
  go ();
  check Alcotest.int "budgeted total == full vacuum" full !total;
  check Alcotest.bool "stopped with written slots still listed at least once" true
    !stopped_mid_list;
  check Alcotest.int "no backlog left" 0 (Database.version_backlog inc_db);
  (* two tables, the first in catalog order updated before every call
     so that it alone could spend each budget: the calls rotate, so the
     second is reached too *)
  let db = Database.create () in
  List.iter
    (fun name ->
      ignore (Database.exec db (Printf.sprintf "CREATE TABLE %s (id INT PRIMARY KEY, v INT)" name)
               : Executor.result);
      ignore (Database.exec db (Printf.sprintf "INSERT INTO %s VALUES (1, 0), (2, 0), (3, 0)" name)
               : Executor.result))
    [ "a"; "b" ];
  ignore (Database.exec db "UPDATE b SET v = v + 1" : Executor.result);
  let b = Catalog.find_table_exn db.Database.catalog "b" in
  for _ = 1 to 4 do
    ignore (Database.exec db "UPDATE a SET v = v + 1" : Executor.result);
    ignore (Database.vacuum ~budget:3 db : int)
  done;
  check Alcotest.int "the second table is not starved" 0 (Heap.chained_versions b);
  (* cluster vacuum sums shards *)
  let c = mk_cluster 12 in
  ignore (Cluster.exec c "UPDATE t SET v = 'x'" : Executor.result);
  check Alcotest.bool "cluster vacuum reclaims across shards" true
    (Cluster.vacuum c > 0)

(* ------------------------------------------------------------------ *)
(* Unsupported surface: clear errors, no partial effects               *)
(* ------------------------------------------------------------------ *)

let unsupported_surface () =
  let c = mk_cluster 8 in
  let rejects sql =
    try
      ignore (Cluster.exec c sql : Executor.result);
      Alcotest.failf "must reject: %s" sql
    with Db_error.Sql_error _ -> ()
  in
  rejects "BEGIN";
  rejects "SELECT a.id FROM t a, t b";
  rejects "SELECT s.id FROM (SELECT id FROM t) s";
  rejects "CREATE TABLE u AS (SELECT id FROM t)";
  rejects "UPDATE t SET id = 99 WHERE id = 1";
  (* rejected statements leave the data untouched *)
  check Alcotest.int "rows intact" 8
    (List.length (Cluster.query c "SELECT id FROM t"))

let suite =
  [
    Alcotest.test_case "point queries route to one shard" `Quick point_query_routing;
    Alcotest.test_case "cross-shard 2PC atomicity" `Quick cross_shard_atomicity;
    Alcotest.test_case "scatter/gather merge vs oracle" `Quick scatter_merge_oracle;
    Alcotest.test_case "scatter runs on the calling thread" `Quick
      scatter_on_calling_thread;
    Alcotest.test_case "scatter re-raises a shard's error" `Quick
      scatter_error_reraised;
    QCheck_alcotest.to_alcotest routed_vs_broadcast;
    Alcotest.test_case "2PC crash sweep" `Quick sweep_cells;
    Alcotest.test_case "crash points leave flight dumps" `Quick
      sweep_leaves_flight_dumps;
    Alcotest.test_case "row-moving migration vs oracle" `Quick migration_row_movement;
    Alcotest.test_case "crash inside a multi-row move" `Quick multi_row_move_crash;
    Alcotest.test_case "statement cache binds per call" `Quick stmt_cache_binds_per_call;
    Alcotest.test_case "routing reads the call's parameters" `Quick route_with_params;
    Alcotest.test_case "routed call: statement-cache lookups" `Quick routed_call_lookups;
    Alcotest.test_case "repeated text: one entry per shard, cached plans" `Quick
      repeated_text_caches;
    Alcotest.test_case "routed point migrates one shard" `Quick
      routed_point_migrates_one_shard;
    Alcotest.test_case "split output filter vs oracle" `Quick split_output_filter;
    Alcotest.test_case "finalized drop survives recovery" `Quick
      finalized_drop_survives_recovery;
    Alcotest.test_case "crash between shard finalizes" `Quick finalize_crash_between_shards;
    Alcotest.test_case "aggregate partition guard" `Quick aggregate_partition_guard;
    Alcotest.test_case "cluster recovery" `Quick recover_preserves_rows;
    Alcotest.test_case "mid-migration recovery resumes" `Quick recover_mid_migration;
    Alcotest.test_case "cluster rollback survives mid-rollback crash" `Quick
      cluster_rollback_mid_flight;
    Alcotest.test_case "trivial rollback drops outputs synchronously" `Quick
      cluster_rollback_trivial;
    Alcotest.test_case "crash between shard trivial rollbacks" `Quick
      trivial_rollback_crash_between_shards;
    Alcotest.test_case "dropped name reused across recovery" `Quick cluster_name_reuse;
    Alcotest.test_case "frontend surface" `Quick frontend_surface;
    Alcotest.test_case "budgeted vacuum equivalence" `Quick vacuum_budget_equivalence;
    Alcotest.test_case "unsupported statements rejected" `Quick unsupported_surface;
  ]
