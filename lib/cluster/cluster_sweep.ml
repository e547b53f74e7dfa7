open Bullfrog_db
module Fault = Bullfrog_core.Fault
module Fault_sweep = Bullfrog_core.Fault_sweep

(* Deterministic 2PC crash scenario: a 4-shard hash-partitioned table
   takes a workload of multi-row INSERTs (consecutive keys, so each
   statement spans shards and commits through 2PC) and a cross-shard
   DELETE.  A crash at any armed point recovers via [Cluster.recover];
   the atomicity probe then checks that every statement's key set is
   entirely present or entirely absent — the committed-on-one-shard /
   aborted-on-another outcome the sweep exists to rule out.  The
   workload then re-runs (INSERT .. ON CONFLICT DO NOTHING and DELETE
   are idempotent), so the final result set is crash-invariant and
   comparable against the disarmed oracle. *)

let shards = 4

let insert_batches =
  [
    [ 0; 1; 2; 3; 4; 5; 6; 7 ];
    [ 8; 9; 10; 11; 12; 13; 14; 15 ];
    [ 16; 17; 18; 19 ];
    [ 20 ];
    [ 21; 22; 23; 24; 25; 26; 27 ];
  ]

let delete_ids = [ 3; 9; 17; 21 ]

let insert_sql ids =
  Printf.sprintf "INSERT INTO t VALUES %s ON CONFLICT DO NOTHING"
    (String.concat ", "
       (List.map (fun i -> Printf.sprintf "(%d, 'v%03d')" i i) ids))

let delete_sql =
  Printf.sprintf "DELETE FROM t WHERE id IN (%s)"
    (String.concat ", " (List.map string_of_int delete_ids))

let sorted_rows c sql =
  List.sort compare
    (List.map
       (fun row -> String.concat "|" (List.map Value.to_string (Array.to_list row)))
       (Cluster.query c sql))

let run () =
  let c = ref (Cluster.create ~shards ()) in
  ignore (Cluster.exec !c "CREATE TABLE t (id INT PRIMARY KEY, v TEXT)"
           : Executor.result);
  let attempt f = try f () with Fault.Crash _ -> c := Cluster.recover !c in
  let run_inserts () =
    List.iter
      (fun ids -> ignore (Cluster.exec !c (insert_sql ids) : Executor.result))
      insert_batches
  in
  attempt run_inserts;
  (* Atomicity probe, before convergence: each INSERT's key set must be
     all-in or all-out (the DELETE has not run yet, so full sets apply). *)
  let present id =
    Cluster.query !c (Printf.sprintf "SELECT v FROM t WHERE id = %d" id) <> []
  in
  let violations =
    List.filter_map
      (fun ids ->
        let n = List.length (List.filter present ids) in
        if n = 0 || n = List.length ids then None
        else
          Some
            (Printf.sprintf "partial 2PC statement: %d/%d keys present" n
               (List.length ids)))
      insert_batches
  in
  (* Converge: with [arm ~after:0] any reachable point already fired
     during the first pass over the same code path, so these re-runs
     cannot crash — [attempt] only guards against future sweep modes. *)
  attempt run_inserts;
  attempt (fun () -> ignore (Cluster.exec !c delete_sql : Executor.result));
  [ ("atomicity", violations); ("t", sorted_rows !c "SELECT id, v FROM t") ]

let scenario = { Fault_sweep.sc_name = "cluster2pc"; sc_run = run }

let points = [ Fault.p_2pc_prepare; Fault.p_2pc_decision; Fault.p_2pc_ack ]

(* ------------------------------------------------------------------ *)
(* mid-migration crash scenario                                        *)

(* A migration that changes the partition key (t is hash-partitioned by
   id, its output t2 by grp), so lazily-migrated rows move to their new
   home shard through 2PC — and the armed crash point fires while the
   migration is active.  Setup uses single-row INSERTs (single-shard, no
   2PC), so the first reachable fault point is a migration row move.
   After [Cluster.recover] the migration must still be installed (spec
   re-read from the coordinator log, trackers refilled from granule
   marks); the workload re-runs, background migration drains, and the
   final t2 must be row-exact against the disarmed oracle. *)

let mig_rows = List.init 24 (fun i -> (i, i * 7 mod 5))

let mig_spec () =
  Bullfrog_core.Migration.make ~name:"regroup" ~drop_old:[ "t" ]
    [
      Bullfrog_core.Migration.statement_of_sql
        "CREATE TABLE t2 AS (SELECT grp, id, v FROM t)";
    ]

let mig_queries =
  List.map (fun g -> Printf.sprintf "SELECT id FROM t2 WHERE grp = %d" g)
    [ 0; 1; 2; 3; 4 ]

let run_mig () =
  let c = ref (Cluster.create ~shards ()) in
  let attempt f = try f () with Fault.Crash _ -> c := Cluster.recover !c in
  ignore (Cluster.exec !c "CREATE TABLE t (id INT PRIMARY KEY, grp INT, v TEXT)"
           : Executor.result);
  List.iter
    (fun (id, grp) ->
      ignore
        (Cluster.exec !c
           (Printf.sprintf "INSERT INTO t VALUES (%d, %d, 'v%03d')" id grp id)
         : Executor.result))
    mig_rows;
  Cluster.start_migration !c (mig_spec ());
  let drive () =
    List.iter (fun q -> ignore (Cluster.exec !c q : Executor.result)) mig_queries
  in
  attempt drive;
  (* Resumability probe: after a crash + recover the migration must still
     be active (empty in the oracle run too, where no crash happened). *)
  let resumed =
    if Cluster.active_migration !c = None then [ "migration inactive" ] else []
  in
  attempt drive;
  attempt (fun () ->
      while not (Cluster.migration_complete !c) do
        ignore (Cluster.background_step !c ~batch:64 : int)
      done;
      Cluster.finalize !c);
  (* [finalize] dropped [drop_old] on every shard, so t2 is the whole
     database, also after a crash between shard drops. *)
  let finalized =
    (if Cluster.active_migration !c <> None then [ "migration active" ] else [])
    @ List.filter_map
        (fun s ->
          if Catalog.exists (Cluster.shard_db !c s).Database.catalog "t" then
            Some (Printf.sprintf "t kept on shard %d" s)
          else None)
        (List.init shards Fun.id)
  in
  [
    ("resumed", resumed);
    ("finalized", finalized);
    ("t2", sorted_rows !c "SELECT grp, id, v FROM t2");
  ]

let mig_scenario = { Fault_sweep.sc_name = "cluster_mig"; sc_run = run_mig }

let registered = ref false

let register () =
  if not !registered then begin
    Fault_sweep.register scenario;
    Fault_sweep.register mig_scenario;
    registered := true
  end

let mig_points = points @ [ Fault.p_cluster_finalize ]

let run_bounded () =
  Fault_sweep.run_scenario ~points scenario
  @ Fault_sweep.run_scenario ~points:mig_points mig_scenario
