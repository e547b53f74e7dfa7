open Bullfrog_db

type cell = {
  c_scenario : string;
  c_point : int;
  c_fired : bool;
  c_ok : bool;
  c_detail : string;
}

type scenario = {
  sc_name : string;
  sc_run : unit -> (string * string list) list;
      (** one full cycle — setup, workload (crashing if a point is armed
          and reached), recovery, probes, drain — returning labelled
          sorted result sets *)
}

(* ------------------------------------------------------------------ *)
(* result collection                                                   *)

let render_row row =
  String.concat "|" (List.map Value.to_string (Array.to_list row))

let sorted_rows db sql =
  List.sort compare (List.map render_row (Database.query db sql))

(* ------------------------------------------------------------------ *)
(* generic lazy cycle                                                  *)

(* Probes run against the *recovered* runtime through the same
   predicate-scoped migration path a client request takes; then the
   background migrator drains the remainder and the result sets are
   collected.  At most one crash can occur per run (points are
   one-shot), so a single recover-and-retry suffices; the retry phase
   re-migrates from the rebuilt trackers, which is exactly the
   exactly-once property under test.  A crash recovers through
   [Lazy_db.recover] over the same heaps: the migration comes back from
   its Start record, with the granule size and n:n granularity the
   switch chose. *)
let lazy_cycle db ld ~probes ~outputs =
  let finishing ld =
    let rt = Option.get (Lazy_db.active ld) in
    let rep = Migrate_exec.new_report () in
    let probe_results =
      List.map
        (fun sql ->
          let preds = Option.value (Lazy_db.interception_preds ld sql) ~default:[] in
          Migrate_exec.migrate_for_preds rt rep preds;
          (sql, sorted_rows db sql))
        probes
    in
    while Migrate_exec.background_step rt rep ~batch:4 > 0 do
      ()
    done;
    if not (Migrate_exec.verify_complete rt) then
      failwith "fault_sweep: migration incomplete after drain";
    probe_results
    @ List.map (fun o -> (o, sorted_rows db ("SELECT * FROM " ^ o))) outputs
  in
  try finishing ld with Fault.Crash _ -> finishing (Lazy_db.recover db)

let run_lazy ~setup ~spec ?page_size ?nn ~workload ~probes ~outputs () =
  let db = setup () in
  let ld = Lazy_db.create db in
  ignore (Lazy_db.start_migration ld ?page_size ?nn (spec ()) : Migrate_exec.t);
  let ld =
    try
      workload ld;
      ld
    with Fault.Crash _ -> Lazy_db.recover db
  in
  lazy_cycle db ld ~probes ~outputs

(* ------------------------------------------------------------------ *)
(* scenario: bitmap-tracked 1:1 copy                                   *)

let mk_src_db rows =
  let db = Database.create () in
  ignore
    (Database.exec_script db
       "CREATE TABLE src (id INT PRIMARY KEY, grp INT, v TEXT)");
  Database.with_txn db (fun txn ->
      for i = 0 to rows - 1 do
        ignore
          (Database.exec_in db txn
             ~params:
               [| Value.Int i; Value.Int (i mod 8); Value.Str (Printf.sprintf "v%03d" i) |]
             "INSERT INTO src VALUES ($1, $2, $3)"
            : Executor.result)
      done);
  db

let copy_spec () =
  Migration.make ~name:"copy" ~drop_old:[ "src" ]
    [
      Migration.statement_of_sql ~name:"copy"
        "CREATE TABLE dst AS (SELECT id, grp, v FROM src)"
        ~extra_ddl:[ "CREATE UNIQUE INDEX dst_id ON dst (id)" ];
    ]

let bitmap_scenario =
  {
    sc_name = "bitmap";
    sc_run =
      run_lazy
        ~setup:(fun () -> mk_src_db 48)
        ~spec:copy_spec ~page_size:4
        ~workload:(fun ld ->
          ignore (Lazy_db.exec ld "SELECT * FROM dst WHERE id = 9" : Executor.result);
          ignore (Lazy_db.exec ld "SELECT * FROM dst WHERE grp = 5" : Executor.result);
          ignore (Lazy_db.background_step ld ~batch:2 : int))
        ~probes:
          [
            "SELECT * FROM dst WHERE id = 17";
            "SELECT * FROM dst WHERE grp = 3";
          ]
        ~outputs:[ "dst" ];
  }

(* ------------------------------------------------------------------ *)
(* scenario: MVCC timestamped commit and version-chain GC              *)

(* Same copy migration as [bitmap], but the workload updates migrated
   rows (growing version chains) and interleaves [Database.vacuum]
   sweeps.  Reaches the two db-layer points: [p_commit_ts] fires inside
   the stamp-then-publish critical section of a migration-marked commit
   (nothing durable or visible yet — the txn aborts and recovery
   re-migrates), and [p_gc_sweep] fires mid-vacuum (GC holds no logical
   state, so a crash there must be a pure no-op after recovery).  The
   updates are content-neutral ([SET v = v] still installs a fresh
   version): a crash skips the rest of the workload, so only writes whose
   final effect is crash-invariant keep the oracle comparison exact. *)
let mvcc_scenario =
  {
    sc_name = "mvcc";
    sc_run =
      run_lazy
        ~setup:(fun () -> mk_src_db 32)
        ~spec:copy_spec ~page_size:4
        ~workload:(fun ld ->
          ignore (Lazy_db.exec ld "SELECT * FROM dst WHERE id = 7" : Executor.result);
          ignore
            (Lazy_db.exec ld "UPDATE dst SET v = v WHERE id = 7"
              : Executor.result);
          ignore (Database.vacuum (Lazy_db.db ld) : int);
          ignore (Lazy_db.exec ld "SELECT * FROM dst WHERE grp = 3" : Executor.result);
          ignore
            (Lazy_db.exec ld "UPDATE dst SET v = v WHERE grp = 3"
              : Executor.result);
          ignore (Database.vacuum (Lazy_db.db ld) : int))
        ~probes:
          [
            "SELECT * FROM dst WHERE id = 17";
            "SELECT * FROM dst WHERE grp = 5";
          ]
        ~outputs:[ "dst" ];
  }

(* ------------------------------------------------------------------ *)
(* scenario: hash-tracked aggregate                                    *)

let agg_spec () =
  Migration.make ~name:"agg" ~drop_old:[ "src" ]
    [
      Migration.statement_of_sql ~name:"agg"
        "CREATE TABLE agg AS (SELECT grp, COUNT(*) AS n FROM src GROUP BY grp)";
    ]

let hash_scenario =
  {
    sc_name = "hash";
    sc_run =
      run_lazy
        ~setup:(fun () -> mk_src_db 40)
        ~spec:agg_spec
        ~workload:(fun ld ->
          ignore (Lazy_db.exec ld "SELECT * FROM agg WHERE grp = 2" : Executor.result);
          ignore (Lazy_db.background_step ld ~batch:2 : int))
        ~probes:
          [ "SELECT * FROM agg WHERE grp = 1"; "SELECT * FROM agg WHERE grp = 6" ]
        ~outputs:[ "agg" ];
  }

(* ------------------------------------------------------------------ *)
(* scenario: pair-granularity n:n join                                 *)

let mk_ab_db () =
  let db = Database.create () in
  ignore
    (Database.exec_script db
       {|
    CREATE TABLE a (a_id INT PRIMARY KEY, k INT, ax TEXT);
    CREATE TABLE b (b_id INT PRIMARY KEY, k INT, bx TEXT);
    CREATE INDEX a_k ON a (k);
    CREATE INDEX b_k ON b (k);
    INSERT INTO a VALUES (1,1,'a1'),(2,1,'a2'),(3,2,'a3'),(4,3,'a4'),(5,4,'a5'),(6,4,'a6');
    INSERT INTO b VALUES (10,1,'b1'),(11,1,'b2'),(12,1,'b3'),(13,2,'b4'),(14,9,'b5'),(15,4,'b6');
  |});
  db

let ab_spec () =
  Migration.make ~name:"ab" ~drop_old:[ "a"; "b" ]
    [
      Migration.statement_of_sql ~name:"ab"
        "CREATE TABLE ab AS (SELECT a_id, b_id, a.k AS k, ax, bx FROM a, b WHERE a.k = b.k)"
        ~extra_ddl:[ "CREATE INDEX ab_k ON ab (k)" ];
    ]

let pair_scenario =
  {
    sc_name = "pair";
    sc_run =
      run_lazy ~setup:mk_ab_db ~spec:ab_spec
        ~workload:(fun ld ->
          ignore (Lazy_db.exec ld "SELECT * FROM ab WHERE k = 1" : Executor.result);
          ignore (Lazy_db.background_step ld ~batch:2 : int))
        ~probes:
          [ "SELECT * FROM ab WHERE k = 4"; "SELECT * FROM ab WHERE a_id = 3" ]
        ~outputs:[ "ab" ];
  }

(* ------------------------------------------------------------------ *)
(* scenario: join-key-class shared tracker                             *)

(* Same spec as [pair] but with the coarse Nn_join_key granularity, so a
   single hash tracker is shared between both inputs — the recovery path
   must restore the shared tracker from either side's marks. *)
let joinkey_scenario =
  {
    sc_name = "joinkey";
    sc_run =
      run_lazy ~setup:mk_ab_db ~spec:ab_spec ~nn:Migrate_exec.Nn_join_key
        ~workload:(fun ld ->
          ignore (Lazy_db.exec ld "SELECT * FROM ab WHERE k = 1" : Executor.result);
          ignore (Lazy_db.background_step ld ~batch:1 : int))
        ~probes:[ "SELECT * FROM ab WHERE k = 2" ]
        ~outputs:[ "ab" ];
  }

(* ------------------------------------------------------------------ *)
(* scenario: multistep baseline copier                                 *)

let multistep_scenario =
  {
    sc_name = "multistep";
    sc_run =
      (fun () ->
        let db = mk_src_db 20 in
        let spec =
          Migration.make ~name:"copy"
            [
              Migration.statement_of_sql ~name:"copy"
                "CREATE TABLE dst AS (SELECT id, grp, v FROM src)"
                ~extra_ddl:[ "CREATE UNIQUE INDEX dst_id ON dst (id)" ];
            ]
        in
        let ms = Multistep.start ~page_size:4 db spec in
        let rt = Multistep.runtime ms in
        let rt =
          try
            for _ = 1 to 2 do
              ignore (Multistep.copier_step ms ~batch:1 : int)
            done;
            rt
          with Fault.Crash _ -> fst (Recovery.recover rt)
        in
        let finishing rt =
          let rep = Migrate_exec.new_report () in
          while Migrate_exec.background_step rt rep ~batch:4 > 0 do
            ()
          done;
          if not (Migrate_exec.verify_complete rt) then
            failwith "fault_sweep: multistep copy incomplete after drain";
          [ ("dst", sorted_rows db "SELECT * FROM dst") ]
        in
        try finishing rt
        with Fault.Crash _ ->
          let rt', _report = Recovery.recover rt in
          finishing rt');
  }

(* ------------------------------------------------------------------ *)
(* scenario: eager (stop-the-world) migration                          *)

(* Eager runs each statement's copy in one transaction; a crash aborts
   it wholesale.  Recovery is re-execution from scratch: drop whatever
   output tables the aborted attempt left behind (they are empty or
   partial) and run the migration again. *)
let eager_scenario =
  {
    sc_name = "eager";
    sc_run =
      (fun () ->
        let db = mk_src_db 24 in
        let spec =
          Migration.make ~name:"split" ~drop_old:[ "src" ]
            [
              Migration.statement_of_sql ~name:"rows"
                "CREATE TABLE dst AS (SELECT id, v FROM src)";
              Migration.statement_of_sql ~name:"agg"
                "CREATE TABLE agg AS (SELECT grp, COUNT(*) AS n FROM src GROUP BY grp)";
            ]
        in
        let outputs = [ "dst"; "agg" ] in
        (try ignore (Eager.migrate db spec : Eager.outcome)
         with Fault.Crash _ ->
           Database.drop_tables db outputs;
           ignore (Eager.migrate db spec : Eager.outcome));
        List.map (fun o -> (o, sorted_rows db ("SELECT * FROM " ^ o))) outputs);
  }

(* ------------------------------------------------------------------ *)
(* scenario: mid-flight rollback                                       *)

(* Forward-migrate part of a 1:1 copy, edit and delete rows through the
   new schema, then roll the migration back mid-flight and drain the
   backward migration.  A crash can land in the forward phase or in the
   backward phase; [Lazy_db.recover] reads which from the log (a Start
   record alone resumes forward and the rollback then proceeds; a
   Rollback record resumes backward — forward trackers rebuilt for the
   purge set, purge TID ceilings from the record, backward trackers
   refilled).  The final [src] must reflect the never-crashed history:
   the edit and the delete made through [dst] survive the trip back. *)
let rollback_scenario =
  {
    sc_name = "rollback";
    sc_run =
      (fun () ->
        let db = mk_src_db 48 in
        let ld = ref (Lazy_db.create db) in
        ignore (Lazy_db.start_migration !ld ~page_size:4 (copy_spec ()) : Migrate_exec.t);
        (* whether the rollback flip happened — what a retry after a
           crash still has to do *)
        let flipped = ref false in
        let forward_phase () =
          ignore (Lazy_db.exec !ld "SELECT * FROM dst WHERE id = 9" : Executor.result);
          ignore (Lazy_db.background_step !ld ~batch:2 : int);
          ignore
            (Lazy_db.exec !ld "UPDATE dst SET v = 'edited' WHERE id = 9"
              : Executor.result);
          ignore (Lazy_db.exec !ld "DELETE FROM dst WHERE id = 10" : Executor.result)
        in
        let flip_back () =
          match Lazy_db.rollback_migration !ld with
          | Some _ -> flipped := true
          | None -> failwith "fault_sweep: rollback derived no backward spec"
        in
        let finishing () =
          let probe_results =
            List.map
              (fun sql ->
                ignore (Lazy_db.exec !ld sql : Executor.result);
                (sql, sorted_rows db sql))
              [
                "SELECT * FROM src WHERE id = 9";
                "SELECT * FROM src WHERE grp = 3";
              ]
          in
          while Lazy_db.background_step !ld ~batch:4 > 0 do
            ()
          done;
          if not (Lazy_db.migration_complete !ld) then
            failwith "fault_sweep: rollback incomplete after drain";
          Lazy_db.finalize !ld;
          probe_results @ [ ("src", sorted_rows db "SELECT * FROM src") ]
        in
        let cycle () =
          if not !flipped then begin
            forward_phase ();
            flip_back ()
          end;
          finishing ()
        in
        try cycle ()
        with Fault.Crash _ ->
          ld := Lazy_db.recover db;
          cycle ());
  }

let scenarios =
  [
    bitmap_scenario;
    mvcc_scenario;
    hash_scenario;
    pair_scenario;
    joinkey_scenario;
    multistep_scenario;
    eager_scenario;
    rollback_scenario;
  ]

(* Scenarios registered by layers above this library (lib/cluster's 2PC
   scenario — the cluster depends on bullfrog_core, so it cannot be
   listed here statically). *)
let external_scenarios : scenario list ref = ref []

let register sc =
  if
    List.exists
      (fun s -> s.sc_name = sc.sc_name)
      (scenarios @ !external_scenarios)
  then invalid_arg ("Fault_sweep.register: duplicate scenario " ^ sc.sc_name);
  external_scenarios := !external_scenarios @ [ sc ]

let all_scenarios () = scenarios @ !external_scenarios

let find_scenario name =
  match List.find_opt (fun s -> s.sc_name = name) (all_scenarios ()) with
  | Some s -> s
  | None -> invalid_arg ("Fault_sweep.find_scenario: unknown scenario " ^ name)

(* ------------------------------------------------------------------ *)
(* driver                                                              *)

let first_diff oracle got =
  let rec go = function
    | [], [] -> "results equal"
    | (label, o) :: _, [] | [], (label, o) :: _ ->
        Printf.sprintf "missing result set %s (%d rows on the other side)" label
          (List.length o)
    | (lo, o) :: os, (lg, g) :: gs ->
        if lo <> lg then Printf.sprintf "result sets diverge: %s vs %s" lo lg
        else if o <> g then
          Printf.sprintf "%s: oracle %d row(s), got %d row(s)%s" lo
            (List.length o) (List.length g)
            (match
               List.find_opt
                 (fun r -> not (List.mem r g))
                 o
             with
            | Some r -> Printf.sprintf "; oracle-only row %S" r
            | None -> (
                match List.find_opt (fun r -> not (List.mem r o)) g with
                | Some r -> Printf.sprintf "; extra row %S" r
                | None -> "; multiplicities differ"))
        else go (os, gs)
  in
  go (oracle, got)

(* Every fired crash must leave a readable flight-recorder dump behind —
   the dump is the post-mortem story of the run, and a cell where it is
   missing or unparseable fails even when recovery itself succeeded. *)
let check_flight_dump point =
  try
    let reason, entries = Obs.Flight.load (Obs.Flight.path ()) in
    if reason <> Fault.name_of point then
      Some
        (Printf.sprintf "flight dump reason %S, expected %S" reason
           (Fault.name_of point))
    else if entries = [] then Some "flight dump has no entries"
    else if
      not
        (List.exists
           (fun e -> e.Obs.Flight.fl_cat = "fault")
           entries)
    then Some "flight dump lacks the fault-fire entry"
    else None
  with e ->
    Some (Printf.sprintf "unreadable flight dump: %s" (Printexc.to_string e))

let run_cell ?(after = 0) sc oracle point =
  Fault.arm ~after point;
  let outcome =
    try Ok (sc.sc_run ()) with
    | Fault.Crash name ->
        Error (Printf.sprintf "unrecovered crash at %s" name)
    | e -> Error (Printexc.to_string e)
  in
  let fired = Fault.fired () in
  Fault.disarm ();
  let flight_fail = if fired then check_flight_dump point else None in
  match (outcome, flight_fail) with
  | Ok got, None ->
      let ok = got = oracle in
      {
        c_scenario = sc.sc_name;
        c_point = point;
        c_fired = fired;
        c_ok = ok;
        c_detail = (if ok then "" else first_diff oracle got);
      }
  | Ok got, Some flight_msg ->
      let data_ok = got = oracle in
      {
        c_scenario = sc.sc_name;
        c_point = point;
        c_fired = fired;
        c_ok = false;
        c_detail =
          (if data_ok then flight_msg
           else first_diff oracle got ^ "; " ^ flight_msg);
      }
  | Error msg, flight_fail ->
      let msg =
        match flight_fail with Some f -> msg ^ "; " ^ f | None -> msg
      in
      { c_scenario = sc.sc_name; c_point = point; c_fired = fired; c_ok = false; c_detail = msg }

let run_scenario ?(points = List.map fst (Fault.all ())) sc =
  Fault.disarm ();
  let oracle = sc.sc_run () in
  List.map (run_cell sc oracle) points

let run_sweep ?names ?points () =
  List.concat_map
    (fun sc -> run_scenario ?points sc)
    (match names with
    | Some names -> List.map find_scenario names
    | None -> all_scenarios ())

(* The bounded sweep arms, per scenario, only the points its engine path
   can reach — every cell in it actually crashes and recovers.  Cells
   carry an [after] skip count so one scenario can crash the same site
   in different phases (the rollback scenario reaches [p_mark_commit]
   both migrating forward and migrating back).  Used by the test suite
   and `make check`. *)
let bounded_cells =
  [
    ("bitmap", [ (Fault.p_mark_commit, 0); (Fault.p_flip_batched, 0); (Fault.p_bg_batch, 0) ]);
    ("mvcc", [ (Fault.p_commit_ts, 0); (Fault.p_gc_sweep, 0) ]);
    ("hash", [ (Fault.p_mark_commit, 0); (Fault.p_flip_batched, 0) ]);
    ("pair", [ (Fault.p_pair_commit, 0); (Fault.p_pair_flip, 0) ]);
    ("joinkey", [ (Fault.p_mark_commit, 0); (Fault.p_flip_batched, 0) ]);
    ("multistep", [ (Fault.p_multistep_copy, 0) ]);
    ("eager", [ (Fault.p_eager_copy, 0) ]);
    (* forward-phase crashes (after 0) and backward-phase crashes (after
       skipping the forward phase's hits) of the same sites *)
    ( "rollback",
      [
        (Fault.p_mark_commit, 0);
        (Fault.p_bg_batch, 0);
        (Fault.p_mark_commit, 2);
        (Fault.p_flip_batched, 2);
        (Fault.p_bg_batch, 1);
      ] );
  ]

let run_bounded () =
  List.concat_map
    (fun (name, cells) ->
      let sc = find_scenario name in
      Fault.disarm ();
      let oracle = sc.sc_run () in
      List.map (fun (point, after) -> run_cell ~after sc oracle point) cells)
    bounded_cells

let fired_count cells =
  List.length (List.filter (fun c -> c.c_fired) cells)

let pp_cell c =
  Printf.sprintf "%-10s x %-15s %s %s%s" c.c_scenario
    (Fault.name_of c.c_point)
    (if c.c_fired then "crashed " else "no-crash")
    (if c.c_ok then "ok" else "FAIL")
    (if c.c_detail = "" then "" else ": " ^ c.c_detail)
