open Bullfrog_sql

(* What a prepared statement compiles to: a SELECT's physical plan or a
   DML statement's closure. *)
type compiled = C_select of Planner.planned | C_write of Executor.write

type cached_plan = {
  cp_epoch : int;  (* Catalog.epoch the plan was built under *)
  cp_compiled : compiled;
}

type prepared = {
  p_stmt : Ast.stmt;
  p_nparams : int;  (* highest $n referenced *)
  p_cacheable : bool;  (* plan / closure reusable across executions? *)
  mutable p_plan : cached_plan option;
}

type t = {
  catalog : Catalog.t;
  redo : Redo_log.t;
  locks : Lock_manager.t;
  mutable next_txn_id : int;
  txn_latch : Mutex.t;
  stmt_cache : (string, prepared) Hashtbl.t;
  stmt_latch : Mutex.t;
  (* Migration marks accumulated per transaction id, drained at commit.
     Per-database (not module-level): txn ids restart at 1 in every
     database, so a shared table would cross-contaminate marks between
     two live instances (the harness runs one per simulated system). *)
  marks_tbl : (int, Redo_log.migration_mark list ref) Hashtbl.t;
  marks_latch : Mutex.t;
  mutable vacuum_next : int;
}

let create () =
  let t =
    {
      catalog = Catalog.create ();
      redo = Redo_log.create ();
      locks = Lock_manager.create ();
      next_txn_id = 1;
      txn_latch = Mutex.create ();
      stmt_cache = Hashtbl.create 64;
      stmt_latch = Mutex.create ();
      marks_tbl = Hashtbl.create 64;
      marks_latch = Mutex.create ();
      vacuum_next = 0;
    }
  in
  (* Per-index structural stats, surfaced through [Obs.snapshot].  The
     fixed provider name means the registry tracks the most recently
     created database — replace-on-register keeps tests that create many
     short-lived databases from accumulating thunks. *)
  Obs.register_stats "db.indexes" (fun () ->
      List.concat_map
        (fun name ->
          match Catalog.find_table t.catalog name with
          | None -> []
          | Some heap ->
              List.map
                (fun idx ->
                  let s = Index.stats idx in
                  {
                    Obs.st_source = "db.index";
                    st_name = name ^ "." ^ Index.name idx;
                    st_fields =
                      [
                        ("entries", float_of_int s.Index.s_entries);
                        ("keys", float_of_int s.Index.s_keys);
                        ("buckets", float_of_int s.Index.s_buckets);
                        ("max_chain", float_of_int s.Index.s_max_chain);
                        ("load", s.Index.s_load);
                      ];
                  })
                (Heap.indexes heap))
        (Catalog.table_names t.catalog));
  t

let exec_ctx t = { Executor.catalog = t.catalog; redo = t.redo }

let begin_txn t =
  Mutex.lock t.txn_latch;
  let id = t.next_txn_id in
  t.next_txn_id <- id + 1;
  Mutex.unlock t.txn_latch;
  Txn.make ~locks:t.locks id

let add_migration_mark t (txn : Txn.t) mark =
  Mutex.lock t.marks_latch;
  (match Hashtbl.find_opt t.marks_tbl txn.Txn.id with
  | Some cell -> cell := mark :: !cell
  | None -> Hashtbl.replace t.marks_tbl txn.Txn.id (ref [ mark ]));
  Mutex.unlock t.marks_latch

let take_marks t (txn : Txn.t) =
  Mutex.lock t.marks_latch;
  let marks =
    match Hashtbl.find_opt t.marks_tbl txn.Txn.id with
    | Some cell ->
        Hashtbl.remove t.marks_tbl txn.Txn.id;
        List.rev !cell
    | None -> []
  in
  Mutex.unlock t.marks_latch;
  marks

(* Derive the redo record from the undo log plus current heap state. *)
let redo_record (txn : Txn.t) ~commit_ts marks =
  let writes = ref [] in
  Vec.iter
    (fun entry ->
      match entry with
      | Txn.U_insert (heap, tid) -> (
          match Heap.get heap tid with
          | Some row -> writes := Redo_log.W_insert (heap.Heap.name, tid, row) :: !writes
          | None -> () (* inserted then deleted in the same txn *))
      | Txn.U_delete (heap, tid, _) ->
          writes := Redo_log.W_delete (heap.Heap.name, tid) :: !writes
      | Txn.U_update (heap, tid, _) -> (
          match Heap.get heap tid with
          | Some row -> writes := Redo_log.W_update (heap.Heap.name, tid, row) :: !writes
          | None -> ()))
    txn.Txn.undo;
  { Redo_log.txn_id = txn.Txn.id; commit_ts; writes = List.rev !writes; marks }

(* Fault-injection seams: the crash-sweep harness (which lives above this
   library) installs closures that raise its crash exception at the
   timestamped-commit and GC-sweep points.  Default no-ops. *)
let commit_test_hook : (has_marks:bool -> unit) ref = ref (fun ~has_marks:_ -> ())

let gc_test_hook : (unit -> unit) ref = ref (fun () -> ())

let commit t (txn : Txn.t) =
  let marks = take_marks t txn in
  if Vec.length txn.Txn.undo > 0 || marks <> [] then begin
    (* Timestamped commit: reserve the next clock value, stamp every
       version this transaction wrote, publish with one atomic store
       (Mvcc.commit) — a concurrent snapshot reader sees all of this
       commit or none of it.  A migration flip rides the same path: its
       granule moves are ordinary versioned writes, so the "flip" is
       nothing but this single publish.  If stamping dies mid-way (fault
       injection), nothing is published or logged and the caller's abort
       unwinds the heap. *)
    let ts =
      Mvcc.commit ~stamp:(fun ts ->
          !commit_test_hook ~has_marks:(marks <> []);
          Vec.iter
            (fun entry ->
              match entry with
              | Txn.U_insert (heap, tid)
              | Txn.U_delete (heap, tid, _)
              | Txn.U_update (heap, tid, _) ->
                  Heap.stamp heap tid ~writer:txn.Txn.id ~ts)
            txn.Txn.undo)
    in
    txn.Txn.commit_ts <- ts;
    Redo_log.append t.redo (redo_record txn ~commit_ts:ts marks)
  end;
  Txn.commit txn;
  Lock_manager.release_all t.locks ~owner:txn.Txn.id

let abort t (txn : Txn.t) =
  ignore (take_marks t txn);
  Txn.abort txn;
  Lock_manager.release_all t.locks ~owner:txn.Txn.id

(* The exception arm must also cover [commit]: a timestamped commit can
   die before publishing (fault injection at [p_commit_ts], log append
   failure), and the transaction's uncommitted versions and index entries
   must then be unwound like any other abort. *)
let with_txn t f =
  let txn = begin_txn t in
  match
    let v = f txn in
    commit t txn;
    v
  with
  | v -> v
  | exception e ->
      if Txn.active txn then abort t txn;
      raise e

(* ------------------------------------------------------------------ *)
(* Two-phase commit (participant side)                                 *)
(* ------------------------------------------------------------------ *)

(* [prepare_2pc] makes the open transaction's writes durable under a
   global transaction id without committing them: the undo-derived record
   goes to this database's log as an [E_prepare] entry while the
   transaction stays open — versions uncommitted, locks held.  Replay
   applies a prepared record only when a commit decision for its gid
   follows (shard-local marker or the coordinator's decision log);
   otherwise the transaction is presumed aborted. *)
let prepare_2pc t (txn : Txn.t) ~gid =
  let marks = take_marks t txn in
  let r = redo_record txn ~commit_ts:0 marks in
  Redo_log.append_prepare t.redo ~gid r;
  r

(* Stamp the prepared transaction's versions at [ts].  The 2PC
   coordinator calls this for every participant inside a single
   {!Mvcc.commit ~stamp} callback, so the whole distributed transaction
   becomes visible through one clock publish — the same all-or-nothing
   flip a local commit gets. *)
let stamp_prepared (txn : Txn.t) ~ts =
  Vec.iter
    (fun entry ->
      match entry with
      | Txn.U_insert (heap, tid) | Txn.U_delete (heap, tid, _) | Txn.U_update (heap, tid, _)
        ->
          Heap.stamp heap tid ~writer:txn.Txn.id ~ts)
    txn.Txn.undo

(* Close out a prepared transaction once the coordinator has decided.
   On commit the caller has already stamped (and the clock published); we
   append the shard-local decision marker — the durable confirmation that
   replay may apply the prepared record at [ts] without consulting the
   coordinator.  On abort the undo log unwinds as usual and an abort
   marker is appended. *)
let resolve_2pc t (txn : Txn.t) ~gid ~commit =
  (match commit with
  | Some ts ->
      txn.Txn.commit_ts <- ts;
      Redo_log.append_decision t.redo ~gid ~commit:true ~ts;
      Txn.commit txn
  | None ->
      Redo_log.append_decision t.redo ~gid ~commit:false ~ts:0;
      ignore (take_marks t txn : Redo_log.migration_mark list);
      Txn.abort txn);
  Lock_manager.release_all t.locks ~owner:txn.Txn.id

let bind_stmt params (stmt : Ast.stmt) : Ast.stmt =
  match params with
  | None -> stmt
  | Some params -> (
      let bind_e = Ast.bind_params (Array.map Value.to_ast_literal params) in
      let bind_s = Ast.bind_params_select (Array.map Value.to_ast_literal params) in
      match stmt with
      | Ast.Select_stmt s -> Ast.Select_stmt (bind_s s)
      | Ast.Insert i ->
          Ast.Insert
            {
              i with
              source =
                (match i.source with
                | Ast.Values rows -> Ast.Values (List.map (List.map bind_e) rows)
                | Ast.Query q -> Ast.Query (bind_s q));
            }
      | Ast.Update u ->
          Ast.Update
            {
              u with
              sets = List.map (fun (c, e) -> (c, bind_e e)) u.sets;
              where = Option.map bind_e u.where;
            }
      | Ast.Delete d -> Ast.Delete { d with where = Option.map bind_e d.where }
      | other -> other)

(* ------------------------------------------------------------------ *)
(* Statement cache                                                     *)
(* ------------------------------------------------------------------ *)

(* Bounded so pathological workloads that never repeat SQL text (e.g.
   literal-splicing clients) cannot grow the table without limit; on
   overflow the whole cache is dropped — entries are pure derived state. *)
let stmt_cache_cap = 512

let c_stmt_hit = Obs.Counters.make "db.stmt_cache.hits"

let c_stmt_miss = Obs.Counters.make "db.stmt_cache.misses"

let c_plan_hit = Obs.Counters.make "db.plan_cache.hits"

let c_plan_miss = Obs.Counters.make "db.plan_cache.misses"

let prepare t sql =
  Mutex.lock t.stmt_latch;
  match Hashtbl.find_opt t.stmt_cache sql with
  | Some p ->
      Mutex.unlock t.stmt_latch;
      Obs.Counters.bump c_stmt_hit;
      p
  | None ->
      Obs.Counters.bump c_stmt_miss;
      (* Parse outside the latch; re-check for a racing insert after. *)
      Mutex.unlock t.stmt_latch;
      let stmt = Parser.parse_one sql in
      (* Subqueries are evaluated at plan / compile time, so a statement
         carrying one is planned afresh for every execution. *)
      let has = Ast.expr_has_subquery in
      let cacheable =
        match stmt with
        | Ast.Select_stmt s -> not (Ast.select_has_subquery s)
        | Ast.Insert { source = Ast.Values rows; _ } -> not (List.exists (List.exists has) rows)
        | Ast.Update { sets; where; _ } ->
            not (List.exists (fun (_, e) -> has e) sets || Option.fold ~none:false ~some:has where)
        | Ast.Delete { where; _ } -> not (Option.fold ~none:false ~some:has where)
        | _ -> false
      in
      let p =
        {
          p_stmt = stmt;
          p_nparams = Ast.max_param_stmt stmt;
          p_cacheable = cacheable;
          p_plan = None;
        }
      in
      Mutex.lock t.stmt_latch;
      let p =
        match Hashtbl.find_opt t.stmt_cache sql with
        | Some racing -> racing
        | None ->
            if Hashtbl.length t.stmt_cache >= stmt_cache_cap then
              Hashtbl.reset t.stmt_cache;
            Hashtbl.replace t.stmt_cache sql p;
            p
      in
      Mutex.unlock t.stmt_latch;
      p

let prepared_stmt p = p.p_stmt

(* Plan reuse: a plan or DML closure bakes in the resolved heap, column
   positions, access paths and compiled closures, all functions of the
   catalog state.  The epoch is read BEFORE compiling so a concurrent DDL
   mid-compile leaves the entry tagged stale (it recompiles next time)
   rather than fresh-but-wrong. *)
let compiled t txn params p =
  let epoch = Catalog.epoch t.catalog in
  match p.p_plan with
  | Some cp when cp.cp_epoch = epoch ->
      Obs.Counters.bump c_plan_hit;
      cp.cp_compiled
  | _ ->
      Obs.Counters.bump c_plan_miss;
      let c =
        match p.p_stmt with
        | Ast.Select_stmt s ->
            C_select (Planner.plan_select (Executor.planner_ctx ~params (exec_ctx t) txn) s)
        | stmt -> C_write (Executor.compile_write ~params (exec_ctx t) txn stmt)
      in
      p.p_plan <- Some { cp_epoch = epoch; cp_compiled = c };
      c

let stmt_label (stmt : Ast.stmt) =
  match stmt with
  | Ast.Select_stmt _ -> "select"
  | Ast.Insert _ -> "insert"
  | Ast.Update _ -> "update"
  | Ast.Delete _ -> "delete"
  | Ast.Create_table _ | Ast.Create_table_as _ | Ast.Create_view _ | Ast.Create_index _
    ->
      "create"
  | Ast.Drop _ -> "drop"
  | Ast.Alter_table _ -> "alter"
  | Ast.Explain _ -> "explain"
  | Ast.Explain_migration _ -> "explain-migration"
  | Ast.Begin_txn | Ast.Commit_txn | Ast.Rollback_txn -> "txn-control"

let run_prepared t txn params p =
  if not p.p_cacheable then Executor.exec_stmt ~params (exec_ctx t) txn p.p_stmt
  else begin
    (* statement boundary for the cached fast path, which skips
       [Executor.exec_stmt] *)
    Txn.refresh_snapshot txn;
    match compiled t txn params p with
    | C_select planned ->
        let names =
          Array.to_list
            (Array.map (fun (d : Plan.col_desc) -> d.Plan.cd_name) planned.Planner.output)
        in
        Executor.Rows (names, Executor.run ~params txn planned.Planner.plan)
    | C_write w -> w params txn
  end

let check_params p params =
  let supplied = match params with Some a -> Array.length a | None -> 0 in
  if supplied < p.p_nparams then
    Db_error.sql_error "statement expects %d parameter(s), got %d" p.p_nparams supplied

let exec_prepared_in t txn ?params p =
  check_params p params;
  let params = Option.value params ~default:[||] in
  (* The disabled-tracing path must not allocate a closure: test the flag
     here instead of calling [with_span] unconditionally. *)
  if not (Obs.Trace.enabled ()) then run_prepared t txn params p
  else
    Obs.Trace.with_span ~cat:"stmt" (stmt_label p.p_stmt) (fun () ->
        run_prepared t txn params p)

let exec_in t txn ?params sql =
  exec_prepared_in t txn ?params (prepare t sql)

let exec t ?params sql =
  let p = prepare t sql in
  match p.p_stmt with
  | Ast.Begin_txn | Ast.Commit_txn | Ast.Rollback_txn ->
      Db_error.sql_error "use with_txn for explicit transaction control"
  | _ -> with_txn t (fun txn -> exec_prepared_in t txn ?params p)

let exec_script t sql =
  let stmts = Parser.parse sql in
  List.map (fun stmt -> with_txn t (fun txn -> Executor.exec_stmt (exec_ctx t) txn stmt)) stmts

(* One transaction of logged [DROP TABLE IF EXISTS]: replaying the redo
   log drops the tables too. *)
let drop_tables t names =
  with_txn t (fun txn ->
      List.iter
        (fun name ->
          ignore
            (Executor.exec_stmt (exec_ctx t) txn
               (Ast.Drop { kind = Ast.Drop_table; name; if_exists = true })
              : Executor.result))
        names)

let query t ?params sql =
  match exec t ?params sql with
  | Executor.Rows (_, rows) -> rows
  | Executor.Affected _ | Executor.Done _ | Executor.Explained _ ->
      Db_error.sql_error "query: statement did not return rows"

let query_one t ?params sql =
  match query t ?params sql with
  | row :: _ -> row
  | [] -> Db_error.sql_error "query_one: empty result"

let explain t sql =
  match exec t ("EXPLAIN " ^ sql) with
  | Executor.Explained s -> s
  | _ -> Db_error.sql_error "explain: unexpected result"

(* ------------------------------------------------------------------ *)
(* Version-chain GC                                                    *)
(* ------------------------------------------------------------------ *)

let c_gc_runs = Obs.Counters.make "mvcc.gc_runs"

let c_gc_reclaimed = Obs.Counters.make "mvcc.gc_reclaimed"

(* Epoch-based reclamation, where the "epochs" are pinned snapshot
   timestamps: Mvcc.horizon() is the oldest snapshot any reader can still
   hold, so every version superseded at or below it is unreachable.
   Unpinned statement-level readers re-acquire their snapshot per
   statement and cannot span a vacuum (single statement = no yield point
   that outlives the sweep's latch acquisition per table); long-lived
   readers must pin.  GC only ever shortens chains — it never touches the
   head version — so it is invisible to latest-version readers and
   crash-safe at any point (the sweep is idempotent and carries no
   logical state). *)
let vacuum ?budget t =
  Obs.Trace.with_span ~cat:"mvcc" "gc" @@ fun () ->
  Obs.Counters.bump c_gc_runs;
  let horizon = Mvcc.horizon () in
  (* Each table's GC walks only its written-slot list.  With a budget,
     tables are visited in catalog order from [vacuum_next] until it is
     spent; a table's GC stops mid-list and keeps the rest listed, and
     the next call starts at the table after the last one visited, so a
     table busy enough to spend every budget cannot starve the rest. *)
  let budget = match budget with None -> max_int | Some b -> max 1 b in
  let names = Array.of_list (Catalog.table_names t.catalog) in
  let n = Array.length names in
  let start = if n = 0 then 0 else t.vacuum_next mod n in
  let reclaimed = ref 0 and i = ref 0 in
  while !i < n && !reclaimed < budget do
    (match Catalog.find_table t.catalog names.((start + !i) mod n) with
    | None -> ()
    | Some heap ->
        !gc_test_hook ();
        reclaimed := !reclaimed + Heap.gc ~budget:(budget - !reclaimed) heap ~horizon);
    incr i
  done;
  t.vacuum_next <- start + !i;
  if !reclaimed > 0 then Obs.Counters.add c_gc_reclaimed !reclaimed;
  !reclaimed

let version_backlog t =
  List.fold_left
    (fun acc name ->
      match Catalog.find_table t.catalog name with
      | None -> acc
      | Some heap -> acc + Heap.chained_versions heap)
    0
    (Catalog.table_names t.catalog)

(* ------------------------------------------------------------------ *)
(* Redo replay                                                         *)
(* ------------------------------------------------------------------ *)

(* Rebuild a database from an (untruncated) redo log: DDL entries re-run
   their SQL text against the fresh catalog, committed data writes apply
   straight to the heaps at their original TIDs (no constraint
   re-checking — they already passed once; [Heap.insert_at] pads the TID
   gaps burned by aborted transactions, so bitmap granule numbering
   survives the round trip).  Commit records are re-appended verbatim, so
   the replayed database's own log still supports tracker rebuild. *)
let replay ?(resolve = fun _gid -> false) (src : Redo_log.t) =
  Obs.Trace.with_span ~cat:"recovery" "redo-replay" @@ fun () ->
  let t = create () in
  let apply_record (r : Redo_log.record) =
    (* Re-stamp with the logged commit timestamp and fold it into the
       clock, so the rebuilt heap is a consistent newest-version image:
       post-recovery snapshots (>= every durable commit_ts) see exactly
       the committed data.  Version chains are not rebuilt — no pinned
       snapshot survives a crash, so only the newest version matters. *)
    let ts = if r.Redo_log.commit_ts > 0 then Some r.Redo_log.commit_ts else None in
    Mvcc.observe r.Redo_log.commit_ts;
    List.iter
      (fun (w : Redo_log.write) ->
        match w with
        | Redo_log.W_insert (tbl, tid, row) ->
            Heap.insert_at ?ts (Catalog.find_table_exn t.catalog tbl) tid row
        | Redo_log.W_delete (tbl, tid) ->
            ignore (Heap.delete ?ts (Catalog.find_table_exn t.catalog tbl) tid : Heap.row)
        | Redo_log.W_update (tbl, tid, row) ->
            ignore
              (Heap.update ?ts (Catalog.find_table_exn t.catalog tbl) tid row : Heap.row))
      r.Redo_log.writes;
    Redo_log.append t.redo r
  in
  (* Prepared-but-unresolved 2PC transactions, in log order.  A
     shard-local commit marker applies the prepared record in place (so
     ordering against later commits to the same TIDs is preserved); a gid
     still pending at end-of-log is in doubt and goes to [resolve] —
     presumed abort unless the coordinator's decision log says commit. *)
  let pending : (string * Redo_log.record) list ref = ref [] in
  List.iter
    (fun (entry : Redo_log.entry) ->
      match entry with
      | Redo_log.E_ddl { d_sql; _ } ->
          let stmt = Parser.parse_one d_sql in
          with_txn t (fun txn ->
              ignore (Executor.exec_stmt (exec_ctx t) txn stmt : Executor.result))
      | Redo_log.E_commit r -> apply_record r
      | Redo_log.E_prepare { p_gid; p_record } ->
          pending := (p_gid, p_record) :: !pending
      | Redo_log.E_decision { dc_gid; dc_commit; dc_ts } -> (
          match List.assoc_opt dc_gid !pending with
          | None -> () (* decision for a checkpoint-truncated prepare *)
          | Some r ->
              pending := List.filter (fun (g, _) -> g <> dc_gid) !pending;
              if dc_commit then
                apply_record { r with Redo_log.commit_ts = dc_ts })
      | Redo_log.E_migration { mg_id; mg_step } ->
          Redo_log.append_lifecycle t.redo ~mig_id:mg_id mg_step)
    (Redo_log.entries src);
  (* In-doubt resolution.  A crash can only truncate the log, so every
     pending gid's effects are strictly after everything replayed above —
     applying them now preserves write order.  Commits get a fresh
     timestamp: the one reserved before the crash was never published on
     this shard, and only visibility ordering matters. *)
  List.iter
    (fun (gid, r) ->
      if resolve gid then
        apply_record { r with Redo_log.commit_ts = Mvcc.commit ~stamp:(fun _ -> ()) })
    (List.rev !pending);
  t
