open Bullfrog_db

type rebuild_report = { rb_restored : int; rb_dropped : int }

let rebuild_report (rt : Migrate_exec.t) (redo : Redo_log.t) =
  let restored = ref 0 in
  let dropped = ref 0 in
  Redo_log.iter redo (fun record ->
      List.iter
        (fun (mark : Redo_log.migration_mark) ->
          if mark.Redo_log.mig_id = rt.Migrate_exec.mig_id then
            List.iter
              (fun (stmt : Migrate_exec.rt_stmt) ->
                (match (stmt.Migrate_exec.rs_pair, mark.Redo_log.granule) with
                | Some pr, Redo_log.G_group key
                  when pr.Migrate_exec.pr_a.Migrate_exec.ri_heap.Heap.name
                       = mark.Redo_log.mig_table ->
                    if not (Hash_tracker.is_migrated pr.Migrate_exec.pr_tracker key)
                    then begin
                      Hash_tracker.force_migrated pr.Migrate_exec.pr_tracker key;
                      incr restored
                    end
                | _ -> ());
                List.iter
                  (fun (input : Migrate_exec.rt_input) ->
                    if input.Migrate_exec.ri_heap.Heap.name = mark.Redo_log.mig_table
                    then
                      match (input.Migrate_exec.ri_tracker, mark.Redo_log.granule) with
                      | Migrate_exec.RT_bitmap bt, Redo_log.G_tid g ->
                          if g >= Bitmap_tracker.granule_count bt then
                            (* heap shrank across the restart: the granule
                               no longer exists; count it rather than lose
                               it silently *)
                            incr dropped
                          else if not (Bitmap_tracker.is_migrated bt g) then begin
                            Bitmap_tracker.force_migrated bt g;
                            incr restored
                          end
                      | Migrate_exec.RT_hash (ht, _), Redo_log.G_group key ->
                          if not (Hash_tracker.is_migrated ht key) then begin
                            Hash_tracker.force_migrated ht key;
                            incr restored
                          end
                      | Migrate_exec.RT_none, _
                      | Migrate_exec.RT_bitmap _, Redo_log.G_group _
                      | Migrate_exec.RT_hash _, Redo_log.G_tid _ ->
                          ())
                  stmt.Migrate_exec.rs_inputs)
              rt.Migrate_exec.stmts)
        record.Redo_log.marks);
  { rb_restored = !restored; rb_dropped = !dropped }

(* The runtime re-installed from the spec and the settings the switch
   chose, without re-creating the output tables (they persist).
   Trackers come back empty. *)
let simulate_crash (rt : Migrate_exec.t) =
  Migrate_exec.install ~resume:true ~mode:rt.Migrate_exec.mode
    ~overwrite:rt.Migrate_exec.overwrite ~page_size:rt.Migrate_exec.page_size
    ~nn:rt.Migrate_exec.nn ~fk_join:rt.Migrate_exec.fk_join ?lint:rt.Migrate_exec.lint
    ~mig_id:rt.Migrate_exec.mig_id rt.Migrate_exec.db rt.Migrate_exec.spec

(* The full restart cycle: lose the volatile runtime, rebuild trackers
   from the log.  What a process would do on its next boot. *)
let recover (rt : Migrate_exec.t) =
  let rt' = simulate_crash rt in
  let report = rebuild_report rt' rt.Migrate_exec.db.Database.redo in
  (rt', report)
