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

let rebuild rt redo =
  let r = rebuild_report rt redo in
  if r.rb_dropped > 0 then
    Logs.warn (fun m ->
        m "Recovery.rebuild: %d granule mark(s) out of tracker range dropped"
          r.rb_dropped);
  r.rb_restored

let simulate_crash (rt : Migrate_exec.t) =
  (* Rebuild the runtime structures from the spec, without re-creating the
     output tables (they persist).  Trackers come back empty. *)
  let db = rt.Migrate_exec.db in
  let catalog = db.Database.catalog in
  let uid_counter = ref 0 in
  let fresh_uid () =
    incr uid_counter;
    !uid_counter
  in
  let stmts =
    List.map
      (fun (stmt : Migrate_exec.rt_stmt) ->
        {
          stmt with
          Migrate_exec.rs_pair =
            Option.map
              (fun (pr : Migrate_exec.pair_rt) ->
                {
                  pr with
                  Migrate_exec.pr_tracker = Hash_tracker.create ();
                  pr_bg_cursor = 0;
                  pr_bg_done = false;
                })
              stmt.Migrate_exec.rs_pair;
          rs_inputs =
            (let plans =
               List.map (fun (i : Migrate_exec.rt_input) -> i.Migrate_exec.ri_plan)
                 stmt.Migrate_exec.rs_inputs
             in
             let shared_hash =
               if
                 List.length
                   (List.filter
                      (fun (p : Classify.input_plan) ->
                        p.Classify.ip_category = Classify.Many_to_many)
                      plans)
                 >= 2
               then Some (Hash_tracker.create (), fresh_uid ())
               else None
             in
             let pair_mode = stmt.Migrate_exec.rs_pair <> None in
             List.map
               (fun (plan : Classify.input_plan) ->
                 let heap = Catalog.find_table_exn catalog plan.Classify.ip_table in
                 let tracker, uid =
                   match plan.Classify.ip_tracking with
                   | Classify.T_none -> (Migrate_exec.RT_none, 0)
                   | Classify.T_hash _
                     when pair_mode && plan.Classify.ip_category = Classify.Many_to_many
                     ->
                       (Migrate_exec.RT_none, 0)
                   | Classify.T_bitmap ->
                       ( Migrate_exec.RT_bitmap
                           (Bitmap_tracker.create ~page_size:rt.Migrate_exec.page_size
                              ~size:(Heap.tid_count heap) ()),
                         fresh_uid () )
                   | Classify.T_hash cols ->
                       let idxs =
                         Array.of_list
                           (List.map (Schema.col_index_exn heap.Heap.schema) cols)
                       in
                       let ht, uid =
                         match (plan.Classify.ip_category, shared_hash) with
                         | Classify.Many_to_many, Some (shared, uid) -> (shared, uid)
                         | _ -> (Hash_tracker.create (), fresh_uid ())
                       in
                       (Migrate_exec.RT_hash (ht, idxs), uid)
                 in
                 {
                   Migrate_exec.ri_alias = plan.Classify.ip_alias;
                   ri_heap = heap;
                   ri_plan = plan;
                   ri_tracker = tracker;
                   ri_tracker_uid = uid;
                   ri_probe = Probe_map.create ();
                   ri_bg_cursor = 0;
                   ri_bg_done = false;
                 })
               plans);
        })
      rt.Migrate_exec.stmts
  in
  { rt with Migrate_exec.stmts }

(* The full restart cycle: lose the volatile runtime, rebuild trackers
   from the log.  What a process would do on its next boot. *)
let recover (rt : Migrate_exec.t) =
  let rt' = simulate_crash rt in
  let report = rebuild_report rt' rt.Migrate_exec.db.Database.redo in
  (rt', report)
