open Bullfrog_db

type outcome = {
  rows_copied : int;
  input_rows_read : int;
}

(* Rows are streamed out of the population plan straight into the output
   table, so the full result set is never materialised.  The statement's
   transaction undo makes a failed copy all-or-nothing.  [batch_rows] only
   paces the crash point. *)
let batch_rows = 4096

let migrate db (spec : Migration.t) =
  (* Reuse the installer for output creation and classification checks,
     then push every granule through in one transaction per statement. *)
  let rt = Migrate_exec.install ~mig_id:0 db spec in
  let ctx = Database.exec_ctx db in
  let pctx = { Planner.catalog = db.Database.catalog; run_subquery = (fun _ -> []) } in
  let rows_copied = ref 0 and input_rows_read = ref 0 in
  List.iter
    (fun (stmt : Migrate_exec.rt_stmt) ->
      let input_rows =
        List.fold_left
          (fun acc (input : Migrate_exec.rt_input) ->
            acc + Heap.live_count input.Migrate_exec.ri_heap)
          0 stmt.Migrate_exec.rs_inputs
      in
      Database.with_txn db (fun txn ->
          List.iter
            (fun (out_heap, population) ->
              (* Populations read the real old tables directly: the catalog
                 still holds them, and the outputs are empty. *)
              Heap.reserve out_heap input_rows;
              let planned = Planner.plan_select pctx population in
              let pending = ref 0 in
              (* mid-copy, inside the statement's transaction: a crash
                 here aborts the whole statement's copy *)
              let crash_point () =
                pending := 0;
                Fault.point Fault.p_eager_copy
              in
              Executor.iter_plan txn planned.Planner.plan (fun row ->
                  ignore (Executor.insert_row ctx txn out_heap row : int option);
                  incr rows_copied;
                  incr pending;
                  if !pending >= batch_rows then crash_point ());
              if !pending > 0 then crash_point ())
            stmt.Migrate_exec.rs_outputs;
          input_rows_read := !input_rows_read + input_rows))
    rt.Migrate_exec.stmts;
  Database.drop_tables db spec.Migration.drop_old;
  { rows_copied = !rows_copied; input_rows_read = !input_rows_read }
