open Bullfrog_sql
open Bullfrog_db

type stats = {
  mutable copied_granules : int;
  mutable copied_rows : int;
  mutable dual_write_rows : int;
  mutable refreshed_granules : int;
}

type t = {
  rt : Migrate_exec.t;  (* trackers double as copied-status *)
  db : Database.t;
  st : stats;
  report : Migrate_exec.report;  (* feeds the copier counters *)
}

let err = Db_error.sql_error

(* Write propagation granularity, mirroring what a trigger can do:

   - {e row-level} when the input's primary key is projected (under the
     same names) into every output of the statement — the trigger can
     locate and replace exactly the output rows derived from the written
     row (splits, denormalising joins);
   - otherwise {e group-level} on the tracking key (aggregates: the
     output row of the written row's group is recomputed). *)
let pk_col_names (input : Migrate_exec.rt_input) =
  let schema = input.Migrate_exec.ri_heap.Heap.schema in
  match schema.Schema.primary_key with
  | Some pk -> Array.map (fun i -> schema.Schema.columns.(i).Schema.name) pk
  | None -> [||]

let tracking_col_names (input : Migrate_exec.rt_input) =
  let schema = input.Migrate_exec.ri_heap.Heap.schema in
  match input.Migrate_exec.ri_tracker with
  | Migrate_exec.RT_hash (_, cols) ->
      Array.map (fun i -> schema.Schema.columns.(i).Schema.name) cols
  | Migrate_exec.RT_bitmap _ -> pk_col_names input
  | Migrate_exec.RT_none -> [||]

let projected_in_outputs (stmt : Migrate_exec.rt_stmt) cols =
  Array.length cols > 0
  && List.for_all
       (fun (out_heap, _) ->
         Array.for_all (fun c -> Schema.col_index out_heap.Heap.schema c <> None) cols)
       stmt.Migrate_exec.rs_outputs

(* (column names, row_level) used to identify a written row's derived
   output rows. *)
let identity_for (stmt : Migrate_exec.rt_stmt) (input : Migrate_exec.rt_input) =
  let pk = pk_col_names input in
  if projected_in_outputs stmt pk then (pk, true)
  else (tracking_col_names input, false)


let start ?page_size db (spec : Migration.t) =
  let rt = Migrate_exec.install ?page_size ~nn:Migrate_exec.Nn_join_key ~mig_id:0 db spec in
  (* Validate maintainability: every tracked input of every statement must
     have identity columns present in each of the statement's outputs. *)
  List.iter
    (fun (stmt : Migrate_exec.rt_stmt) ->
      List.iter
        (fun (input : Migrate_exec.rt_input) ->
          if input.Migrate_exec.ri_tracker <> Migrate_exec.RT_none then begin
            let cols, row_level = identity_for stmt input in
            ignore row_level;
            if Array.length cols = 0 then
              err
                "multistep cannot maintain migration %S: input %s has no identity key"
                spec.Migration.name input.Migrate_exec.ri_heap.Heap.name;
            if not (projected_in_outputs stmt cols) then
              err
                "multistep cannot maintain migration %S: outputs do not project the identity columns of input %s"
                spec.Migration.name input.Migrate_exec.ri_heap.Heap.name
          end)
        stmt.Migrate_exec.rs_inputs)
    rt.Migrate_exec.stmts;
  let t =
    {
      rt;
      db;
      st =
        { copied_granules = 0; copied_rows = 0; dual_write_rows = 0; refreshed_granules = 0 };
      report = Migrate_exec.new_report ();
    }
  in
  (* Surface copier/dual-write tallies through [Obs.snapshot].  Keyed by a
     fixed name: the registry replaces on re-registration, so repeated
     [start]s (tests, harness restarts) do not accumulate providers. *)
  Obs.register_stats "multistep" (fun () ->
      [
        {
          Obs.st_source = "multistep";
          st_name = spec.Migration.name;
          st_fields =
            [
              ("copied_granules", float_of_int t.st.copied_granules);
              ("copied_rows", float_of_int t.st.copied_rows);
              ("dual_write_rows", float_of_int t.st.dual_write_rows);
              ("refreshed_granules", float_of_int t.st.refreshed_granules);
              ("progress", Migrate_exec.progress t.rt);
            ];
        };
      ]);
  t

let copier_step t ~batch =
  let before_rows = t.report.Migrate_exec.r_rows_migrated in
  let n = Migrate_exec.background_step t.rt t.report ~batch in
  t.st.copied_granules <- t.st.copied_granules + n;
  t.st.copied_rows <-
    t.st.copied_rows + (t.report.Migrate_exec.r_rows_migrated - before_rows);
  Fault.point Fault.p_multistep_copy;
  n

(* ------------------------------------------------------------------ *)
(* Write propagation                                                   *)
(* ------------------------------------------------------------------ *)

let key_of_row (input : Migrate_exec.rt_input) row =
  let schema = input.Migrate_exec.ri_heap.Heap.schema in
  match input.Migrate_exec.ri_tracker with
  | Migrate_exec.RT_hash (_, cols) -> Array.map (fun i -> row.(i)) cols
  | Migrate_exec.RT_bitmap _ -> (
      match schema.Schema.primary_key with
      | Some pk -> Array.map (fun i -> row.(i)) pk
      | None -> [||])
  | Migrate_exec.RT_none -> [||]

let granule_copied (input : Migrate_exec.rt_input) granule =
  match (input.Migrate_exec.ri_tracker, granule) with
  | Migrate_exec.RT_bitmap bt, Migrate_exec.G_tid g ->
      g < Bitmap_tracker.granule_count bt && Bitmap_tracker.is_migrated bt g
  | Migrate_exec.RT_hash (ht, _), Migrate_exec.G_key k -> Hash_tracker.is_migrated ht k
  | _ -> false

(* Granule of a row that may lie beyond the bitmap snapshot. *)
let granule_of_written_row (input : Migrate_exec.rt_input) tid row =
  match input.Migrate_exec.ri_tracker with
  | Migrate_exec.RT_bitmap bt ->
      let g = tid / Bitmap_tracker.page_size bt in
      (Migrate_exec.G_tid g, g >= Bitmap_tracker.granule_count bt)
  | Migrate_exec.RT_hash (_, cols) ->
      (Migrate_exec.G_key (Array.map (fun i -> row.(i)) cols), false)
  | Migrate_exec.RT_none -> invalid_arg "granule_of_written_row: untracked"

(* Delete the output rows matching the identity key and re-derive them
   from the (already updated) old schema, restricted to [rows] of the
   written input. *)
let refresh_rows t (stmt : Migrate_exec.rt_stmt) (input : Migrate_exec.rt_input)
    ~(cols : string array) ~(key_vals : Value.t array)
    (rows : (int * Heap.row) list) ~(delete_old : bool) =
  Database.with_txn t.db (fun txn ->
      let ctx = Database.exec_ctx t.db in
      if delete_old then
        List.iter
          (fun (out_heap, _) ->
            let conjs =
              Array.to_list
                (Array.mapi
                   (fun j c ->
                     Ast.Binop (Ast.Eq, Ast.Col (None, c), Value.to_ast_literal key_vals.(j)))
                   cols)
            in
            let targets = Access.scan_pred ~latest:true txn out_heap (Ast.conjoin conjs) in
            List.iter (fun (tid, _) -> Executor.delete_row ctx txn out_heap tid) targets;
            t.st.dual_write_rows <- t.st.dual_write_rows + List.length targets)
          stmt.Migrate_exec.rs_outputs;
      (* Only the written input is narrowed to [rows]; every other input
         is read in full from its real table. *)
      Migrate_exec.run_population t.rt txn stmt
        [ (input.Migrate_exec.ri_heap.Heap.name, rows) ]
        (fun out_heap derived ->
          List.iter
            (fun row ->
              match
                Executor.insert_row ctx txn out_heap ~on_conflict_do_nothing:true row
              with
              | Some _ -> t.st.dual_write_rows <- t.st.dual_write_rows + 1
              | None -> ())
            derived));
  t.st.refreshed_granules <- t.st.refreshed_granules + 1

let refresh_for_written_row t stmt input tid row ~is_insert ~deleted =
  let cols, row_level = identity_for stmt input in
  if row_level then begin
    let schema = input.Migrate_exec.ri_heap.Heap.schema in
    let key_vals =
      Array.map (fun c -> row.(Schema.col_index_exn schema c)) cols
    in
    (* a deleted row derives nothing; only its old outputs are removed *)
    let rows = if deleted then [] else [ (tid, row) ] in
    refresh_rows t stmt input ~cols ~key_vals rows ~delete_old:(not is_insert)
  end
  else begin
    (* group-level: recompute the written row's whole group *)
    let g, _ = granule_of_written_row input tid row in
    let key_vals = key_of_row input row in
    let rows = Migrate_exec.rows_for_granule t.rt input g in
    refresh_rows t stmt input ~cols ~key_vals rows ~delete_old:true
  end

let inputs_for_table t table =
  let table = String.lowercase_ascii table in
  List.concat_map
    (fun (stmt : Migrate_exec.rt_stmt) ->
      List.filter_map
        (fun (input : Migrate_exec.rt_input) ->
          if
            input.Migrate_exec.ri_heap.Heap.name = table
            && input.Migrate_exec.ri_tracker <> Migrate_exec.RT_none
          then Some (stmt, input)
          else None)
        stmt.Migrate_exec.rs_inputs)
    t.rt.Migrate_exec.stmts

(* A client statement through the statement cache and plan cache, with
   the dual-write refresh a trigger would run for writes to a tracked
   input.  Only the affected-row snapshot of an UPDATE/DELETE reads the
   statement's WHERE, under the same parameters. *)
let exec_in t txn ?params sql =
  let p = Database.prepare t.db sql in
  let run () = Database.exec_prepared_in t.db txn ?params p in
  match Database.prepared_stmt p with
  | Ast.Update { table; where; _ } | Ast.Delete { table; where } -> (
      match inputs_for_table t table with
      | [] -> run ()
      | targets ->
          (* Snapshot the affected rows before the write. *)
          Database.check_params p params;
          let heap = Catalog.find_table_exn t.db.Database.catalog table in
          let affected = Access.scan_pred ?params ~latest:true txn heap where in
          let result = run () in
          List.iter
            (fun (stmt_rt, input) ->
              List.iter
                (fun (tid, row) ->
                  let g, beyond = granule_of_written_row input tid row in
                  if beyond || granule_copied input g then
                    match Heap.get heap tid with
                    | Some row' ->
                        refresh_for_written_row t stmt_rt input tid row'
                          ~is_insert:false ~deleted:false
                    | None ->
                        (* deleted: remove its derived output rows *)
                        refresh_for_written_row t stmt_rt input tid row
                          ~is_insert:false ~deleted:true)
                affected)
            targets;
          result)
  | Ast.Insert { table; _ } -> (
      match inputs_for_table t table with
      | [] -> run ()
      | targets ->
          let heap = Catalog.find_table_exn t.db.Database.catalog table in
          let before = Heap.tid_count heap in
          let result = run () in
          let after = Heap.tid_count heap in
          List.iter
            (fun (stmt_rt, input) ->
              for tid = before to after - 1 do
                match Heap.get heap tid with
                | None -> ()
                | Some row ->
                    let g, beyond = granule_of_written_row input tid row in
                    (* once the copier's scan has passed this position, a new
                       row is never revisited: propagate it ourselves *)
                    let copier_passed =
                      input.Migrate_exec.ri_bg_done
                      || input.Migrate_exec.ri_bg_cursor > tid
                    in
                    if beyond || copier_passed || granule_copied input g then
                      refresh_for_written_row t stmt_rt input tid row
                        ~is_insert:true ~deleted:false
              done)
            targets;
          result)
  | _ -> run ()

let exec t ?params sql = Database.with_txn t.db (fun txn -> exec_in t txn ?params sql)

let runtime t = t.rt

let complete t = Migrate_exec.complete t.rt

let progress t = Migrate_exec.progress t.rt

let stats t = t.st

let switch_over t =
  if not (complete t) then err "multistep: copy has not finished";
  Database.drop_tables t.db t.rt.Migrate_exec.spec.Migration.drop_old;
  Obs.unregister_stats "multistep"
