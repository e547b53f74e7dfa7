open Bullfrog_sql
open Bullfrog_db

(* Rollback bookkeeping (§4.2j).  Rolling a half-done migration back
   re-installs the derived backward spec as an ordinary lazy migration,
   but the old tables are not pristine: every granule the FORWARD
   migration moved may since have diverged through the new schema
   (updates, deletes).  Those stale source rows must not be served.  A
   [purge] records, per old table, the forward-migrated granules still
   awaiting deletion; purging is as lazy as migration itself (scoped to
   the granules a request could observe, drained by background batches).
   Rows the backward migration reconstructs are appended at TIDs >=
   [pu_limit] (heap TIDs are never reused), so a purge can never eat
   them.

   Purging is per-ROW, not per-granule: each forward statement keeps its
   own tracker, so a granule can be migrated by one statement and not
   another, and a row is only stale once every statement whose
   population covers it has transferred it (its live image then lives
   entirely in the outputs).  Rows covered by a not-yet-migrated
   statement — and rows no population covers at all (shed by a lossy
   filter, never copied anywhere) — are still authoritative and must
   survive the purge. *)
type purge_src = {
  ps_matches : Value.t array -> bool;
      (* row ∈ this forward statement's population (any output WHERE) *)
  ps_migrated : int -> bool;  (* granule moved by this statement *)
}

type purge = {
  pu_table : string;
  pu_heap : Heap.t;
  pu_page_size : int;  (* the FORWARD tracker's granule size *)
  pu_limit : int;  (* old-table tid_count at the forward install *)
  pu_pending : (int, unit) Hashtbl.t;  (* granule id -> () *)
  pu_srcs : purge_src list;  (* one per forward statement reading the table *)
}

type rollback_info = {
  rb_fwd_mig_id : int;
  rb_fwd_spec : Migration.t;
  rb_purges : purge list;
}

(* One statement text's interception analysis under one migration
   (DESIGN.md §4.2b), built from the unbound statement the first time the
   text arrives and reused for every binding until the catalog epoch
   moves. *)
type entry = {
  en_epoch : int;
  en_reject : string option;  (* big-flip / input-write verdict *)
  en_touches : bool;  (* references a migration output *)
  en_nparams : int;
  en_filter : Migrate_exec.rt_stmt -> bool;  (* statements migrating on its behalf *)
  en_preds : (string * Migrate_exec.cand_pred) list option;
      (* per-input candidate predicates; [None] for INSERT ... VALUES, whose
         conflict candidates depend on the row values and are analysed per
         call *)
}

type active = {
  rt : Migrate_exec.t;
  shadows : Catalog.t list;
      (* base tables + one view per output table.  A forward migration
         needs one shadow; a rollback of a row split repopulates the same
         old table from several backward statements, so each branch's
         view lives in its own shadow and predicate extraction ORs
         across them. *)
  output_names : string list;
  cumulative : Migrate_exec.report;
  rollback : rollback_info option;  (* Some = this runtime migrates backward *)
  entries : (string, entry) Hashtbl.t;  (* by SQL text, bounded like the statement cache *)
  entries_latch : Mutex.t;
}

type t = {
  database : Database.t;
  mutable act : active option;
  mutable next_mig_id : int;
}

let create database = { database; act = None; next_mig_id = 1 }

let db t = t.database

let err = Db_error.sql_error

(* Expose tracker-level migration progress through [Obs.snapshot].  A
   fixed provider name + replace-on-register keeps repeated migrations
   (and repeated [Lazy_db.create]s in tests) from accumulating thunks. *)
let register_migration_stats t =
  Obs.register_stats "bullfrog.migration" (fun () ->
      match t.act with
      | None -> []
      | Some act ->
          let pg = Migrate_exec.progress_report act.rt in
          [
            {
              Obs.st_source = "migration";
              st_name = act.rt.Migrate_exec.spec.Migration.name;
              st_fields =
                [
                  ("fraction", pg.Migrate_exec.pg_fraction);
                  ("granules_migrated", float_of_int pg.Migrate_exec.pg_granules_migrated);
                  ("granules_total", float_of_int pg.Migrate_exec.pg_granules_total);
                  ("lazy", float_of_int pg.Migrate_exec.pg_lazy);
                  ("bg", float_of_int pg.Migrate_exec.pg_bg);
                  ("already", float_of_int pg.Migrate_exec.pg_already);
                  ("skip_waits", float_of_int pg.Migrate_exec.pg_skip_waits);
                  ("aborts", float_of_int pg.Migrate_exec.pg_aborts);
                ];
            };
          ])

(* One shadow catalog holds the base tables plus at most one view per
   output name.  A forward migration fits in a single shadow; a derived
   rollback of a row split repopulates the same old table from several
   backward statements, so each extra branch's view opens another shadow
   (first-fit) and predicate extraction ORs across all of them. *)
let build_shadows base_tables (spec : Migration.t) =
  let shadows = ref [] in
  List.iter
    (fun (stmt : Migration.statement) ->
      List.iter
        (fun (o : Migration.output) ->
          let rec place = function
            | [] ->
                let shadow = Catalog.create () in
                List.iter (fun heap -> Catalog.add_table shadow heap) base_tables;
                Catalog.create_view shadow o.Migration.out_name
                  o.Migration.out_population;
                shadows := !shadows @ [ shadow ]
            | shadow :: rest ->
                if Catalog.find_view shadow o.Migration.out_name <> None then
                  place rest
                else
                  Catalog.create_view shadow o.Migration.out_name
                    o.Migration.out_population
          in
          place !shadows)
        stmt.Migration.outputs)
    spec.Migration.statements;
  !shadows

let output_names_of (spec : Migration.t) =
  List.sort_uniq String.compare
    (List.concat_map
       (fun (stmt : Migration.statement) ->
         List.map
           (fun (o : Migration.output) -> String.lowercase_ascii o.Migration.out_name)
           stmt.Migration.outputs)
       spec.Migration.statements)

(* The mode a migration runs in, from its lint verdict: split outputs
   not provably disjoint need ON CONFLICT mode, unless the caller already
   asked for it.  Start and resume both decide through here, so a resumed
   migration runs in the mode its original switch chose. *)
let mode_of_verdict ?mode (spec : Migration.t) verdict =
  match verdict with
  | Some { Mig_lint.lint_action = Mig_lint.Act_on_conflict; _ }
    when mode <> Some Migrate_exec.On_conflict ->
      Logs.warn (fun m ->
          m
            "migration %S: split outputs not provably disjoint; switching to ON \
             CONFLICT mode"
            spec.Migration.name);
      Some Migrate_exec.On_conflict
  | _ -> mode

(* The bookkeeping every install path shares once its runtime exists:
   shadow catalogs over the base tables (every table except the
   outputs), the active record, the planner watch and stats provider,
   and the epoch bump. *)
let activate ?rollback t (rt : Migrate_exec.t) =
  let catalog = t.database.Database.catalog in
  let spec = rt.Migrate_exec.spec in
  let output_names = output_names_of spec in
  let base_tables =
    List.filter_map
      (fun name ->
        if List.mem (String.lowercase_ascii name) output_names then None
        else Some (Catalog.find_table_exn catalog name))
      (Catalog.table_names catalog)
  in
  t.act <-
    Some
      {
        rt;
        shadows = build_shadows base_tables spec;
        output_names;
        cumulative = Migrate_exec.new_report ();
        rollback;
        entries = Hashtbl.create 64;
        entries_latch = Mutex.create ();
      };
  (* While the migration is live, a full scan over a partially-populated
     output forces a whole-table lazy migration — have the planner flag it. *)
  Planner.set_migration_watch catalog output_names;
  register_migration_stats t;
  (* a rollback's id is allocated after its forward migration's *)
  t.next_mig_id <- max t.next_mig_id (rt.Migrate_exec.mig_id + 1);
  (* The logical switch changes what every cached plan would resolve to
     (output tables exist, old names are rejected): invalidate them. *)
  Catalog.bump_epoch catalog;
  rt

(* The inverse of [activate], for [finalize] and a rollback that has
   nothing to reconstruct. *)
let deactivate t =
  t.act <- None;
  Planner.clear_migration_watch t.database.Database.catalog;
  Obs.unregister_stats "bullfrog.migration";
  Catalog.bump_epoch t.database.Database.catalog

let start_migration ?mode ?page_size ?nn ?fk_join t (spec : Migration.t) =
  if t.act <> None then err "a schema migration is already in progress";
  (* Static analysis before the switch: prove split disjointness/coverage
     and surface data-loss hazards while rejecting is still free. *)
  let v = Mig_lint.lint ?fk_join t.database.Database.catalog spec in
  List.iter
    (fun h ->
      Logs.warn (fun m ->
          m "migration %S lint [%s]: %s" spec.Migration.name
            (Mig_lint.hazard_kind_to_string h.Mig_lint.hz_kind)
            h.Mig_lint.hz_detail))
    (Mig_lint.all_hazards v);
  if v.Mig_lint.lint_action = Mig_lint.Act_reject then
    err "migration %S rejected by lint: %s" spec.Migration.name
      (String.concat "; "
         (List.map (fun h -> h.Mig_lint.hz_detail) (Mig_lint.errors v)));
  let mode = mode_of_verdict ?mode spec (Some v) in
  (* Invertibility (§4.2j): a provably non-invertible spec can never be
     rolled back mid-flight; say so before committing to the switch. *)
  if not (Mig_lint.invertible v) then
    Logs.warn (fun m ->
        m "migration %S is not invertible — mid-flight rollback will be refused (%s)"
          spec.Migration.name
          (String.concat "; " (Mig_lint.non_invertible_reasons v)));
  (* The logical switch itself (§2): cold, so the span is unconditional.
     Under MVCC the switch takes no table locks and stalls no reader:
     granule moves are ordinary versioned writes, and each migration
     transaction becomes visible through one atomic clock publish
     (Database.commit).  The span records the clock at switch time so a
     trace can line flips up against commit timestamps. *)
  Obs.Flight.notef ~cat:"migration" "flip %s (mvcc_ts %d)" spec.Migration.name
    (Mvcc.now ());
  Obs.Trace.with_span ~cat:"migration" "flip"
    ~args:
      [
        ("migration", spec.Migration.name);
        ("mvcc_ts", string_of_int (Mvcc.now ()));
      ]
  @@ fun () ->
  let mig_id = t.next_mig_id in
  t.next_mig_id <- mig_id + 1;
  activate t
    (Migrate_exec.install ?mode ?page_size ?nn ?fk_join ~lint:v ~mig_id t.database
       spec)

(* Crash-restart path: re-install a migration whose logical switch
   already happened before the crash.  The output tables (and the rows
   already migrated into them) survived via redo replay; trackers come
   back empty and are refilled from the committed granule marks in the
   log, so migration resumes exactly where the durable state left it.
   The spec was validated at the original switch, so nothing is rejected
   here; the fresh verdict picks the same mode the switch did and is
   attached to the runtime so a post-crash [rollback_migration] still
   has the derived backward transform. *)
let resume_migration ?mode ?page_size ?nn ?fk_join t ~mig_id (spec : Migration.t) =
  if t.act <> None then err "a schema migration is already in progress";
  Obs.Flight.notef ~cat:"migration" "resume %s after crash restart"
    spec.Migration.name;
  Obs.Trace.with_span ~cat:"migration" "resume"
    ~args:[ ("migration", spec.Migration.name) ]
  @@ fun () ->
  let verdict =
    try Some (Mig_lint.lint ?fk_join t.database.Database.catalog spec) with _ -> None
  in
  let rt =
    Migrate_exec.install
      ?mode:(mode_of_verdict ?mode spec verdict)
      ?page_size ?nn ?fk_join ?lint:verdict ~resume:true ~mig_id t.database spec
  in
  let restored = Recovery.rebuild rt t.database.Database.redo in
  Logs.info (fun m ->
      m "migration %S resumed after restart: %d granule mark(s) restored"
        spec.Migration.name restored);
  activate t rt

let active t = Option.map (fun a -> a.rt) t.act

(* [(forward mig_id, forward spec)] when the active migration is a
   rollback; the cluster layer persists these in its BFMIG-RB marker. *)
let rollback_info t =
  match t.act with
  | Some { rollback = Some rb; _ } -> Some (rb.rb_fwd_mig_id, rb.rb_fwd_spec)
  | Some { rollback = None; _ } | None -> None

(* The wire server's circuit breaker samples this: how many granules the
   logical switch has promised that physical migration has not yet
   delivered.  0 when no migration is active. *)
let migration_debt t =
  match t.act with
  | None -> 0
  | Some act ->
      let pg = Migrate_exec.progress_report act.rt in
      max 0
        (pg.Migrate_exec.pg_granules_total - pg.Migrate_exec.pg_granules_migrated)

(* ------------------------------------------------------------------ *)
(* Which relations does a statement reference?                         *)
(* ------------------------------------------------------------------ *)

let rec tables_of_select (s : Ast.select) =
  List.concat_map
    (fun (f : Ast.from_item) ->
      match f with
      | Ast.From_table (name, _) -> [ String.lowercase_ascii name ]
      | Ast.From_subquery (q, _) -> tables_of_select q)
    s.Ast.from

let rec tables_of_stmt (stmt : Ast.stmt) =
  match stmt with
  | Ast.Select_stmt s -> tables_of_select s
  | Ast.Insert { table; source; _ } ->
      String.lowercase_ascii table
      :: (match source with Ast.Query q -> tables_of_select q | Ast.Values _ -> [])
  | Ast.Update { table; _ } | Ast.Delete { table; _ } -> [ String.lowercase_ascii table ]
  | Ast.Explain { stmt = inner; _ } -> tables_of_stmt inner
  | Ast.Create_table_as { query; _ } | Ast.Create_view { query; _ } ->
      tables_of_select query
  (* EXPLAIN MIGRATION is pure analysis: it must not trigger any lazy
     migration work for the tables it mentions. *)
  | Ast.Explain_migration _ | Ast.Create_table _ | Ast.Create_index _
  | Ast.Drop _ | Ast.Alter_table _ | Ast.Begin_txn | Ast.Commit_txn
  | Ast.Rollback_txn ->
      []

(* ------------------------------------------------------------------ *)
(* Predicate extraction (§2.1)                                         *)
(* ------------------------------------------------------------------ *)

(* Merge per-table predicates from several extractions: the relevant set is
   the union, so predicates combine with OR, and None (= everything)
   absorbs. *)
let merge_preds (a : (string * Ast.expr option) list) b =
  List.fold_left
    (fun acc (table, pred) ->
      match List.assoc_opt table acc with
      | None -> acc @ [ (table, pred) ]
      | Some existing ->
          let merged =
            match (existing, pred) with
            | None, _ | _, None -> None
            | Some x, Some y -> Some (Ast.Binop (Ast.Or, x, y))
          in
          List.map (fun (t', p) -> if t' = table then (t', merged) else (t', p)) acc)
    a b

(* Predicates reaching the base tables of [q], planned over the shadow
   catalog(s) where output tables are views.  With several shadows (a
   rollback of a row split) each gives one branch's view of the shared
   output name; the relevant set is their union, so results merge with
   OR like repeated scans. *)
let extract_from_select act (q : Ast.select) =
  List.fold_left
    (fun acc shadow ->
      let pctx = { Planner.catalog = shadow; run_subquery = (fun _ -> []) } in
      let raw = Planner.pushed_base_filters pctx q in
      (* A table scanned twice gets the OR of its conjunct sets; an
         occurrence with no conjuncts means the whole table is potentially
         relevant. *)
      List.fold_left
        (fun acc (table, conjs) -> merge_preds acc [ (table, Ast.conjoin conjs) ])
        acc raw)
    [] act.shadows

let select_star_where table where =
  Ast.select
    ~projections:[ Ast.Proj_star ]
    ~from:[ Ast.From_table (table, None) ]
    ~where ()

(* Conflict candidates for INSERT (§2.1 last paragraph): rows of the old
   schema that could collide with the new rows on a unique key must be
   migrated before the constraint can be checked. *)
let insert_conflict_preds t act table (rows : Value.t array list) positions arity =
  match Catalog.find_table t.database.Database.catalog table with
  | None -> []
  | Some heap ->
      let unique_col_sets =
        List.filter_map
          (fun c ->
            match c with
            | Schema.Unique (_, cols) -> Some cols
            | Schema.Check _ | Schema.Foreign_key _ -> None)
          heap.Heap.schema.Schema.constraints
      in
      let fk_specs =
        List.filter_map
          (fun c ->
            match c with
            | Schema.Foreign_key fk -> Some fk
            | Schema.Check _ | Schema.Unique _ -> None)
          heap.Heap.schema.Schema.constraints
      in
      if unique_col_sets = [] && fk_specs = [] then []
      else begin
        (* Reconstruct full-width rows from the INSERT's column list. *)
        let full_rows =
          List.map
            (fun values ->
              let row = Array.make arity Value.Null in
              Array.iteri (fun j pos -> row.(pos) <- values.(j)) positions;
              row)
            rows
        in
        let eq_pred cols row =
          let conjs =
            Array.to_list
              (Array.map
                 (fun i ->
                   Ast.Binop
                     ( Ast.Eq,
                       Ast.Col (None, heap.Heap.schema.Schema.columns.(i).Schema.name),
                       Value.to_ast_literal row.(i) ))
                 cols)
          in
          Ast.conjoin conjs
        in
        let unique_preds =
          List.concat_map
            (fun cols ->
              List.filter_map
                (fun row ->
                  if Array.exists (fun i -> Value.is_null row.(i)) cols then None
                  else
                    match eq_pred cols row with
                    | Some p -> Some (extract_from_select act (select_star_where table (Some p)))
                    | None -> None)
                full_rows)
            unique_col_sets
        in
        (* FK parents that are themselves migration outputs must hold the
           referenced row before the check can pass (§4.5). *)
        let fk_preds =
          List.concat_map
            (fun (fk : Schema.foreign_key) ->
              if not (List.mem fk.Schema.fk_ref_table act.output_names) then []
              else
                let parent =
                  Catalog.find_table_exn t.database.Database.catalog fk.Schema.fk_ref_table
                in
                let ref_cols =
                  if Array.length fk.Schema.fk_ref_cols > 0 then fk.Schema.fk_ref_cols
                  else
                    match parent.Heap.schema.Schema.primary_key with
                    | Some pk ->
                        Array.map
                          (fun i -> parent.Heap.schema.Schema.columns.(i).Schema.name)
                          pk
                    | None -> [||]
                in
                if Array.length ref_cols = 0 then []
                else
                  List.filter_map
                    (fun row ->
                      let vals = Array.map (fun i -> row.(i)) fk.Schema.fk_cols in
                      if Array.exists Value.is_null vals then None
                      else begin
                        let conjs =
                          Array.to_list
                            (Array.mapi
                               (fun j c ->
                                 Ast.Binop
                                   ( Ast.Eq,
                                     Ast.Col (None, c),
                                     Value.to_ast_literal vals.(j) ))
                               ref_cols)
                        in
                        match Ast.conjoin conjs with
                        | Some p ->
                            Some
                              (extract_from_select act
                                 (select_star_where fk.Schema.fk_ref_table (Some p)))
                        | None -> None
                      end)
                    full_rows)
            fk_specs
        in
        List.fold_left merge_preds [] (unique_preds @ fk_preds)
      end

let extract_predicates_for_active t act (stmt : Ast.stmt) =
  match stmt with
  | Ast.Select_stmt s ->
      if List.exists (fun r -> List.mem r act.output_names) (tables_of_select s) then
        extract_from_select act s
      else []
  | Ast.Update { table; where; _ } | Ast.Delete { table; where } ->
      if List.mem (String.lowercase_ascii table) act.output_names then
        extract_from_select act (select_star_where table where)
      else []
  | Ast.Insert { table; columns; source; _ } -> (
      let table = String.lowercase_ascii table in
      if not (List.mem table act.output_names) then []
      else
        match source with
        | Ast.Values rows -> (
            match Catalog.find_table t.database.Database.catalog table with
            | None -> []
            | Some heap ->
                let schema = heap.Heap.schema in
                let arity = Schema.arity schema in
                let positions =
                  match columns with
                  | None -> Array.init arity (fun i -> i)
                  | Some cols ->
                      Array.of_list (List.map (Schema.col_index_exn schema) cols)
                in
                let literal_rows =
                  List.filter_map
                    (fun exprs ->
                      let vals = List.map Value.of_ast_literal exprs in
                      if List.for_all Option.is_some vals then
                        Some (Array.of_list (List.map Option.get vals))
                      else None)
                    rows
                in
                insert_conflict_preds t act table literal_rows positions arity)
        | Ast.Query q ->
            (* INSERT ... SELECT: migrate what the SELECT reads; conflict
               candidates are unknown statically, so unique-key migration is
               conservative only when the table has unique constraints. *)
            let base = extract_from_select act q in
            let conservative =
              match Catalog.find_table t.database.Database.catalog table with
              | Some heap
                when List.exists
                       (fun c -> match c with Schema.Unique _ -> true | _ -> false)
                       heap.Heap.schema.Schema.constraints ->
                  extract_from_select act (select_star_where table None)
              | _ -> []
            in
            merge_preds base conservative)
  | Ast.Explain { stmt = inner; _ } -> (
      match inner with
      | Ast.Select_stmt s -> extract_from_select act s
      | _ -> [])
  | Ast.Create_table_as { query; _ } | Ast.Create_view { query; _ } ->
      extract_from_select act query
  | Ast.Explain_migration _ | Ast.Create_table _ | Ast.Create_index _
  | Ast.Drop _ | Ast.Alter_table _ | Ast.Begin_txn | Ast.Commit_txn
  | Ast.Rollback_txn ->
      []

(* Output tables a statement's migration work is on behalf of: the ones it
   references directly, plus FK parents of an INSERT target that are
   themselves migration outputs (§4.5). *)
let relevant_outputs_for t act (stmt : Ast.stmt) =
  let direct =
    List.filter (fun r -> List.mem r act.output_names) (tables_of_stmt stmt)
  in
  let fk_parents =
    match stmt with
    | Ast.Insert { table; _ } | Ast.Update { table; _ } -> (
        match Catalog.find_table t.database.Database.catalog table with
        | None -> []
        | Some heap ->
            List.filter_map
              (fun c ->
                match c with
                | Schema.Foreign_key fk
                  when List.mem fk.Schema.fk_ref_table act.output_names ->
                    Some fk.Schema.fk_ref_table
                | _ -> None)
              heap.Heap.schema.Schema.constraints)
    | _ -> []
  in
  List.sort_uniq String.compare (direct @ fk_parents)

(* ------------------------------------------------------------------ *)
(* Request interception                                                *)
(* ------------------------------------------------------------------ *)

(* The big flip hides exactly the active spec's [drop_old]: the old
   tables of a forward migration, the abandoned forward outputs of a
   rollback (its backward spec drops them).  Once finalize has dropped
   them the catalog itself rejects the names. *)
let check_big_flip act referenced =
  let hidden = act.rt.Migrate_exec.spec.Migration.drop_old in
  List.iter
    (fun table ->
      if List.mem table hidden then
        err
          "relation %S was removed by a schema migration; update the client to the new schema"
          table)
    referenced

(* Post-switch, the old schema is gone from the application's view
   (§2.1): a write landing on a TID-tracked migration input would race
   the snapshot the migration reads — picked up or lost depending on
   which granules already moved — and would grow the heap past the
   install-time bitmap-tracker bounds (granule ids are TID ranges fixed
   at the switch).  Reject it like a dropped relation.  Key-tracked
   (hash) inputs stay writable: a new row joins its key group, an
   unmigrated group picks it up, and a migrated group is the
   application's to maintain (the TPC-C aggregate scenarios rely on
   exactly that contract). *)
let check_input_writes t (stmt : Ast.stmt) =
  match t.act with
  | None -> ()
  | Some act -> (
      let target =
        match stmt with
        | Ast.Insert { table; _ } | Ast.Update { table; _ }
        | Ast.Delete { table; _ } ->
            Some (String.lowercase_ascii table)
        | _ -> None
      in
      match target with
      | Some table when Migrate_exec.read_only_table act.rt table ->
          err
            "relation %S is an input of the in-flight migration %S; write \
             through the new schema"
            table act.rt.Migrate_exec.spec.Migration.name
      | _ -> ())

(* ------------------------------------------------------------------ *)
(* Rollback purges (§4.2j)                                             *)
(* ------------------------------------------------------------------ *)

let rollback_purges_pending act =
  match act.rollback with
  | None -> false
  | Some rb -> List.exists (fun pu -> Hashtbl.length pu.pu_pending > 0) rb.rb_purges

(* Compile a single-table predicate into a row test against [heap]'s
   schema; [None] on compilation failure (callers fall back
   conservatively). *)
let compile_row_pred db (heap : Heap.t) (p : Ast.expr) =
  try
    let descs =
      Array.map
        (fun n -> { Plan.cd_qualifier = None; cd_name = n })
        (Schema.col_names heap.Heap.schema)
    in
    let pctx =
      { Planner.catalog = db.Database.catalog; run_subquery = (fun _ -> []) }
    in
    let ce =
      Expr.prepare
        (Planner.compile_with_descs pctx descs
           (Bullfrog_analysis.Predicate.unqualify p))
    in
    Some (ce.Expr.ce_pred [||]).Expr.holds
  with _ -> None

(* A live old-table row is stale — its authoritative image lives in the
   new schema — iff some forward statement transferred it (covered it
   AND moved its granule) and no covering statement still has it
   pending.  Everything else in the granule survives. *)
let row_is_stale pu g row =
  let covering = List.filter (fun s -> s.ps_matches row) pu.pu_srcs in
  covering <> [] && List.for_all (fun s -> s.ps_migrated g) covering

(* Delete the stale live rows of one forward-migrated granule from the
   old table.  Only TIDs below [pu_limit] are touched: everything the
   backward migration (or the application, post-rollback) appends lands
   above it, so purging is idempotent and can never eat reconstructed
   rows. *)
let purge_granule t pu g =
  let lo = g * pu.pu_page_size in
  let hi = min ((g + 1) * pu.pu_page_size) pu.pu_limit in
  Database.with_txn t.database (fun txn ->
      let ctx = Database.exec_ctx t.database in
      for tid = lo to hi - 1 do
        match Heap.get pu.pu_heap tid with
        | Some row when row_is_stale pu g row ->
            Executor.delete_row ctx txn pu.pu_heap tid
        | Some _ | None -> ()
      done);
  Hashtbl.remove pu.pu_pending g

(* Purge the pending granules whose live rows could satisfy [scope]
   (None = every pending granule).  Predicate compilation failures fall
   back to purging everything pending — conservative, never wrong. *)
let purge_matching t pu (scope : Ast.expr option) =
  let pending = List.sort compare (Hashtbl.fold (fun g () acc -> g :: acc) pu.pu_pending []) in
  let pred =
    match scope with
    | None -> None
    | Some p -> compile_row_pred t.database pu.pu_heap p
  in
  List.iter
    (fun g ->
      let interesting =
        match pred with
        | None -> true
        | Some matches -> (
            let lo = g * pu.pu_page_size in
            let hi = min ((g + 1) * pu.pu_page_size) pu.pu_limit in
            try
              for tid = lo to hi - 1 do
                match Heap.get pu.pu_heap tid with
                | Some row when matches row -> raise Exit
                | Some _ | None -> ()
              done;
              false
            with Exit -> true)
      in
      if interesting then purge_granule t pu g)
    pending

(* Before a statement runs against the old schema mid-rollback, delete
   the stale forward-migrated source rows it could observe.  Scoped to
   the WHERE clause for single-table statements; anything more complex
   purges every pending granule of the tables it references. *)
let purge_for_stmt t act (stmt : Ast.stmt) =
  match act.rollback with
  | None -> ()
  | Some rb ->
      let referenced = tables_of_stmt stmt in
      List.iter
        (fun pu ->
          if Hashtbl.length pu.pu_pending > 0 && List.mem pu.pu_table referenced
          then begin
            let scope =
              match stmt with
              | Ast.Select_stmt { Ast.from = [ Ast.From_table (n, _) ]; where; _ }
                when String.lowercase_ascii n = pu.pu_table ->
                  where
              | Ast.Update { table; where; _ } | Ast.Delete { table; where }
                when String.lowercase_ascii table = pu.pu_table ->
                  where
              | _ -> None
            in
            purge_matching t pu scope
          end)
        rb.rb_purges

let c_intercept_builds = Obs.Counters.make "core.migrate.intercept_builds"

let build_entry t act (stmt : Ast.stmt) ~epoch =
  Obs.Counters.bump c_intercept_builds;
  let referenced = tables_of_stmt stmt in
  let reject =
    match
      check_big_flip act referenced;
      check_input_writes t stmt
    with
    | () -> None
    | exception Db_error.Sql_error msg -> Some msg
  in
  let touches =
    reject = None && List.exists (fun r -> List.mem r act.output_names) referenced
  in
  let filter, preds =
    if not touches then ((fun _ -> false), Some [])
    else begin
      (* Only the statements whose outputs this request (or its
         constraint probes) reference migrate on its behalf. *)
      let relevant = relevant_outputs_for t act stmt in
      let filter (s : Migrate_exec.rt_stmt) =
        List.exists
          (fun (heap, _) -> List.mem heap.Heap.name relevant)
          s.Migrate_exec.rs_outputs
      in
      match stmt with
      | Ast.Insert { source = Ast.Values _; _ } -> (filter, None)
      | _ ->
          ( filter,
            Some (Migrate_exec.compile_preds act.rt (extract_predicates_for_active t act stmt)) )
    end
  in
  {
    en_epoch = epoch;
    en_reject = reject;
    en_touches = touches;
    en_nparams = Ast.max_param_stmt stmt;
    en_filter = filter;
    en_preds = preds;
  }

(* The entry for [sql], built outside the latch like the statement
   cache's parse; a racing build of the same text keeps the first.  The
   epoch is read before building, so DDL racing the build leaves the
   entry stale rather than fresh-but-wrong. *)
let entry t act sql stmt =
  let epoch = Catalog.epoch t.database.Database.catalog in
  Mutex.lock act.entries_latch;
  let cached = Hashtbl.find_opt act.entries sql in
  Mutex.unlock act.entries_latch;
  match cached with
  | Some e when e.en_epoch = epoch -> e
  | Some _ | None ->
      let e = build_entry t act stmt ~epoch in
      Mutex.lock act.entries_latch;
      let e =
        match Hashtbl.find_opt act.entries sql with
        | Some racing when racing.en_epoch = epoch -> racing
        | Some _ | None ->
            if Hashtbl.length act.entries >= Database.stmt_cache_cap then
              Hashtbl.reset act.entries;
            Hashtbl.replace act.entries sql e;
            e
      in
      Mutex.unlock act.entries_latch;
      e

(* [route] keeps the candidate scans of the inputs it admits, judged on
   each input's candidate WHERE (its [$n] are the call's parameters);
   with none admitted nothing runs.  Purges are never routed. *)
let maybe_migrate t act ?report ?params ?route (stmt : Ast.stmt) e =
  if rollback_purges_pending act then purge_for_stmt t act (Database.bind_stmt params stmt);
  if not (Migrate_exec.complete act.rt) then begin
    let preds =
      match e.en_preds with
      | Some preds -> preds
      | None ->
          Migrate_exec.compile_preds act.rt
            (extract_predicates_for_active t act (Database.bind_stmt params stmt))
    in
    let preds =
      match route with
      | None -> preds
      | Some admits ->
          List.filter (fun (table, cp) -> admits table cp.Migrate_exec.cp_where) preds
    in
    if route = None || preds <> [] then begin
      let r = Migrate_exec.new_report () in
      Migrate_exec.migrate_for_preds ~stmt_filter:e.en_filter ?params act.rt r preds;
      Migrate_exec.merge_report ~into:act.cumulative r;
      match report with
      | Some dst -> Migrate_exec.merge_report ~into:dst r
      | None -> ()
    end
  end

(* Look the statement up in the database's statement cache, then in the
   active migration's interception entries.  Execution and the lazy
   candidate scans share the statement's positional parameters: the
   entry's predicates are extracted and compiled once from the unbound
   statement and scanned under each call's [params].  Only INSERT ...
   VALUES splices its values into an AST copy per call, because its
   conflict candidates depend on the row values (§2.1).  A call short of
   parameters does no lazy work; execution reports the error. *)
let intercept t ?report ?params ?route sql =
  let p = Database.prepare t.database sql in
  let stmt = Database.prepared_stmt p in
  (match t.act with
  | None -> ()
  | Some act ->
      let e = entry t act sql stmt in
      Option.iter (fun msg -> raise (Db_error.Sql_error msg)) e.en_reject;
      let supplied = match params with Some a -> Array.length a | None -> 0 in
      if
        e.en_touches
        && ((not (Migrate_exec.complete act.rt)) || rollback_purges_pending act)
        && e.en_nparams <= supplied
      then maybe_migrate t act ?report ?params ?route stmt e);
  p

let interception_preds t sql =
  match t.act with
  | None -> None
  | Some act ->
      (entry t act sql (Database.prepared_stmt (Database.prepare t.database sql))).en_preds

(* EXPLAIN MIGRATION <create-table-as>: run the static analyzer over the
   migration the statement describes and report, without executing
   anything (and, via [tables_of_stmt], without triggering lazy work). *)
let explain_migration t (inner : Ast.stmt) =
  match inner with
  | Ast.Create_table_as { name; query } ->
      let name = String.lowercase_ascii name in
      let stmt =
        {
          Migration.stmt_name = name;
          outputs =
            [
              {
                Migration.out_name = name;
                out_create = None;
                out_population = query;
                out_indexes = [];
              };
            ];
        }
      in
      let spec = Migration.make ~name [ stmt ] in
      Executor.Explained (Mig_lint.format (Mig_lint.lint t.database.Database.catalog spec))
  | _ ->
      Executor.Explained
        "(EXPLAIN MIGRATION expects CREATE TABLE ... AS (SELECT ...))"

let exec t ?report ?params sql =
  let p = intercept t ?report ?params sql in
  match Database.prepared_stmt p with
  | Ast.Begin_txn | Ast.Commit_txn | Ast.Rollback_txn ->
      err "use with_txn for explicit transaction control"
  | Ast.Explain_migration inner -> explain_migration t inner
  | _ ->
      Database.with_txn t.database (fun txn ->
          Database.exec_prepared_in t.database txn ?params p)

let exec_in t txn ?report ?params sql =
  let p = intercept t ?report ?params sql in
  match Database.prepared_stmt p with
  | Ast.Explain_migration inner -> explain_migration t inner
  | _ -> Database.exec_prepared_in t.database txn ?params p

(* ------------------------------------------------------------------ *)
(* Background migration and lifecycle                                  *)
(* ------------------------------------------------------------------ *)

let background_step t ~batch =
  match t.act with
  | None -> 0
  | Some act ->
      (* Mid-rollback, stale-row purges drain alongside backward
         migration so the finalize completeness bar is reachable without
         any query traffic. *)
      let purged = ref 0 in
      (match act.rollback with
      | None -> ()
      | Some rb ->
          List.iter
            (fun pu ->
              let gs =
                List.sort compare
                  (Hashtbl.fold (fun g () acc -> g :: acc) pu.pu_pending [])
              in
              List.iter
                (fun g ->
                  if !purged < batch then begin
                    purge_granule t pu g;
                    incr purged
                  end)
                gs)
            rb.rb_purges);
      let remaining = max 0 (batch - !purged) in
      let n =
        if remaining = 0 then 0
        else begin
          let r = Migrate_exec.new_report () in
          let n = Migrate_exec.background_step act.rt r ~batch:remaining in
          Migrate_exec.merge_report ~into:act.cumulative r;
          n
        end
      in
      !purged + n

let migration_complete t =
  match t.act with
  | None -> true
  | Some act -> Migrate_exec.complete act.rt && not (rollback_purges_pending act)

let progress t =
  match t.act with None -> 1.0 | Some act -> Migrate_exec.progress act.rt

let cumulative_report t =
  match t.act with
  | None -> Migrate_exec.new_report ()
  | Some act -> act.cumulative

(* Raises while the migration is incomplete. *)
let check_finalizable t =
  match t.act with
  | None -> ()
  | Some act ->
      if not (Migrate_exec.complete act.rt) || rollback_purges_pending act then
        err "cannot finalize migration %S: physical migration is incomplete"
          act.rt.Migrate_exec.spec.Migration.name

let finalize t =
  match t.act with
  | None -> ()
  | Some act ->
      check_finalizable t;
      let spec = act.rt.Migrate_exec.spec in
      Obs.Flight.notef ~cat:"migration" "finalize %s" spec.Migration.name;
      Obs.Trace.with_span ~cat:"migration" "finalize"
        ~args:[ ("migration", spec.Migration.name) ]
      @@ fun () ->
      (* The old tables can now be dropped (paper §2.2). *)
      Database.drop_tables t.database spec.Migration.drop_old;
      deactivate t

(* ------------------------------------------------------------------ *)
(* Mid-flight rollback (§4.2j)                                         *)
(* ------------------------------------------------------------------ *)

(* Per dropped forward input, the granules the forward migration already
   moved plus one [purge_src] per forward statement reading the table:
   each statement has its own tracker, so staleness is decided per row
   ({!row_is_stale}) against the statements whose populations cover it.
   Only bitmap (TID) trackers can feed a rollback — every invertible
   shape classifies to one — and inputs sharing a table merge into one
   purge set.  The population WHEREs of an invertible statement are in
   the supported predicate language (the invertibility proofs require
   it), so compilation failures are theoretical; the fallback treats the
   statement as covering every row, which only ever keeps rows longer
   (the overwrite-mode backward insert still replaces a kept stale
   original on unique conflict). *)
let purges_of_forward db (fwd : Migrate_exec.t) =
  let dropped =
    List.map String.lowercase_ascii fwd.Migrate_exec.spec.Migration.drop_old
  in
  let tbl : (string, purge) Hashtbl.t = Hashtbl.create 4 in
  let add (s : Migrate_exec.rt_stmt) (i : Migrate_exec.rt_input) =
    match i.Migrate_exec.ri_tracker with
    | Migrate_exec.RT_bitmap bt ->
        let name = i.Migrate_exec.ri_heap.Heap.name in
        if List.mem name dropped then begin
          let matches =
            (* row ∈ statement population: ORs the per-output WHEREs *)
            let tests =
              List.map
                (fun ((_, sel) : Heap.t * Ast.select) ->
                  match sel.Ast.where with
                  | None -> fun _ -> true
                  | Some p -> (
                      match compile_row_pred db i.Migrate_exec.ri_heap p with
                      | Some f -> f
                      | None -> fun _ -> true))
                s.Migrate_exec.rs_outputs
            in
            fun row -> List.exists (fun f -> f row) tests
          in
          let src = { ps_matches = matches; ps_migrated = Bitmap_tracker.is_migrated bt } in
          let pu =
            match Hashtbl.find_opt tbl name with
            | Some pu ->
                let pu = { pu with pu_srcs = src :: pu.pu_srcs } in
                Hashtbl.replace tbl name pu;
                pu
            | None ->
                let pu =
                  {
                    pu_table = name;
                    pu_heap = i.Migrate_exec.ri_heap;
                    pu_page_size = Bitmap_tracker.page_size bt;
                    pu_limit = Heap.tid_count i.Migrate_exec.ri_heap;
                    pu_pending = Hashtbl.create 64;
                    pu_srcs = [ src ];
                  }
                in
                Hashtbl.add tbl name pu;
                pu
          in
          for g = 0 to Bitmap_tracker.granule_count bt - 1 do
            if Bitmap_tracker.is_migrated bt g then Hashtbl.replace pu.pu_pending g ()
          done
        end
    | Migrate_exec.RT_hash _ | Migrate_exec.RT_none -> ()
  in
  List.iter
    (fun (s : Migrate_exec.rt_stmt) ->
      List.iter (add s) s.Migrate_exec.rs_inputs;
      match s.Migrate_exec.rs_pair with
      | Some pr ->
          add s pr.Migrate_exec.pr_a;
          add s pr.Migrate_exec.pr_b
      | None -> ())
    fwd.Migrate_exec.stmts;
  Hashtbl.fold (fun _ pu acc -> pu :: acc) tbl []

(* Synthetic-mark convention for durable purge state: each purge's TID
   ceiling is logged as a migration mark whose table name is prefixed
   with ["#purge#"] — a name no relation can have, so recovery's tracker
   rebuild ignores it and checkpointing carries it forward with the
   other outstanding marks. *)
let purge_mark_prefix = "#purge#"

let trivial_rollback t =
  match t.act with
  | Some { rollback = None; rt = { Migrate_exec.lint = Some l; _ }; _ } ->
      Mig_lint.invertible l && l.Mig_lint.lint_backward = None
  | _ -> false

let rollback_migration t =
  match t.act with
  | None -> err "no schema migration is in progress; nothing to roll back"
  | Some act -> (
      if act.rollback <> None then
        err "migration %S is already rolling back"
          act.rt.Migrate_exec.spec.Migration.name;
      let fwd = act.rt in
      let spec = fwd.Migrate_exec.spec in
      let lint =
        match fwd.Migrate_exec.lint with
        | Some v -> v
        | None ->
            err
              "migration %S has no lint verdict (the analyzer failed when it was \
               resumed), so no backward transform was derived; cannot roll back"
              spec.Migration.name
      in
      if not (Mig_lint.invertible lint) then
        err "cannot roll back migration %S: %s" spec.Migration.name
          (String.concat "; " (Mig_lint.non_invertible_reasons lint));
      Obs.Flight.notef ~cat:"migration" "rollback %s (mvcc_ts %d)"
        spec.Migration.name (Mvcc.now ());
      Obs.Trace.with_span ~cat:"migration" "rollback"
        ~args:[ ("migration", spec.Migration.name) ]
      @@ fun () ->
      match lint.Mig_lint.lint_backward with
      | None ->
          (* Nothing was dropped, so nothing needs reconstructing:
             rollback is just un-flipping — drop the outputs. *)
          Database.drop_tables t.database act.output_names;
          deactivate t;
          None
      | Some bspec ->
          let purges = purges_of_forward t.database fwd in
          let rb_mig_id = t.next_mig_id in
          t.next_mig_id <- rb_mig_id + 1;
          (* Durably record each purge's TID ceiling before any backward
             work: after a crash mid-rollback the old heaps have grown
             with reconstructed rows, and re-deriving the ceiling from
             [Heap.tid_count] would let a re-purge eat them. *)
          Redo_log.append t.database.Database.redo
            {
              Redo_log.txn_id = 0;
              commit_ts = 0;
              writes = [];
              marks =
                List.map
                  (fun pu ->
                    {
                      Redo_log.mig_id = rb_mig_id;
                      mig_table = purge_mark_prefix ^ pu.pu_table;
                      granule = Redo_log.G_tid pu.pu_limit;
                    })
                  purges;
            };
          (* Rollback = migrating in reverse: install the derived
             backward spec as an ordinary lazy migration over the new
             tables.  [resume] because its outputs (the old tables) still
             exist; [overwrite] because a reconstructed row is
             authoritative over a stale not-yet-purged original. *)
          let brt =
            Migrate_exec.install ~overwrite:true
              ~page_size:fwd.Migrate_exec.page_size ~resume:true ~mig_id:rb_mig_id
              t.database bspec
          in
          (* The old schema is legal again; the abandoned new tables are
             not (they are now the inputs being drained). *)
          Some
            (activate t brt
               ~rollback:
                 {
                   rb_fwd_mig_id = fwd.Migrate_exec.mig_id;
                   rb_fwd_spec = spec;
                   rb_purges = purges;
                 }))

(* Crash-restart mid-rollback.  The forward spec is re-installed
   throwaway (resume mode, no DDL) purely to refill its trackers from
   the log — that recovers which granules the forward migration had
   moved, i.e. which still need purging.  Purge completion is not logged
   per granule; re-purging is idempotent (the TIDs are tombstones).
   [page_size] must match the original forward install for granule ids
   to line up, as with {!resume_migration}. *)
let resume_rollback ?mode ?page_size ?nn ?fk_join t ~fwd_mig_id ~mig_id
    (fwd_spec : Migration.t) (bspec : Migration.t) =
  if t.act <> None then err "a schema migration is already in progress";
  Obs.Flight.notef ~cat:"migration" "resume rollback of %s after crash restart"
    fwd_spec.Migration.name;
  Obs.Trace.with_span ~cat:"migration" "resume-rollback"
    ~args:[ ("migration", fwd_spec.Migration.name) ]
  @@ fun () ->
  let fwd_rt =
    Migrate_exec.install ?mode ?page_size ?nn ?fk_join ~resume:true ~mig_id:fwd_mig_id
      t.database fwd_spec
  in
  ignore (Recovery.rebuild fwd_rt t.database.Database.redo);
  let purges = purges_of_forward t.database fwd_rt in
  (* Replace each [Heap.tid_count]-derived ceiling with the one logged at
     rollback time (the heap has since grown with reconstructed rows). *)
  let limits : (string, int) Hashtbl.t = Hashtbl.create 4 in
  Redo_log.iter t.database.Database.redo (fun r ->
      List.iter
        (fun (mk : Redo_log.migration_mark) ->
          if mk.Redo_log.mig_id = mig_id then begin
            let name = mk.Redo_log.mig_table in
            let pl = String.length purge_mark_prefix in
            if String.length name > pl && String.sub name 0 pl = purge_mark_prefix
            then
              match mk.Redo_log.granule with
              | Redo_log.G_tid lim ->
                  Hashtbl.replace limits
                    (String.sub name pl (String.length name - pl))
                    lim
              | Redo_log.G_group _ -> ()
          end)
        r.Redo_log.marks);
  let purges =
    List.map
      (fun pu ->
        match Hashtbl.find_opt limits pu.pu_table with
        | Some lim -> { pu with pu_limit = lim }
        | None -> pu)
      purges
  in
  let brt =
    Migrate_exec.install ?mode ~overwrite:true ?page_size ?nn ?fk_join ~resume:true
      ~mig_id t.database bspec
  in
  let restored = Recovery.rebuild brt t.database.Database.redo in
  Logs.info (fun m ->
      m "rollback of %S resumed after restart: %d granule mark(s) restored"
        fwd_spec.Migration.name restored);
  activate t brt
    ~rollback:{ rb_fwd_mig_id = fwd_mig_id; rb_fwd_spec = fwd_spec; rb_purges = purges }
