open Bullfrog_db
open Bullfrog_core
open Bullfrog_tpcc

type ctx = {
  db : Database.t;
  scale : Tpcc_schema.scale;
  scenario : Tpcc_migrations.scenario;
  fk : Tpcc_migrations.fk_variant;
  cost : Cost_model.t;
  workers : int;
}

let make_ctx ?(fk = Tpcc_migrations.Fk_none) ?(seed = 42) ~scale ~cost ~workers scenario =
  let db = Database.create () in
  Loader.load ~seed db scale;
  { db; scale; scenario; fk; cost; workers }

(* Which transactions touch a table affected by the scenario's migration?
   (Eager migration queues exactly these, §4.1: "StockLevel does not
   access the customer table and can be processed even during an eager
   migration".) *)
let affected ctx (input : Tpcc_txns.input) =
  match ctx.scenario with
  | Tpcc_migrations.Split -> Tpcc_txns.touches_customer input
  | Tpcc_migrations.Aggregate | Tpcc_migrations.Join -> (
      (* order_line / stock touchers: everything except Payment *)
      match input with
      | Tpcc_txns.Payment _ -> false
      | Tpcc_txns.New_order _ | Tpcc_txns.Delivery _ | Tpcc_txns.Order_status _
      | Tpcc_txns.Stock_level _ ->
          true)

let run_with_counters ctx ops exec_builder input =
  (* Execute one TPC-C transaction atomically; returns its counters. *)
  Database.with_txn ctx.db (fun txn ->
      Tpcc_txns.run ops
        ~districts:ctx.scale.Tpcc_schema.districts
        (exec_builder txn) input;
      txn.Txn.counters)

let plain_exec ctx txn : Txn_ops.exec =
 fun ?params sql -> Database.exec_in ctx.db txn ?params sql

let no_overlap (_ : int) = 0.0

let row_keys_of (input : Tpcc_txns.input) =
  match Tpcc_txns.customer_key input with
  | Some (w, d, c) ->
      [ Migrate_exec.G_key [| Value.Int w; Value.Int d; Value.Int c |] ]
  | None -> []

(* ------------------------------------------------------------------ *)

let baseline ctx : Sim.system =
  let ops = Tpcc_migrations.base_ops in
  {
    Sim.sys_name = "no-migration";
    begin_migration = (fun ~now:_ -> 0.0);
    exec =
      (fun ~now:_ input ->
        let counters = run_with_counters ctx ops (plain_exec ctx) input in
        {
          Sim.eo_cost = Cost_model.txn_cost ctx.cost counters;
          eo_migrated = [];
          eo_already = [];
          eo_row_keys = row_keys_of input;
        });
    background_batch = (fun ~now:_ -> 0.0);
    migration_complete = (fun () -> true);
    progress = (fun () -> None);
    is_affected = (fun _ -> false);
    on_conflict = false;
    overlap_cost = no_overlap;
    bg_delay = None;
    bg_workers = 0;
  }

(* ------------------------------------------------------------------ *)

(* The tracker kinds a runtime installed, e.g. "bitmap" or
   "bitmap+hashmap"; an n:n join's pair tracker is keyed like a hashmap. *)
let tracker_kinds (rt : Migrate_exec.t) =
  List.concat_map
    (fun (st : Migrate_exec.rt_stmt) ->
      (if st.Migrate_exec.rs_pair <> None then [ "hashmap" ] else [])
      @ List.filter_map
          (fun (i : Migrate_exec.rt_input) ->
            match i.Migrate_exec.ri_tracker with
            | Migrate_exec.RT_bitmap _ -> Some "bitmap"
            | Migrate_exec.RT_hash _ -> Some "hashmap"
            | Migrate_exec.RT_none -> None)
          st.Migrate_exec.rs_inputs)
    rt.Migrate_exec.stmts
  |> List.sort_uniq String.compare |> String.concat "+"

let bullfrog ?(mode = Migrate_exec.Tracked) ?(page_size = 1) ?nn ?(background = true)
    ?(bg_delay = 20.0) ?(bg_workers = 1) ?(bg_batch = 256) ?(tracking = true) ctx :
    Sim.system =
  let bf = Lazy_db.create ctx.db in
  let base = Tpcc_migrations.base_ops in
  let post = Tpcc_migrations.post_ops ctx.scenario in
  let started = ref false in
  (* Named after the trackers the runtime installs, once it has. *)
  let name trackers =
    Printf.sprintf "bullfrog(%s%s%s%s)"
      (match mode with Migrate_exec.Tracked -> trackers | On_conflict -> "on-conflict")
      (if background then "" else ",no-bg")
      (if page_size > 1 then Printf.sprintf ",page=%d" page_size else "")
      (if tracking then "" else ",no-tracking")
  in
  let events = ref [] in
  let attach_listener () =
    match Lazy_db.active bf with
    | Some rt ->
        rt.Migrate_exec.listener <-
          Some
            (fun ev ->
              match ev with
              | Migrate_exec.Ev_migrated (uid, g) -> events := `M (uid, g) :: !events
              | Migrate_exec.Ev_already (uid, g) -> events := `A (uid, g) :: !events)
    | None -> ()
  in
  let rec sys = {
    Sim.sys_name = name "tracked";
    begin_migration =
      (fun ~now:_ ->
        (* Pre-flight: surface the analyzer verdict (partition proof,
           hazards, precise/imprecise conversion) before the flip. *)
        let v = Tpcc_migrations.preflight ~fk:ctx.fk ctx.db.Database.catalog ctx.scenario in
        Logs.info (fun m ->
            m "pre-flight %s:@.%s"
              (Tpcc_migrations.scenario_name ctx.scenario)
              (Mig_lint.format v));
        let spec = Tpcc_migrations.spec_of ~fk:ctx.fk ctx.scenario in
        let rt = Lazy_db.start_migration ~mode ~page_size ?nn bf spec in
        sys.Sim.sys_name <- name (tracker_kinds rt);
        if tracking then attach_listener ();
        started := true;
        0.0);
    exec =
      (fun ~now:_ input ->
        if not !started then begin
          let counters = run_with_counters ctx base (plain_exec ctx) input in
          {
            Sim.eo_cost = Cost_model.txn_cost ctx.cost counters;
            eo_migrated = [];
            eo_already = [];
            eo_row_keys = row_keys_of input;
          }
        end
        else begin
          events := [];
          let report = Migrate_exec.new_report () in
          let counters =
            run_with_counters ctx post
              (fun txn ?params sql -> Lazy_db.exec_in bf txn ~report ?params sql)
              input
          in
          let migrated, already =
            List.fold_left
              (fun (m, a) ev ->
                match ev with `M g -> (g :: m, a) | `A g -> (m, g :: a))
              ([], []) !events
          in
          let mig_cost_model =
            if tracking then ctx.cost else { ctx.cost with Cost_model.tracker_op = 0.0 }
          in
          {
            Sim.eo_cost =
              Cost_model.txn_cost ctx.cost counters
              +. Cost_model.migration_cost mig_cost_model report;
            eo_migrated = (if tracking then migrated else []);
            eo_already = (if tracking then already else []);
            eo_row_keys = row_keys_of input;
          }
        end);
    background_batch =
      (fun ~now:_ ->
        if not background then 0.0
        else begin
          let r = Migrate_exec.new_report () in
          match Lazy_db.active bf with
          | None -> 0.0
          | Some rt ->
              let n = Migrate_exec.background_step rt r ~batch:bg_batch in
              if n = 0 then 0.0 else Cost_model.migration_cost ctx.cost r
        end);
    migration_complete = (fun () -> (not !started) || Lazy_db.migration_complete bf);
    progress = (fun () -> if !started then Some (Lazy_db.progress bf) else None);
    is_affected = affected ctx;
    on_conflict = (mode = Migrate_exec.On_conflict);
    overlap_cost =
      (fun n -> float_of_int n *. (ctx.cost.Cost_model.row_migrate *. 4.0));
    bg_delay = (if background then Some bg_delay else None);
    bg_workers;
  }
  in
  sys

(* ------------------------------------------------------------------ *)

let eager ctx : Sim.system =
  let base = Tpcc_migrations.base_ops in
  let post = Tpcc_migrations.post_ops ctx.scenario in
  let migrated = ref false in
  {
    Sim.sys_name = "eager";
    begin_migration =
      (fun ~now:_ ->
        let spec = Tpcc_migrations.spec_of ~fk:ctx.fk ctx.scenario in
        let outcome = Eager.migrate ctx.db spec in
        migrated := true;
        (* A single backend performs the copy (CREATE TABLE AS);
           everything touching the affected tables queues meanwhile. *)
        float_of_int outcome.Eager.rows_copied *. ctx.cost.Cost_model.row_migrate
        +. float_of_int outcome.Eager.input_rows_read *. ctx.cost.Cost_model.input_row);
    exec =
      (fun ~now:_ input ->
        let ops = if !migrated then post else base in
        let counters = run_with_counters ctx ops (plain_exec ctx) input in
        {
          Sim.eo_cost = Cost_model.txn_cost ctx.cost counters;
          eo_migrated = [];
          eo_already = [];
          eo_row_keys = row_keys_of input;
        });
    background_batch = (fun ~now:_ -> 0.0);
    migration_complete = (fun () -> !migrated);
    progress = (fun () -> if !migrated then Some 1.0 else None);
    is_affected = affected ctx;
    on_conflict = false;
    overlap_cost = no_overlap;
    bg_delay = None;
    bg_workers = 0;
  }

(* ------------------------------------------------------------------ *)

let multistep ?(bg_workers = 1) ?(bg_batch = 256) ctx : Sim.system =
  let base = Tpcc_migrations.base_ops in
  let post = Tpcc_migrations.post_ops ctx.scenario in
  let ms : Multistep.t option ref = ref None in
  let switched = ref false in
  (* Trigger/log propagation is asynchronous in the multistep tools
     (gh-ost replays the binlog in the background, §5): the dual-write
     rows are accumulated here and charged to the background worker. *)
  let charged_dual = ref 0 in
  {
    Sim.sys_name = "multistep";
    begin_migration =
      (fun ~now:_ ->
        let spec = Tpcc_migrations.spec_of ~fk:ctx.fk ctx.scenario in
        ms := Some (Multistep.start ctx.db spec);
        0.0);
    exec =
      (fun ~now:_ input ->
        match !ms with
        | Some m when not !switched ->
            (* Old-schema requests with dual writes during the window. *)
            let st = Multistep.stats m in
            let before_dual = st.Multistep.dual_write_rows in
            let counters =
              run_with_counters ctx base
                (fun txn ?params sql -> Multistep.exec_in m txn ?params sql)
                input
            in
            ignore before_dual;
            {
              Sim.eo_cost = Cost_model.txn_cost ctx.cost counters;
              eo_migrated = [];
              eo_already = [];
              eo_row_keys = row_keys_of input;
            }
        | _ ->
            let ops = if !switched then post else base in
            let counters = run_with_counters ctx ops (plain_exec ctx) input in
            {
              Sim.eo_cost = Cost_model.txn_cost ctx.cost counters;
              eo_migrated = [];
              eo_already = [];
              eo_row_keys = row_keys_of input;
            });
    background_batch =
      (fun ~now:_ ->
        match !ms with
        | None -> 0.0
        | Some m ->
            (* replay the pending dual writes first *)
            let st = Multistep.stats m in
            let pending = st.Multistep.dual_write_rows - !charged_dual in
            if pending > 0 then begin
              charged_dual := st.Multistep.dual_write_rows;
              float_of_int pending
              *. (ctx.cost.Cost_model.row_write +. ctx.cost.Cost_model.trigger_row)
            end
            else if Multistep.complete m then begin
              if not !switched then begin
                Multistep.switch_over m;
                switched := true
              end;
              0.0
            end
            else begin
              let st = Multistep.stats m in
              let before = st.Multistep.copied_rows in
              let n = Multistep.copier_step m ~batch:bg_batch in
              if n = 0 && Multistep.complete m && not !switched then begin
                Multistep.switch_over m;
                switched := true
              end;
              let rows = st.Multistep.copied_rows - before in
              (* one copy transaction per batch; trigger capture applies to
                 every copied row *)
              (float_of_int rows
              *. (ctx.cost.Cost_model.row_migrate +. ctx.cost.Cost_model.trigger_row))
              +. ctx.cost.Cost_model.mig_txn_overhead
            end);
    migration_complete =
      (fun () -> match !ms with None -> false | Some m -> Multistep.complete m);
    progress = (fun () -> Option.map Multistep.progress !ms);
    is_affected = affected ctx;
    on_conflict = false;
    overlap_cost = no_overlap;
    bg_delay = Some 0.0;
    bg_workers;
  }

(* ------------------------------------------------------------------ *)

(* Tesseract-style MVCC migration (smart data placement / SDT lineage):
   the same copy-then-switch shape as the multistep tools, but the engine
   is multi-versioned, so the mechanics differ where it costs.  Dual
   writes are ordinary version installs — no trigger capture or binlog
   replay, so the [trigger_row] charge disappears from both the copier
   and the propagation path.  And the switch-over is a single commit-
   timestamp publish (exactly our [Database.commit] flip): concurrent
   readers keep running against their snapshots and pay nothing. *)
let tesseract ?(bg_workers = 1) ?(bg_batch = 256) ctx : Sim.system =
  let base = Tpcc_migrations.base_ops in
  let post = Tpcc_migrations.post_ops ctx.scenario in
  let ms : Multistep.t option ref = ref None in
  let switched = ref false in
  let charged_dual = ref 0 in
  {
    Sim.sys_name = "tesseract(mvcc)";
    begin_migration =
      (fun ~now:_ ->
        let spec = Tpcc_migrations.spec_of ~fk:ctx.fk ctx.scenario in
        ms := Some (Multistep.start ctx.db spec);
        0.0);
    exec =
      (fun ~now:_ input ->
        match !ms with
        | Some m when not !switched ->
            (* Old-schema requests; their new-schema shadow writes are
               versioned writes installed at commit, not trigger rows. *)
            let counters =
              run_with_counters ctx base
                (fun txn ?params sql -> Multistep.exec_in m txn ?params sql)
                input
            in
            {
              Sim.eo_cost = Cost_model.txn_cost ctx.cost counters;
              eo_migrated = [];
              eo_already = [];
              eo_row_keys = row_keys_of input;
            }
        | _ ->
            let ops = if !switched then post else base in
            let counters = run_with_counters ctx ops (plain_exec ctx) input in
            {
              Sim.eo_cost = Cost_model.txn_cost ctx.cost counters;
              eo_migrated = [];
              eo_already = [];
              eo_row_keys = row_keys_of input;
            });
    background_batch =
      (fun ~now:_ ->
        match !ms with
        | None -> 0.0
        | Some m ->
            (* Propagate pending dual writes: plain version installs. *)
            let st = Multistep.stats m in
            let pending = st.Multistep.dual_write_rows - !charged_dual in
            if pending > 0 then begin
              charged_dual := st.Multistep.dual_write_rows;
              float_of_int pending *. ctx.cost.Cost_model.row_write
            end
            else if Multistep.complete m then begin
              if not !switched then begin
                (* One timestamp publish; no lock wait, no cost. *)
                Multistep.switch_over m;
                switched := true
              end;
              0.0
            end
            else begin
              let st = Multistep.stats m in
              let before = st.Multistep.copied_rows in
              let n = Multistep.copier_step m ~batch:bg_batch in
              if n = 0 && Multistep.complete m && not !switched then begin
                Multistep.switch_over m;
                switched := true
              end;
              let rows = st.Multistep.copied_rows - before in
              (* Copied rows are versioned inserts — no trigger capture. *)
              (float_of_int rows *. ctx.cost.Cost_model.row_migrate)
              +. ctx.cost.Cost_model.mig_txn_overhead
            end);
    migration_complete =
      (fun () -> match !ms with None -> false | Some m -> Multistep.complete m);
    progress = (fun () -> Option.map Multistep.progress !ms);
    is_affected = affected ctx;
    on_conflict = false;
    overlap_cost = no_overlap;
    bg_delay = Some 0.0;
    bg_workers;
  }

(* ------------------------------------------------------------------ *)

let measure_mean_txn_cost ctx ~samples ~seed =
  let rng = Rng.create seed in
  let gen_cfg = { Tpcc_txns.scale = ctx.scale; hot_customers = None } in
  let total = ref 0.0 in
  for _ = 1 to samples do
    let input = Tpcc_txns.generate rng gen_cfg in
    let counters = run_with_counters ctx Tpcc_migrations.base_ops (plain_exec ctx) input in
    total := !total +. Cost_model.txn_cost ctx.cost counters
  done;
  !total /. float_of_int samples
