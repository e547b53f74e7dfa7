(** Migration runtime: installation and the per-transaction migration loop
    (paper §3.2, Algorithm 1).

    [install] performs the logical schema switch: it creates the (empty)
    output tables with their declared constraints and indexes, allocates
    the tracking structures chosen by {!Classify}, and records the
    shadow-view catalog used for predicate extraction.  No data moves.

    [migrate_for_preds] is the loop a worker runs before its client
    request: scan potentially-relevant old rows, consult the tracker per
    granule (WIP / SKIP bookkeeping), physically migrate the WIP granules
    inside a dedicated transaction, flip their status on commit, and
    re-check SKIP entries until they are migrated or abandoned by an
    aborted competitor (§3.5). *)

type mode =
  | Tracked  (** Algorithms 2/3: lock bit + migrate bit *)
  | On_conflict
      (** §3.7: no lock bit; duplicate suppression via ON CONFLICT DO
          NOTHING against the output tables' unique indexes *)

type nn_granularity =
  | Nn_pair
      (** §3.6 option 3: a granule is a combination of one tuple from each
          join input — (x.tupleID, y.tupleID) → status *)
  | Nn_join_key
      (** coarse variant: a granule is a whole join-key equivalence class
          (used by the multistep baseline, whose write propagation is
          class-based) *)

type granule = G_tid of int | G_key of Bullfrog_db.Value.t array

type rt_tracker =
  | RT_bitmap of Bitmap_tracker.t
  | RT_hash of Hash_tracker.t * int array  (** tracker, key column indices *)
  | RT_none

type rt_input = {
  ri_alias : string;
  ri_heap : Bullfrog_db.Heap.t;
  ri_plan : Classify.input_plan;
  ri_tracker : rt_tracker;
  ri_tracker_uid : int;  (** inputs sharing a tracker share the uid *)
  ri_probe : Probe_map.t;
      (** transient [col = v] probe map of a read-only bitmap input
          (DESIGN.md §4.2b); empty otherwise *)
  mutable ri_bg_cursor : int;  (** background-scan position (TID / granule) *)
  mutable ri_bg_done : bool;
}

type pair_output = {
  po_heap : Bullfrog_db.Heap.t;
  po_projs : Bullfrog_db.Expr.cexpr array;  (** over [a_row @ b_row] *)
  po_where : Bullfrog_db.Expr.cexpr option;
}

type pair_rt = {
  pr_uid : int;
  pr_tracker : Hash_tracker.t;  (** keyed by [\[| Int a_tid; Int b_tid |\]] *)
  pr_a : rt_input;
  pr_b : rt_input;
  pr_a_key : int array;
  pr_b_key : int array;
  pr_outputs : pair_output list;
  mutable pr_bg_cursor : int;
  mutable pr_bg_done : bool;
}

type population
(** A statement's population queries planned once per catalog epoch and
    set of narrowed inputs (DESIGN.md §4.2b); see {!run_population}. *)

type rt_stmt = {
  rs_name : string;
  rs_outputs : (Bullfrog_db.Heap.t * Bullfrog_sql.Ast.select) list;
  rs_inputs : rt_input list;
  rs_pair : pair_rt option;  (** Some = pair-granularity n:n *)
  rs_population : population list Atomic.t;
      (** built by the first {!run_population} of each catalog epoch and
          set of narrowed inputs *)
}

type cand_pred = {
  cp_where : Bullfrog_sql.Ast.expr option;
      (** [None] = every row is potentially relevant; may hold [$n] *)
  cp_pred : Bullfrog_db.Access.pred;  (** [cp_where] compiled against the input *)
}
(** One input's lazy candidate predicate, compiled once and scanned under
    any parameter binding. *)

val cand_pred : Bullfrog_db.Heap.t -> Bullfrog_sql.Ast.expr option -> cand_pred

type granule_event =
  | Ev_migrated of int * granule
      (** tracker uid, granule — committed by the current worker *)
  | Ev_already of int * granule
      (** candidate found already migrated (possibly by a transaction
          still in flight in virtual time — the harness models the
          Algorithm 1 wait with these) *)

type t = {
  mig_id : int;
  spec : Migration.t;
  stmts : rt_stmt list;
  db : Bullfrog_db.Database.t;
  mode : mode;
  overwrite : bool;
      (** backward (rollback) installs: a migrated row that collides with
          a live output row on a unique key replaces it instead of being
          dropped or raising — the reconstructed row is authoritative *)
  page_size : int;
  mutable abort_inject : (unit -> bool) option;
      (** failure injection: when it returns true, the migration
          transaction aborts after performing its work (tests §3.5) *)
  mutable listener : (granule_event -> unit) option;
      (** granule-level event stream for the simulation harness *)
  mutable tele_lazy : int;  (** granules committed by the lazy path *)
  mutable tele_bg : int;  (** granules committed by background batches *)
  mutable tele_already : int;  (** candidates found already migrated *)
  mutable tele_skip_waits : int;  (** SKIP re-check rounds (§3.5) *)
  mutable tele_aborts : int;  (** competitor aborts observed *)
  mutable tele_samples : (float * int) list;
      (** recent (wallclock, granules committed) samples, newest first;
          bounded — feeds {!progress_report}'s rate/ETA *)
  lint : Mig_lint.t option;
      (** install-time analyzer verdict ({!Mig_lint.lint}), when the
          caller ran the linter *)
}

(** Accumulated work report, consumed by the benchmark cost model. *)
type report = {
  mutable r_txns : int;
  mutable r_granules_migrated : int;
  mutable r_rows_migrated : int;  (** output rows inserted *)
  mutable r_input_rows : int;  (** old-schema rows read on behalf of migration *)
  mutable r_granules_already : int;
  mutable r_skip_waits : int;
  mutable r_aborts : int;
}

val new_report : unit -> report

val merge_report : into:report -> report -> unit

val install :
  ?mode:mode ->
  ?overwrite:bool ->
  ?page_size:int ->
  ?nn:nn_granularity ->
  ?fk_join:[ `Tuple | `Class ] ->
  ?lint:Mig_lint.t ->
  ?resume:bool ->
  mig_id:int ->
  Bullfrog_db.Database.t ->
  Migration.t ->
  t
(** Logical switch; raises on unsupported migration shapes.  Output tables
    must not collide with existing relations.  [lint] is the analyzer
    verdict to record on the runtime (informational; enforcement happens
    in {!Lazy_db.start_migration}).  With [resume] (crash restart), the
    output tables are expected to already exist — they and their data
    survived via redo replay — and no DDL runs; trackers come back empty
    and are refilled from the log by {!Recovery.rebuild}. *)

val candidate_rows :
  ?probe:Probe_map.t ->
  ?params:Bullfrog_db.Value.t array ->
  Bullfrog_db.Database.t ->
  Bullfrog_db.Heap.t ->
  rt_tracker ->
  cand_pred ->
  (int * Bullfrog_db.Heap.row) list
(** Algorithm 1's candidate scan of one input, in its own transaction,
    reading every slot's newest version (trigger semantics).  Over a
    bitmap tracker a sequential scan visits only the TID ranges of
    granules that are not migrated — free or in progress — skipping
    settled bitmap words 32 granules at a time, so the result is "scan
    everything, then drop rows of migrated granules".  Index paths and
    hash-tracked inputs return every match.  With [probe], a bitmap
    scan whose path is sequential asks the probe map first
    ({!Probe_map.candidates}): same rows, without the range scan.
    [params] binds the predicate's [$n] placeholders. *)

val read_only_table : t -> string -> bool
(** The table is a TID-tracked (bitmap) input of the migration and not
    also one of its outputs: no statement may write it while the
    migration runs.  {!Lazy_db.check_input_writes} rejects such writes,
    and only such inputs get a probe map. *)

val input_candidates :
  ?params:Bullfrog_db.Value.t array ->
  t ->
  rt_input ->
  cand_pred ->
  (int * Bullfrog_db.Heap.row) list
(** The candidate scan a lazy request runs on one input:
    {!candidate_rows} with the input's probe map when
    {!read_only_table} holds for it. *)

val compile_preds :
  t -> (string * Bullfrog_sql.Ast.expr option) list -> (string * cand_pred) list
(** {!cand_pred} per table, against the runtime's input heap of that
    name; tables that are no statement's input are dropped. *)

val migrate_for_preds :
  ?stmt_filter:(rt_stmt -> bool) ->
  ?params:Bullfrog_db.Value.t array ->
  t ->
  report ->
  (string * cand_pred) list ->
  unit
(** [migrate_for_preds t report preds] — [preds] gives, per {e base input
    table name}, the extracted predicate, compiled ({!compile_preds};
    [cp_where = None]: every row is potentially relevant) and scanned
    with [params] bound, so {!Lazy_db} compiles a statement text's
    predicates once.  Tables absent from the list are not touched, and
    statements rejected by [stmt_filter] do not migrate (a request only
    drives the statements whose outputs it references, §3.1).  Runs
    Algorithm 1 to completion (SKIP loop included). *)

val run_population :
  t ->
  Bullfrog_db.Txn.t ->
  rt_stmt ->
  (string * (int * Bullfrog_db.Heap.row) list) list ->
  (Bullfrog_db.Heap.t -> Bullfrog_db.Heap.row list -> unit) ->
  unit
(** [run_population t txn stmt rows f] calls [f out_heap derived] for
    each output of [stmt] in order, with the rows its population query
    derives inside [txn].  An input table listed in [rows] reads exactly
    those rows; every other input reads its real table.  The plans are
    built once per catalog epoch and set of listed tables, over empty
    placeholder heaps for the listed tables (counted by
    [core.migrate.population_plans], one per output), and rebound to the
    call's heaps ({!Bullfrog_db.Plan.rebind}); no planning happens per
    call.  A migration transaction lists every tracked input; multistep's
    dual-write refresh lists the written input only, so its other inputs
    keep their index paths. *)

val migrate_granules :
  t -> report -> rt_stmt -> (rt_input * granule) list -> unit
(** Low-level entry used by the background migrator and the multistep
    copier: acquire and migrate an explicit granule set. *)

val background_step : t -> report -> batch:int -> int
(** Migrate up to [batch] granules not yet covered, scanning inputs in
    TID order (§2.2).  Returns the number of granules migrated (0 =
    migration complete). *)

val complete : t -> bool
(** All bitmap trackers full and every hash input's background scan
    finished. *)

val verify_complete : t -> bool
(** Exhaustive check (scans every input row); used by tests. *)

val progress : t -> float
(** Fraction of bitmap granules migrated (hash inputs contribute their
    discovered keys); in [0;1], 1 when [complete]. *)

(** Point-in-time migration telemetry (the [\progress] meta-command and
    the harness timeline).  Granule counts are tracker-level: bitmap
    trackers contribute their fixed granule count, hash trackers their
    keys discovered so far (a lower bound until the background scan
    finishes). *)
type progress_report = {
  pg_fraction : float;  (** same quantity as {!progress} *)
  pg_granules_migrated : int;
  pg_granules_total : int;
  pg_lazy : int;  (** granules committed by the lazy path *)
  pg_bg : int;  (** granules committed by background batches *)
  pg_already : int;
  pg_skip_waits : int;
  pg_aborts : int;
  pg_rate : float;  (** granules/s over the recent sample window *)
  pg_eta : float option;
      (** seconds to completion at [pg_rate]; [None] when the rate is
          unknown (no samples yet) and [Some 0.] once complete *)
}

val progress_report : t -> progress_report

val format_progress : progress_report -> string
(** One-line human-readable rendering, shared by the CLI and tests. *)

val rows_for_granule : t -> rt_input -> granule -> (int * Bullfrog_db.Heap.row) list
(** The input rows a granule covers (whole pages for bitmap granules,
    whole groups for hash granules). *)

val granule_of_row : rt_input -> int -> Bullfrog_db.Heap.row -> granule

val granule_equal : granule -> granule -> bool
