(** The BullFrog façade (paper §2).

    Wraps a {!Bullfrog_db.Database}; [start_migration] performs the
    logical schema switch immediately (outputs created empty, trackers
    allocated, old tables named in [drop_old] become invisible — the "big
    flip").  Every subsequent request is intercepted:

    - requests naming a dropped old table are rejected;
    - requests touching a table under migration first trigger lazy
      migration of the potentially-relevant granules, scoped by the
      predicates extracted through the migration views (§2.1);
    - INSERTs expand the relevant set with unique-constraint conflict
      candidates and FOREIGN KEY parents (§2.1, §4.5);
    - everything else passes straight through. *)

type t

val create : Bullfrog_db.Database.t -> t

val db : t -> Bullfrog_db.Database.t

val start_migration :
  ?mode:Migrate_exec.mode ->
  ?page_size:int ->
  ?nn:Migrate_exec.nn_granularity ->
  ?fk_join:[ `Tuple | `Class ] ->
  t ->
  Migration.t ->
  Migrate_exec.t
(** The logical switch.  The static analyzer ({!Mig_lint.lint}) runs
    first and its verdict is recorded on the returned runtime
    ([Migrate_exec.lint]): provable row loss is rejected; split outputs
    that are not provably disjoint switch the migration to ON CONFLICT
    mode (unless the caller already asked for it); hazards and a
    non-invertible spec (mid-flight rollback will be refused) are logged
    as warnings.  Uniqueness is not pre-checked: a row that violates an
    output's UNIQUE / PRIMARY KEY constraint fails when its granule
    migrates (§2.4's pure lazy approach).
    @raise Db_error.Sql_error when a migration is already active, or when
    the linter rejects the spec. *)

val resume_migration :
  ?mode:Migrate_exec.mode ->
  ?page_size:int ->
  ?nn:Migrate_exec.nn_granularity ->
  ?fk_join:[ `Tuple | `Class ] ->
  t ->
  mig_id:int ->
  Migration.t ->
  Migrate_exec.t
(** Crash-restart re-installation of a migration whose logical switch
    already happened.  The output tables (and the rows migrated so far)
    are expected to exist in the catalog — they survived via redo
    replay — so no DDL runs; trackers are refilled from the committed
    granule marks in the redo log ({!Recovery.rebuild}) and migration
    resumes from the durable frontier.  [mig_id] must be the original
    runtime's id (granule marks are filtered by it).  The analyzer runs
    again but rejects nothing — the switch already happened; its verdict
    picks the mode exactly as {!start_migration} does (an overlapping
    split resumes in ON CONFLICT mode) and is attached to the runtime so
    {!rollback_migration} keeps working across a crash.
    @raise Db_error.Sql_error when a migration is already active. *)

val active : t -> Migrate_exec.t option

val rollback_info : t -> (int * Migration.t) option
(** [(forward mig_id, forward spec)] when the active migration is a
    rollback installed by {!rollback_migration}; [None] otherwise. *)

val migration_debt : t -> int
(** Unmigrated-granule backlog of the active migration (granules the
    logical switch promised that physical migration has not yet
    delivered); 0 when idle.  The wire server's circuit breaker samples
    this gauge. *)

val check_input_writes : t -> Bullfrog_sql.Ast.stmt -> unit
(** Post-switch the old schema is gone from the application's view
    (§2.1): an INSERT/UPDATE/DELETE targeting a {e TID-tracked} input
    table of the active migration would race the snapshot the migration
    reads and grow the heap past the install-time bitmap-tracker
    bounds.  Key-tracked (hash) inputs stay writable — a new row joins
    its key group, and rows landing in already-migrated groups are the
    application's to maintain in the outputs (the TPC-C aggregate
    scenarios rely on that contract).  [exec] and [exec_in] call this;
    layers that bypass them (the cluster router) must call it
    themselves.  No-op when the target is also an output or no
    migration is active.
    @raise Db_error.Sql_error on a write to a TID-tracked input. *)

val exec :
  t ->
  ?report:Migrate_exec.report ->
  ?params:Bullfrog_db.Value.t array ->
  string ->
  Bullfrog_db.Executor.result
(** Auto-committed request.  Migration work (if any) runs in its own
    transactions before the request (§3.2) and is accounted to [report]
    (and always to the cumulative report). *)

val exec_in :
  t ->
  Bullfrog_db.Txn.t ->
  ?report:Migrate_exec.report ->
  ?params:Bullfrog_db.Value.t array ->
  string ->
  Bullfrog_db.Executor.result
(** Statement inside a caller-owned transaction; migration still runs in
    separate transactions first. *)

val background_step : t -> batch:int -> int
(** §2.2; returns granules migrated — plus, mid-rollback, stale-row
    purge granules drained — (0 once complete). *)

val drive_purges : t -> Bullfrog_sql.Ast.stmt -> unit
(** Run the request-scoped stale-row purges a statement requires
    mid-rollback (no-op otherwise).  [exec]/[exec_in] do this
    internally; layers that drive {!Migrate_exec} directly (the cluster
    router) must call it before executing the statement. *)

val migration_complete : t -> bool

val progress : t -> float

val cumulative_report : t -> Migrate_exec.report

val finalize : t -> unit
(** Once complete: drop the migration's input tables from the catalog and
    deactivate interception.  For a rollback runtime the inputs are the
    abandoned new-schema tables, and completeness additionally requires
    every stale-row purge to have drained.
    @raise Db_error.Sql_error if incomplete. *)

val rollback_migration : t -> Migrate_exec.t option
(** Instant mid-flight rollback (§4.2j): install the statically derived
    backward transform ({!Mig_lint.lint_backward}) as a new lazy
    migration over the {e new} tables — rollback is migrating in
    reverse, reusing the trackers, the lazy/background execution paths
    and the interception machinery, so it is as instant as the original
    flip.  The old names become legal again and the abandoned new tables
    are rejected.  Returns the backward runtime, or [None] when nothing
    was dropped by the forward migration (rollback then reduces to
    dropping the output tables, completed synchronously).

    Old-table rows whose granules the forward migration had already
    moved may have diverged through the new schema; they are purged
    lazily (scoped per request, drained by {!background_step}) and
    replaced by the reconstructed rows, so reads after the rollback flip
    are exactly the never-migrated history plus the new-schema edits.
    @raise Db_error.Sql_error when no migration is active, a rollback is
    already in flight, the runtime has no lint verdict (the analyzer
    raised when the migration was resumed), or the spec is not
    invertible. *)

val resume_rollback :
  ?mode:Migrate_exec.mode ->
  ?page_size:int ->
  ?nn:Migrate_exec.nn_granularity ->
  ?fk_join:[ `Tuple | `Class ] ->
  t ->
  fwd_mig_id:int ->
  mig_id:int ->
  Migration.t ->
  Migration.t ->
  Migrate_exec.t
(** [resume_rollback t ~fwd_mig_id ~mig_id fwd_spec backward_spec] —
    crash-restart re-installation of an in-flight rollback.  The forward
    runtime's trackers are rebuilt from the log (under [fwd_mig_id]) to
    recover which granules still need their stale old-schema rows
    purged; the purge TID ceilings come from the synthetic marks logged
    at rollback time; the backward runtime resumes from its own marks
    (under [mig_id]).  [page_size] must match the original installs.
    No analyzer runs: like {!rollback_migration}'s, the backward runtime
    takes the caller's [mode] (default [Tracked]); a derived backward
    spec is disjoint by construction.
    @raise Db_error.Sql_error when a migration is already active. *)

val extract_predicates_for_stmt :
  t -> Bullfrog_sql.Ast.stmt -> (string * Bullfrog_sql.Ast.expr option) list
(** Exposed for tests: the per-old-table predicates a statement would
    migrate by ([None] = full table). *)

val interception_preds : t -> string -> (string * Migrate_exec.cand_pred) list option
(** Exposed for tests: the candidate predicates the active migration's
    interception entry for [sql] holds (built here on a miss), unbound
    ([$n] placeholders intact).  [None] without an active migration and
    for INSERT ... VALUES, which is analysed per call. *)
