(** The BullFrog façade (paper §2).

    Wraps a {!Bullfrog_db.Database}; [start_migration] performs the
    logical schema switch immediately (outputs created empty, trackers
    allocated, old tables named in [drop_old] become invisible — the "big
    flip").  Every subsequent request is intercepted:

    - requests naming a table in the active migration's [drop_old] are
      rejected;
    - requests touching a table under migration first trigger lazy
      migration of the potentially-relevant granules, scoped by the
      predicates extracted through the migration views (§2.1);
    - INSERTs expand the relevant set with unique-constraint conflict
      candidates and FOREIGN KEY parents (§2.1, §4.5);
    - everything else passes straight through. *)

type t

val create : Bullfrog_db.Database.t -> t
(** Over a fresh database.  A restarted one goes through {!recover}. *)

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
    migrates (§2.4's pure lazy approach).  Once installed, the switch is
    logged as a Start record holding the spec and the settings chosen
    ({!Bullfrog_db.Redo_log.mig_start}), which is all {!recover} needs.
    @raise Db_error.Sql_error when a migration is already active, or when
    the linter rejects the spec. *)

val recover : Bullfrog_db.Database.t -> t
(** The restart entry point, over a database rebuilt by
    {!Bullfrog_db.Database.replay} (or over the checkpoint image a
    truncated log belongs to).  Migrations are numbered past every id the
    log names.  The newest migration's lifecycle records then say what
    was in flight: with no End, a Finalize's drops are finished and End
    is logged; a Rollback is resumed backward; a Start alone is resumed
    forward.  A resumed runtime is re-installed with the settings its
    Start record holds (mode, granule size, n:n granularity, FK join);
    the output tables and the rows migrated into them survived the
    replay, so no DDL runs, and trackers are refilled from the committed
    granule marks.  Mid-rollback, the forward trackers are rebuilt to
    find the granules still to purge, and the purge ceilings come from
    the Rollback record.  The analyzer runs again on a forward resume but
    rejects nothing; its verdict keeps {!rollback_migration} working. *)

val active : t -> Migrate_exec.t option

val migration_debt : t -> int
(** Unmigrated-granule backlog of the active migration (granules the
    logical switch promised that physical migration has not yet
    delivered); 0 when idle.  The wire server's circuit breaker samples
    this gauge. *)

val intercept :
  t ->
  ?report:Migrate_exec.report ->
  ?params:Bullfrog_db.Value.t array ->
  ?route:(string -> Bullfrog_sql.Ast.expr option -> bool) ->
  string ->
  Bullfrog_db.Database.prepared
(** The request path's front half, shared by {!exec}, {!exec_in} and the
    cluster's shards: [sql] from the database's statement cache, then the
    active migration's interception entry for the text (built once per
    text and catalog epoch).  The entry rejects a statement naming a
    relation in the active spec's [drop_old], or writing a TID-tracked input
    (§2.1: such a write would race the snapshot the migration reads;
    key-tracked inputs and inputs that are also outputs stay writable).
    A statement touching an output then first migrates its potentially
    relevant granules, in their own transactions, for the migration
    statements behind the outputs it names (§3.1), accounted to
    [report]; mid-rollback it first purges the stale rows it could
    observe.  [route] narrows the candidate scans: an input's scan runs
    only when [route input where] holds for its candidate WHERE, whose
    [$n] are [params] ([None] = every row), and with none admitted no lazy
    migration runs; purges are not routed.  Returns the prepared
    statement, to execute with {!Bullfrog_db.Database.exec_prepared_in}.
    @raise Db_error.Sql_error when the entry rejects the statement. *)

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

val migration_complete : t -> bool

val progress : t -> float

val cumulative_report : t -> Migrate_exec.report

val finalize : t -> unit
(** Once complete: drop the spec's [drop_old] tables through the logged
    {!Bullfrog_db.Database.drop_tables} and deactivate interception.
    Inputs outside [drop_old] (an aggregate's source, say) stay.  For a
    rollback runtime [drop_old] holds the abandoned new-schema tables,
    and completeness additionally requires every stale-row purge to have
    drained.  Afterwards a statement naming a dropped table gets the
    catalog's [relation "t" does not exist], as on a replayed node.  The
    drops are logged as a Finalize record before the first one and
    followed by End, so a crash between them finishes the drops at
    {!recover}.
    @raise Db_error.Sql_error if incomplete. *)

val check_finalizable : t -> unit
(** Succeeds when {!finalize} could run now (always with no active
    migration); a cluster checks every shard before any drops.
    @raise Db_error.Sql_error if incomplete, like {!finalize}. *)

val rollback_migration : t -> Migrate_exec.t option
(** Instant mid-flight rollback (§4.2j): install the statically derived
    backward transform ({!Mig_lint.lint_backward}) as a new lazy
    migration over the {e new} tables — rollback is migrating in
    reverse, reusing the trackers, the lazy/background execution paths
    and the interception machinery, so it is as instant as the original
    flip.  The old names become legal again and the abandoned new tables
    are rejected: they are the backward spec's [drop_old].  Returns the
    backward runtime, or [None] when nothing was dropped by the forward
    migration (rollback then reduces to dropping the output tables
    through the logged {!Bullfrog_db.Database.drop_tables}, completed
    synchronously behind a Finalize record and an End, as {!finalize}
    does).  A backward runtime is logged as a Rollback record holding
    both ids, the backward spec and the purge TID ceilings.

    Old-table rows whose granules the forward migration had already
    moved may have diverged through the new schema; they are purged
    lazily (scoped per request, drained by {!background_step}) and
    replaced by the reconstructed rows, so reads after the rollback flip
    are exactly the never-migrated history plus the new-schema edits.
    @raise Db_error.Sql_error when no migration is active, a rollback is
    already in flight, the runtime has no lint verdict (the analyzer
    raised when the migration was resumed), or the spec is not
    invertible. *)

val interception_preds : t -> string -> (string * Migrate_exec.cand_pred) list option
(** The candidate predicates the active migration's interception entry
    for [sql] holds (built here on a miss), for tests and the crash
    sweep's probes; unbound
    ([$n] placeholders intact).  [None] without an active migration and
    for INSERT ... VALUES, which is analysed per call. *)
