(** Shared-nothing sharded engine: N independent {!Bullfrog_db.Database}
    instances behind a predicate-routing coordinator (DESIGN.md §4.2g).

    Rows are partitioned by {!Partition} specs registered per table
    (hash on the primary key by default).  The coordinator routes each
    statement with the {!Bullfrog_analysis.Router} decision procedure:

    - a point query whose WHERE pins the partition key touches exactly
      one shard;
    - non-prunable scans scatter to the candidate shards one after
      another on the calling thread and gather/merge the results
      (concatenation, count-star summation, ORDER BY re-sort, LIMIT);
    - cross-shard writes run as two-phase commit over the shards' own
      redo logs, with the coordinator decision in its own log and
      atomic cross-shard visibility from a single {!Mvcc.commit}
      publish;
    - DDL broadcasts to every shard.

    Migration goes per-shard: each shard keeps its own granule trackers
    and background migrator; the cluster epoch is published after all
    shards ack the flip.  When the migration changes the partition key,
    migrated rows are moved to their new home shards as 2PC
    delete+insert pairs.

    Unsupported on the cluster frontend (raising [Db_error.Sql_error]):
    explicit transactions, cross-shard joins, subqueries, cross-shard
    aggregates other than count-star, INSERT..SELECT, CREATE TABLE AS,
    and UPDATEs of the partition column. *)

type t

val create : ?shards:int -> unit -> t
(** Default 4 shards; registers a per-instance Obs stats provider
    ([cluster:<n>]).  @raise Invalid_argument when [shards < 1]. *)

val close : t -> unit
(** Unregister the cluster's stats provider.  The cluster object itself
    holds no OS resources, but a closed cluster must not pollute the
    next {!Obs.snapshot} in-process. *)

val shard_count : t -> int

val shard_db : t -> int -> Bullfrog_db.Database.t
(** Direct access to one shard (tests and benchmarks). *)

val epoch : t -> int
(** Cluster schema epoch: bumped by one store per cluster-wide flip,
    only after every shard has acked. *)

val partition_of : t -> string -> Partition.t option

val set_partition : t -> string -> Partition.t -> unit
(** Override the table's partition spec (must be set before the table
    holds rows; existing rows are not re-placed). *)

(** {2 Statements} *)

val exec : t -> ?params:Bullfrog_db.Value.t array -> string -> Bullfrog_db.Executor.result
(** Route and execute one auto-committed statement.  Each shard it runs
    on takes the single-node request path: its statement cache, its
    {!Bullfrog_core.Lazy_db.intercept} entry for the text, and its plan
    cache, with [params] bound per call.  If a migration is active, every
    shard intercepts the statement first: rollback purges run on all of
    them, an input's lazy candidate scan only on the shards its
    partition routes the candidate predicate to, and a shard that
    migrated moves the rows whose new home is another shard. *)

val exec_script : t -> string -> Bullfrog_db.Executor.result list
(** Each [;]-separated statement through {!exec}, auto-committed. *)

val query : t -> ?params:Bullfrog_db.Value.t array -> string -> Bullfrog_db.Value.t array list

val query_one : t -> ?params:Bullfrog_db.Value.t array -> string -> Bullfrog_db.Value.t array

val explain : t -> string -> string
(** Routing decision plus shard 0's plan. *)

val vacuum : ?budget:int -> t -> int
(** Per-shard {!Bullfrog_db.Database.vacuum}; with [budget], each shard
    gets the full budget.  Returns total versions reclaimed. *)

val frontend : t -> Bullfrog_db.Frontend.t
(** The uniform SQL surface ([f_name = "cluster:N"]). *)

(** {2 Migration} *)

val start_migration :
  ?partitions:(string * Partition.t) list -> t -> Bullfrog_core.Migration.t -> unit
(** Flip every shard (each gets its own trackers and migration runtime),
    register output-table partitions ([partitions] overrides the
    defaults), and publish the new cluster epoch after all shards ack.
    Each shard logs its own Start record; a crash between two shards'
    switches is finished by {!recover}. *)

val background_step : t -> batch:int -> int
(** One background batch on every shard (plus row movement); returns
    total granules migrated, 0 once the cluster is fully migrated. *)

val active_migration : t -> Bullfrog_core.Migration.t option

val migration_complete : t -> bool

val migration_progress : t -> float

val migration_debt : t -> int
(** Unmigrated-granule backlog summed across shards
    ({!Bullfrog_core.Lazy_db.migration_debt} per shard); 0 when idle.
    The wire server's circuit breaker samples this gauge. *)

val finalize : t -> unit
(** Per-shard {!Bullfrog_core.Lazy_db.finalize} plus a final row-movement
    sweep.  Every shard is checked before the first drop; each shard
    logs its own Finalize record before its drops and End after them,
    and the dropped tables' partition specs are forgotten.
    @raise Db_error.Sql_error if any shard is incomplete. *)

val rollback_migration : t -> unit
(** Cluster-wide mid-flight rollback: flip every shard to the statically
    derived backward migration ({!Bullfrog_core.Lazy_db.rollback_migration})
    and publish one epoch store, so readers see either the whole cluster
    migrating forward or the whole cluster rolling back.  Each shard
    logs its own Rollback record, which makes the rollback
    crash-survivable; when nothing needs reconstructing each shard drops
    the outputs synchronously behind a Finalize record and an End.  The
    rollback then proceeds
    like any migration: lazy, background-drained, finished by
    {!finalize} (which drops the abandoned new-schema tables).
    @raise Db_error.Sql_error when no migration is active, a rollback is
    already in flight, or the spec is not invertible. *)

(** {2 Observability} *)

val shard_stats : t -> Obs.stat list
(** Coordinator-merged, shard-labeled gauges: one coordinator stat
    (shard count, epoch, migration activity/debt/progress) plus one
    stat per shard ([<prov>/shardN]) with that shard's migration debt
    and backfill progress.  This is also what the cluster's registered
    stats provider emits into {!Obs.snapshot}. *)

val obs_snapshot : t -> Obs.snapshot
(** All process counters plus {!shard_stats} — the cluster-wide metrics
    view the wire [STATS] command exposes. *)

(** {2 Recovery} *)

val recover : t -> t
(** Crash-restart the whole cluster: each shard is rebuilt from its
    (serialisation round-tripped) redo log with
    {!Bullfrog_db.Database.replay}; transactions prepared but undecided
    at the crash resolve against the coordinator's decision log —
    presumed abort when no commit decision was logged — so a cross-shard
    transaction is either committed on every participant or on none.

    A crash mid-migration is survivable: each shard logs its own
    migration lifecycle records and restarts through
    {!Bullfrog_core.Lazy_db.recover}.  Lifecycle steps run shard by
    shard, so a crash between two shards leaves the later ones one step
    behind; recovery drives every shard to the furthest phase any shard
    reached for the newest migration — it starts the shards that had not
    switched, rolls back those still migrating forward, or finishes the
    drops a Finalize record names. *)
