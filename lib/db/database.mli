(** The database façade: sessions, transactions, SQL entry points.

    [exec] auto-commits a single statement; [with_txn] runs several
    statements atomically and rolls back on exception.  Committed writes
    are appended to the redo log; BullFrog tags migration granules onto
    the committing transaction with [add_migration_mark] so that crash
    recovery can rebuild tracker state (paper §3.5). *)

type prepared
(** A parsed statement from the per-database statement cache (keyed by
    SQL text).  Cacheable statements (no subqueries — those are evaluated
    at plan time, so their plans bake results in) additionally memoise
    their compiled form: a SELECT's physical plan, or the
    {!Executor.compile_write} closure of an INSERT ... VALUES, UPDATE or
    DELETE.  It is tagged with the {!Catalog.epoch} it was built under,
    and discarded and rebuilt when the epoch moves (DDL, BullFrog
    migration flips). *)

type t = {
  catalog : Catalog.t;
  redo : Redo_log.t;
  locks : Lock_manager.t;
  mutable next_txn_id : int;
  txn_latch : Mutex.t;
  stmt_cache : (string, prepared) Hashtbl.t;
  stmt_latch : Mutex.t;
  marks_tbl : (int, Redo_log.migration_mark list ref) Hashtbl.t;
      (** per-transaction migration marks, drained at commit; per-database
          because txn ids restart at 1 in every instance *)
  marks_latch : Mutex.t;
  mutable vacuum_next : int;
      (** catalog position (modulo the table count) a budgeted {!vacuum}
          starts at *)
}

val create : unit -> t

val exec_ctx : t -> Executor.exec_ctx

val begin_txn : t -> Txn.t

val commit : t -> Txn.t -> unit
(** Timestamped commit: takes the next {!Mvcc} timestamp, stamps every
    version the transaction wrote, publishes the clock with one atomic
    store (all-or-nothing for snapshot readers), appends the redo record
    (with its commit timestamp and any migration marks) and runs commit
    hooks.  Read-only transactions skip the clock entirely. *)

val abort : t -> Txn.t -> unit

val with_txn : t -> (Txn.t -> 'a) -> 'a
(** Commits on success, aborts on exception (and re-raises). *)

val add_migration_mark : t -> Txn.t -> Redo_log.migration_mark -> unit

(** {2 Two-phase commit (participant side)}

    The cluster coordinator drives cross-shard transactions through these
    three calls: [prepare_2pc] on every participant (writes durable under
    the global id, transaction still open), then — after logging its
    decision — one {!Mvcc.commit} whose stamp callback runs
    [stamp_prepared] on every participant (one clock publish makes the
    whole distributed transaction visible atomically), then
    [resolve_2pc] per participant to append the shard-local decision
    marker and release locks. *)

val prepare_2pc : t -> Txn.t -> gid:string -> Redo_log.record
(** Append the open transaction's writes to this database's log as an
    [E_prepare] entry under [gid].  The transaction stays open: versions
    uncommitted, locks held.  Returns the prepared record. *)

val stamp_prepared : Txn.t -> ts:int -> unit
(** Stamp every version the prepared transaction wrote at [ts].  Call
    inside an {!Mvcc.commit} stamp callback. *)

val resolve_2pc : t -> Txn.t -> gid:string -> commit:int option -> unit
(** Finish a prepared transaction.  [commit = Some ts] appends the
    shard-local commit marker (the versions must already be stamped at
    [ts]) and closes the transaction; [None] rolls the writes back and
    appends an abort marker.  Releases the transaction's locks. *)

val stmt_cache_cap : int
(** Entries the statement cache holds before it is emptied and refilled. *)

val prepare : t -> string -> prepared
(** Look up (or parse and cache) [sql].  One parse serves every
    subsequent execution of the same text; [$n] placeholders stay in the
    statement and are bound per execution. *)

val prepared_stmt : prepared -> Bullfrog_sql.Ast.stmt

val check_params : prepared -> Value.t array option -> unit
(** @raise Db_error.Sql_error when fewer parameters are supplied than the
    statement references — {!exec_prepared_in}'s own check, for callers
    that read the parameters before executing. *)

val exec_prepared_in : t -> Txn.t -> ?params:Value.t array -> prepared -> Executor.result
(** Execute a prepared statement inside [txn].  [params.(i)] binds
    [$(i+1)]; @raise Db_error.Sql_error when fewer parameters are
    supplied than the statement references. *)

val bind_stmt : Value.t array option -> Bullfrog_sql.Ast.stmt -> Bullfrog_sql.Ast.stmt
(** Splice parameter values into the AST as literals.  Not used on the
    execution path (parameters stay positional there).  BullFrog's
    interceptor uses it only where analysis needs concrete values: the
    conflict candidates of an INSERT ... VALUES and rollback purge
    scopes; every other statement's lazy predicates stay positional. *)

val exec : t -> ?params:Value.t array -> string -> Executor.result
(** [prepare] + execute, auto-committed.  [params] binds [$1..$n]. *)

val exec_script : t -> string -> Executor.result list
(** Executes [;]-separated statements, each auto-committed. *)

val exec_in : t -> Txn.t -> ?params:Value.t array -> string -> Executor.result

val drop_tables : t -> string list -> unit
(** Drop the named tables in one transaction of logged
    [DROP TABLE IF EXISTS], so replaying the redo log drops them too.
    Every drop a migration makes goes through here. *)

val query : t -> ?params:Value.t array -> string -> Value.t array list
(** [exec] specialised to SELECT; returns the rows. *)

val query_one : t -> ?params:Value.t array -> string -> Value.t array
(** First row. @raise Db_error.Sql_error when the result is empty. *)

val explain : t -> string -> string

val vacuum : ?budget:int -> t -> int
(** Version-chain GC, reclaiming versions no snapshot at or above
    {!Mvcc.horizon} can reach.  Each table visits only the slots written
    since its last GC ({!Heap.gc}).  Without [budget]: every table's
    whole list.  With [budget]: tables in catalog order, starting after
    the last table the previous call visited and wrapping around, until
    at least [budget] versions are reclaimed (overshooting only within
    the final slot's chain); the slots not reached stay listed for the
    next call.
    Emits an [mvcc]/[gc] trace span and bumps
    [mvcc.gc_runs]/[mvcc.gc_reclaimed].  Returns the number of versions
    reclaimed.  Safe to run at any time, concurrently with readers: it
    only shortens chains below committed heads (a reader holding an old
    descriptor keeps its nodes alive via the OCaml GC). *)

val version_backlog : t -> int
(** Total chained versions across all tables (what {!vacuum} would
    inspect). *)

val commit_test_hook : (has_marks:bool -> unit) ref
(** Fault-injection seam, called inside the timestamped-commit critical
    section (before the clock publish) with whether the committing
    transaction carries migration marks.  Installed by the crash-sweep
    harness; defaults to a no-op.  Not for production use. *)

val gc_test_hook : (unit -> unit) ref
(** Fault-injection seam, called per table inside {!vacuum}. *)

val replay : ?resolve:(string -> bool) -> Redo_log.t -> t
(** Rebuild a fresh database from an untruncated redo log: DDL entries
    re-run their SQL against the new catalog; committed writes apply
    directly to the heaps at their original TIDs (tombstone-padding the
    gaps aborted transactions burned).  Commit records are re-appended to
    the new database's log, so a second crash still recovers.  The result
    is bit-exact: every table has the same TID layout and cell values as
    the source database had at serialization time.

    Prepared 2PC records apply when a shard-local commit marker follows
    them in the log; a gid still unresolved at end-of-log goes to
    [resolve] (the cluster passes a lookup into the coordinator's
    decision log) and is presumed aborted by default. *)
