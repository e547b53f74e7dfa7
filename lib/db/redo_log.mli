(** Redo log of committed transactions.

    In-memory stand-in for PostgreSQL's WAL.  Each committed transaction
    appends one record listing its writes; writes performed on behalf of a
    migration carry the migration id and granule key, which is what
    {!Bullfrog_core.Recovery} scans to rebuild tracker state after a
    simulated crash (paper §3.5, footnote 5).

    DDL is logged as its SQL text (tagged with the catalog epoch it
    produced) so {!Database.replay} can rebuild a fresh catalog before
    re-applying the data writes.  The log serializes to a compact binary
    format; the round trip is bit-exact, floats included. *)

type write =
  | W_insert of string * int * Value.t array  (** table, tid, row *)
  | W_delete of string * int
  | W_update of string * int * Value.t array

type migration_mark = {
  mig_id : int;
  mig_table : string;  (** input table the granule belongs to *)
  granule : granule_key;
}

and granule_key = G_tid of int | G_group of Value.t array

type record = {
  txn_id : int;
  commit_ts : int;
      (** MVCC commit timestamp ({!Mvcc.commit}); replay re-stamps the
          rebuilt versions with it and folds it into the clock, so
          recovery produces a stamp-consistent newest-version heap.  0
          for synthetic checkpoint records and pre-MVCC (BFRL1) logs. *)
  writes : write list;
  marks : migration_mark list;
}

(** What the logical switch chose, so a restart re-installs the same
    runtime. *)
type mig_start = {
  ms_spec : string;  (** the spec, in {!Bullfrog_core.Migration.serialize} form *)
  ms_on_conflict : bool;  (** ON CONFLICT mode rather than tracked *)
  ms_page_size : int;  (** bitmap granule size *)
  ms_nn_join_key : bool;  (** n:n granules are join-key classes, not pairs *)
  ms_fk_class : bool;  (** foreign-key joins are classified per class *)
}

type mig_rollback = {
  mr_rb_id : int;  (** the backward migration's id (its marks carry it) *)
  mr_backward : string;  (** the derived backward spec, serialized *)
  mr_ceilings : (string * int) list;
      (** per old table, the TID below which stale rows are purged; rows
          the backward migration reconstructs land above it *)
}

type entry =
  | E_ddl of { d_epoch : int; d_sql : string }
      (** catalog change, logged at execution time with the epoch it
          produced *)
  | E_commit of record
  | E_prepare of { p_gid : string; p_record : record }
      (** two-phase commit, participant side: the transaction's writes are
          durable under the global transaction id [p_gid] but apply only if
          a commit decision for [p_gid] follows (shard-local [E_decision]
          marker, or the coordinator's decision log at recovery).  The
          record's [commit_ts] is 0 — the timestamp is assigned at
          decision time. *)
  | E_decision of { dc_gid : string; dc_commit : bool; dc_ts : int }
      (** two-phase commit outcome.  In a coordinator's decision log this
          is the commit/abort decision itself (logged before any
          participant applies, [dc_ts = 0]); in a participant's log it is
          the resolution marker confirming the prepared record was applied
          at [dc_ts] (or rolled back). *)
  | E_migration of { mg_id : int; mg_step : lifecycle }
      (** a lifecycle step of the migration this node runs under the
          (forward) id [mg_id]; {!Database.replay} re-appends it and never
          executes it *)

(** A migration's lifecycle, logged by the node that runs it (paper
    §3.5): at a restart, the records of the newest migration say whether
    one was in flight and in which phase. *)
and lifecycle =
  | M_start of mig_start  (** the logical switch happened *)
  | M_rollback of mig_rollback  (** the migration is rolling back *)
  | M_finalize of string list
      (** the tables about to be dropped, logged before the first drop *)
  | M_end  (** the migration is closed *)

type t

val create : unit -> t

val append : t -> record -> unit

val append_ddl : t -> epoch:int -> string -> unit

val append_prepare : t -> gid:string -> record -> unit

val append_decision : t -> gid:string -> commit:bool -> ts:int -> unit

val append_lifecycle : t -> mig_id:int -> lifecycle -> unit

val lifecycle : t -> (int * lifecycle list) option
(** The newest migration's id and records in log order: the last
    [M_start] and every later record with its id.  The migration is open
    unless the list ends with [M_end]. *)

val max_mig_id : t -> int
(** The largest migration id any mark or lifecycle record in the log
    names (rollback ids included); 0 when there is none.  A restarted
    node numbers its next migration past it, so old marks never match a
    new migration. *)

val decisions : t -> (string * bool * int) list
(** Every [E_decision] entry, in append order: (gid, commit, ts). *)

val length : t -> int
(** Number of commit records in the log (DDL entries not counted). *)

val entry_count : t -> int
(** Total entries, DDL included. *)

val truncated : t -> int
(** Cumulative entries dropped by {!checkpoint}. *)

val iter : t -> (record -> unit) -> unit
(** Commit records, in append order.  Iterates a latched snapshot, so
    concurrent appends neither race nor deadlock the callback. *)

val records : t -> record list

val entries : t -> entry list
(** Every entry (DDL and commits interleaved), in append order. *)

val checkpoint : t -> int
(** Truncate the log, keeping recovery correct: the heaps are the
    checkpoint image, so replay history is dropped, but the lifecycle
    records of a migration with no [M_end] are kept, and outstanding
    migration marks are folded into one synthetic record (txn_id 0) after
    them — a restart still finds the open migration and tracker rebuild
    still sees every committed granule.  Returns the number of entries
    dropped.  A checkpointed log no longer supports
    {!Database.replay} from empty. *)

val serialize : t -> string
(** Snapshot the log into the binary format (magic ["BFRL4\n"]; v2 added
    the per-transaction commit timestamp, v3 the two-phase-commit
    entries, v4 the migration lifecycle records).  Floats are stored as
    IEEE-754 bit patterns: [deserialize (serialize t)] round-trips
    bit-exactly. *)

val deserialize : string -> t
(** Reads v4 as well as legacy v3 (["BFRL3\n"]), v2 (["BFRL2\n"]) and v1
    (["BFRL1\n"], no commit timestamps — decoded as [commit_ts = 0])
    buffers.
    @raise Failure on a corrupt or truncated buffer. *)

val write_file : t -> string -> unit

val read_file : string -> t
(** @raise Failure on corrupt contents; [Sys_error] on I/O failure. *)
