(** Heap tables: append-only row slots addressed by dense TIDs, with a
    multi-version descriptor per slot.

    A TID is the row's position in the slot array; deletions leave a
    tombstone so TIDs are stable for the life of the table — the property
    BullFrog's bitmap tracker depends on (it maps TID → 2 bits exactly as
    the PostgreSQL prototype maps ctids).

    The heap maintains the table's indexes on every mutation.  Mutations
    are protected by a per-table latch; point reads are latch-free (a row
    slot holds an immutable array, so replacing it is a single pointer
    store — no torn reads under the OCaml memory model).

    {b Versioning} (DESIGN.md §4.2f).  Parallel to [slots], each TID has
    an immutable version descriptor carrying the row, its commit begin
    timestamp, the writing transaction (while uncommitted), and the chain
    of older committed versions.  A version's end timestamp is implicit:
    it is the begin timestamp of the next-newer version (a tombstone row
    marks deletion).  Snapshot readers load one descriptor per TID — no
    latch, no lock — and resolve visibility against their snapshot
    timestamp from {!Mvcc.now}.  The latest-version API ([get],
    [iter_live], …) is unchanged and continues to serve writers, system
    internals, and the migration engine. *)

type row = Value.t array

type version = private {
  v_row : row;
  v_begin : int;
  v_writer : int;
  v_older : version option;
}

type t = {
  tbl_id : int;
  mutable name : string;
  mutable schema : Schema.t;
  latch : Mutex.t;
  slots : row Vec.t;
  vers : version Vec.t;
  mutable indexes : Index.t list;
  mutable live : int;
  mutable chained : int;
  pending_dead : (int, row) Hashtbl.t;
      (** deleted rows whose index entries are kept until GC proves no
          pinned snapshot can reach them (deferred de-indexing) *)
}

val create : tbl_id:int -> name:string -> Schema.t -> t

val insert : ?writer:int -> t -> row -> int
(** Appends and indexes; returns the new TID.  With [writer] > 0 the new
    version is uncommitted (invisible to snapshots) until {!stamp}ed;
    the default [writer = 0] commits it immediately at the current clock.
    @raise Db_error.Constraint_violation on unique-index conflicts (in
    which case nothing is inserted). *)

val insert_at : ?ts:int -> t -> int -> row -> unit
(** Redo-replay insert at an exact TID, padding any gap below it with
    tombstones (aborted transactions burn TIDs; replay must reproduce the
    original slot layout because bitmap granules are TID-derived).  [ts]
    is the original commit timestamp from the log; recovery passes it so
    the rebuilt heap is stamp-consistent with the restored clock.
    @raise Invalid_argument when the slot is already occupied. *)

val reserve : t -> int -> unit
(** Capacity hint: pre-size the slot array and every index's hash store
    for [n] further rows (bulk loads skip incremental growth/rehash). *)

val get : t -> int -> row option
(** Latest version; [None] for tombstones; out-of-range TIDs raise
    [Invalid_argument]. *)

val get_exn : t -> int -> row

val update : ?writer:int -> ?ts:int -> t -> int -> row -> row
(** Replaces the row, maintaining indexes; returns the old image.  The
    old version is chained for snapshot readers; [writer]/[ts] as in
    {!insert}/{!insert_at}.
    @raise Db_error.Constraint_violation on unique conflicts (row is left
    unchanged).  @raise Invalid_argument on a tombstone. *)

val delete : ?writer:int -> ?ts:int -> t -> int -> row
(** Tombstones the slot; returns the old image.  Snapshot readers older
    than the delete still see the chained version — including through
    index probes: de-indexing is {e deferred} (the entries survive in
    [pending_dead]) until GC proves the row unreachable from every
    pinned snapshot.  Unique indexes treat the dead entries as
    transparent, so re-inserting the key succeeds immediately. *)

val restore : t -> int -> row -> unit
(** Re-materialise a deleted row at its original TID as a new committed
    version (direct-API undo; transactions abort via {!abort_delete}). *)

val uninsert : t -> int -> unit
(** Remove a freshly inserted row (tombstone + de-index), popping its
    uncommitted version if present. *)

val abort_insert : t -> int -> unit
(** Txn rollback of an insert — alias of {!uninsert}. *)

val abort_delete : t -> int -> row -> unit
(** Txn rollback of a delete: restore the slot and pop the uncommitted
    tombstone version so the committed pre-image is current again —
    no new version is created for an aborted write. *)

val abort_update : t -> int -> row -> unit
(** Txn rollback of an update: restore the old image and pop the
    uncommitted version. *)

val stamp : t -> int -> writer:int -> ts:int -> unit
(** Commit: mark TID's head version — if still owned by [writer] — as
    committed at [ts].  Called via {!Mvcc.commit} with [ts] above the
    published clock, so stamped versions become visible only when the
    clock is published. *)

val snapshot_get : t -> ts:int -> reader:int -> int -> row option
(** Latch-free point read at snapshot [ts]: the newest version with a
    committed begin timestamp ≤ [ts], or [reader]'s own uncommitted
    write ([reader = 0] for none).  [None] if the visible version is a
    tombstone or no version is visible. *)

val latest : int
(** The reader id that sees every slot's newest version, committed or
    not ([ts] is then ignored).  SQL reads never use it; BullFrog's
    interception scans do (trigger semantics). *)

val scan :
  ?lo:int ->
  ?hi:int ->
  ?filter:Expr.bound ->
  ?count:(int -> int -> unit) ->
  t ->
  ts:int ->
  reader:int ->
  (int -> row -> unit) ->
  unit
(** Latch-free scan, in TID order, of the rows visible to [ts]/[reader]
    (as {!snapshot_get}) among TIDs [lo] to [hi - 1] (default: the whole
    table) that [filter] keeps (default: every row); [f] sees each kept
    row.  One loop does the visibility test, the row test and the
    counting: [count scanned kept] is called once, when the scan ends or
    when [filter] or [f] raises, with the number of visible rows reached
    (a row whose test raised included) and of rows kept (a row [f]
    raised on included).  The head version is tested inline and nothing
    is allocated per row; only a head the reader cannot see walks its
    chain (counted as [mvcc.version_walks]).  Every full scan in the
    engine runs through this one loop. *)

val iter_versions : t -> int -> (row -> unit) -> unit
(** Every row any version of slot [tid] carries — the newest (committed
    or not) first, then each older committed one — skipping deletions.
    Latch-free, like {!scan}.  A row an in-flight writer replaced is
    still reached, so a caller indexing these rows covers the slot
    whether that writer commits or aborts. *)

val rewrite_in_place : t -> int -> row -> unit
(** Column-DDL rewrite: replace the slot's row in its current version
    without creating a new one, and truncate the slot's older chain (the
    rows did not logically change, and stale-arity versions must never
    surface — column DDL cuts version history exactly as it bumps the
    catalog epoch).  Indexes are not touched. *)

val gc : t -> horizon:int -> int
(** Reclaim every chained version superseded at or below [horizon] (from
    {!Mvcc.horizon}): per slot, versions older than the newest committed
    version with begin ≤ horizon are dropped.  Returns the number of
    versions reclaimed.  O(1) when the table has no chained versions. *)

val gc_slice : t -> horizon:int -> start:int -> budget:int -> int * int option
(** Incremental {!gc}: sweep TIDs from [start] upward, stopping once at
    least [budget] versions have been reclaimed.  Returns the versions
    reclaimed and the TID to resume from ([None] when the pass reached the
    end of the table).  Per-slot trimming is identical to {!gc}, so slices
    and full sweeps compose freely. *)

val chained_versions : t -> int
(** Number of versions currently held in older chains (GC backlog). *)

val pending_dead_count : t -> int
(** Deleted rows whose index entries await GC (deferred de-indexing). *)

val flush_pending : t -> unit
(** Force every deferred de-index through now.  Only for schema rewrites
    that rebuild the index set (a pending row with the old layout must
    not be de-indexed against new-layout indexes later). *)

val tid_count : t -> int
(** Number of slots ever allocated (live + tombstones) — the bitmap
    tracker sizes itself from this. *)

val live_count : t -> int

val iter_live : t -> (int -> row -> unit) -> unit
(** [scan ~reader:latest]: every live slot, uncommitted writes included. *)

val fold_live : t -> init:'a -> f:('a -> int -> row -> 'a) -> 'a

val add_index : t -> Index.t -> unit
(** Registers and backfills an index.
    @raise Db_error.Constraint_violation if a unique index finds
    duplicates (index is not registered). *)

val drop_index : t -> string -> bool

val indexes : t -> Index.t list
(** Latched snapshot of the table's index list.  Use this (not the
    [indexes] field) outside sections that already hold the latch. *)

val find_index : t -> string -> Index.t option

val unique_index_on : t -> int array -> Index.t option
(** A unique index whose key columns are exactly the given columns (order
    insensitive). *)

val index_covering : t -> int array -> Index.t option
(** Any index whose key column set equals the given set. *)
