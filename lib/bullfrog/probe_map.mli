(** Transient probe map for lazy candidate scans on read-only inputs
    (DESIGN.md §4.2b).

    A bitmap-tracked input that is not also an output cannot be written
    while its migration runs ({!Migrate_exec.read_only_table}), so the
    set of its rows matching [col = v] can only shrink as granules
    migrate.  The map files, for one column, every TID of the granules
    still pending when it is built under each key any version in the
    slot's chain carries (so a pre-switch writer that aborts later
    cannot hide a row), and is stamped with the build-time TID count and
    catalog epoch.  A later candidate scan whose predicate pins that
    column with [=] or [IN] probes it instead of scanning the pending
    TID ranges: it drops TIDs whose granule has migrated, re-tests each
    newest row with the staged predicate, and scans the TIDs past the
    build count as before.  The answer is exactly the pending-range
    scan's.

    One slot per input, published atomically: concurrent lazy callers
    race safely (one builds, the others take the pending-range scan
    meanwhile).  The slot is emptied when the bitmap completes and goes
    with its runtime at finalize and rollback. *)

type t
(** An input's slot: empty, being built, or holding a published map. *)

val create : unit -> t

val clear : t -> unit
(** Drop the map (its bitmap completed). *)

val candidates :
  ?params:Bullfrog_db.Value.t array ->
  t ->
  Bullfrog_db.Txn.t ->
  Bullfrog_db.Heap.t ->
  Bitmap_tracker.t ->
  epoch:int ->
  Bullfrog_sql.Ast.expr option ->
  Bullfrog_db.Access.pred ->
  (int * Bullfrog_db.Heap.row) list option
(** [candidates slot txn heap bt ~epoch where compiled]: the candidate
    rows of [heap] matching [where] (compiled to [compiled], whose path
    must be [P_full]) among the TIDs the bitmap has not migrated, in TID
    order, newest versions read — or [None] when the map cannot answer
    and the caller must scan the pending ranges itself: no [col = v] /
    [col IN (...)] conjunct over literals or [params]-bound [$n]
    placeholders ([where] may be unbound; [params] binds it and
    [compiled] alike), the map pins another column,
    another caller is building it, or the bitmap is complete.  A missing
    map, or one built under another catalog epoch, is (re)built here,
    on the first eligible conjunct's column. *)
