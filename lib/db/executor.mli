(** Plan execution and statement execution.

    [run] materialises a plan bottom-up.  [exec_stmt] executes a single
    statement inside a transaction, enforcing constraints on writes; it is
    the layer {!Database} and BullFrog's migration machinery sit on. *)

type exec_ctx = {
  catalog : Catalog.t;
  redo : Redo_log.t;
}

val planner_ctx : ?params:Value.t array -> exec_ctx -> Txn.t -> Planner.ctx
(** Planner context whose subquery runner executes inside [txn] with the
    given parameter bindings. *)

type result =
  | Rows of string list * Value.t array list  (** column names, rows *)
  | Affected of int
  | Done of string  (** DDL acknowledgement, e.g. ["CREATE TABLE"] *)
  | Explained of string

val run : ?params:Value.t array -> Txn.t -> Plan.t -> Value.t array list
(** Materialise a plan; [params] supplies [$n] placeholder bindings
    (0-based slots) referenced by compiled [Expr.Param] nodes. *)

val iter_plan : ?params:Value.t array -> Txn.t -> Plan.t -> (Value.t array -> unit) -> unit
(** Streaming variant of {!run}: scans, filters, projections and the probe
    side of joins are pipelined, so the full result list is never
    materialised (blocking operators fall back to {!run}).  Counter totals
    and row order are identical to {!run}. *)

val run_select :
  ?params:Value.t array -> exec_ctx -> Txn.t -> Bullfrog_sql.Ast.select -> result

val exec_stmt :
  ?params:Value.t array -> exec_ctx -> Txn.t -> Bullfrog_sql.Ast.stmt -> result
(** Transaction-control statements are rejected here (the caller owns
    transaction boundaries).  Writes append undo entries to [txn] and are
    logged to the redo log by {!Database} at commit. *)

type write = Value.t array -> Txn.t -> result
(** A compiled INSERT, UPDATE or DELETE: [w params txn] executes it. *)

val compile_write :
  ?params:Value.t array -> exec_ctx -> Txn.t -> Bullfrog_sql.Ast.stmt -> write
(** Resolve an INSERT, UPDATE or DELETE once: the heap, the column
    positions and defaults, the compiled VALUES / SET expressions and the
    access path.  This is {!exec_stmt}'s only DML implementation.
    Uncorrelated subqueries in VALUES, SET or WHERE are evaluated at
    compile time, inside [txn] under [params], so such a closure serves
    one execution only; any other closure stays valid while the catalog
    epoch is unchanged.  The query of INSERT ... SELECT is planned and
    run at each execution.  Errors are raised at the same execution as
    by a compile-and-run: name resolution here, evaluation and
    constraint errors when the closure runs.
    @raise Invalid_argument on any other statement. *)

(** {2 Write paths shared with BullFrog}

    These enforce NOT NULL, type coercion, CHECK, UNIQUE (via unique
    indexes) and FOREIGN KEY constraints, record undo, and bump counters. *)

val insert_row :
  exec_ctx ->
  Txn.t ->
  Heap.t ->
  ?on_conflict_do_nothing:bool ->
  Value.t array ->
  int option
(** Returns the new TID, or [None] when a conflict was ignored. *)

val update_row : exec_ctx -> Txn.t -> Heap.t -> int -> Value.t array -> unit

val delete_row : exec_ctx -> Txn.t -> Heap.t -> int -> unit

val check_fk_for_row : exec_ctx -> Txn.t -> Heap.t -> Value.t array -> unit
(** FK presence checks only (used by BullFrog's constraint-scope tests). *)
