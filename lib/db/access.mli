(** Single-table access paths with index selection.

    The shared row-level entry point for the executor's DML (UPDATE /
    DELETE need TIDs) and for BullFrog's migration scans (the migration
    loop iterates "potentially relevant" old-schema rows by TID, paper
    §3.2).  Path choice, best first:

    + an index (hash or ordered) whose every key column is pinned to a
      constant by an equality conjunct;
    + an ordered index with a fully-pinned key {e prefix}, optionally
      bounded on the next key column by range conjuncts;
    + a sequential scan.

    All row touches are charged to the transaction's counters. *)

type path =
  | P_full
  | P_eq of Index.t * Expr.cexpr array
  | P_range of Index.t * Expr.cexpr array * Expr.cexpr option * Expr.cexpr option
      (** index, pinned prefix, inclusive lower bound and exclusive upper
          bound on the next key column.  Key expressions are constants or
          positional parameters, compiled once by {!compile_pred} and
          evaluated at execution time, so a compiled path is reusable
          across parameter bindings. *)

type pred = {
  path : path;
  residual : Expr.cexpr option;  (** remaining filter over the row *)
}

val value_expr_of_ast : Bullfrog_sql.Ast.expr -> Expr.t option
(** A literal ([Expr.Const]) or positional parameter ([Expr.Param])
    usable as an index key or range bound; [None] otherwise. *)

val compile_pred : Heap.t -> Bullfrog_sql.Ast.expr option -> pred
(** Compile a WHERE over a single table, choosing an access path.
    Qualified column references must refer to the table itself. *)

val select_tids :
  ?params:Value.t array ->
  ?latest:bool ->
  ?ranges:(int -> (int * int) option) ->
  Txn.t ->
  Heap.t ->
  pred ->
  (int * Heap.row) list
(** Matching rows in TID order.  Default: rows visible at the
    transaction's snapshot (plus its own writes).  [~latest:true] reads
    every slot's newest version instead — every transaction's uncommitted
    writes included — for BullFrog's mid-transaction interception scans
    (trigger semantics); SQL execution never passes it.

    [ranges] narrows a sequential scan ([P_full]): [ranges tid] is the
    next TID range [(lo, hi)], [tid <= lo < hi], to visit ([hi]
    exclusive), or [None] when no TID at or after [tid] is wanted.  The
    scan visits only those ranges.  Index paths ignore it: their TIDs
    come from the index.  The residual is staged once per call. *)

val select_listed :
  ?params:Value.t array ->
  ?latest:bool ->
  Txn.t ->
  Heap.t ->
  pred ->
  int list ->
  (int * Heap.row) list
(** [select_tids] over the given TIDs instead of [pred]'s path: each
    live row among them (as [latest] picks) that passes the residual,
    in TID order, counted like an index fetch.  For callers that keep
    their own TID lists, such as the lazy candidate scan's probe map. *)

val scan_pred :
  ?params:Value.t array ->
  ?latest:bool ->
  ?ranges:(int -> (int * int) option) ->
  Txn.t ->
  Heap.t ->
  Bullfrog_sql.Ast.expr option ->
  (int * Heap.row) list
(** [compile_pred] + [select_tids]. *)

val count_matching : Txn.t -> Heap.t -> Bullfrog_sql.Ast.expr option -> int
