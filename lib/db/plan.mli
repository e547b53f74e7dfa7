(** Physical query plans.

    Operators produce flat rows ([Value.t array]); joins concatenate the
    outer row with the inner row, and every compiled expression in a node
    is resolved against that node's input layout.  [describe] renders the
    plan the way the paper uses PostgreSQL's EXPLAIN output — it shows the
    per-table filters after view expansion and pushdown, which is exactly
    what BullFrog reads off the plan to scope a lazy migration. *)

type col_desc = { cd_qualifier : string option; cd_name : string }

type agg_spec = {
  agg_fn : Bullfrog_sql.Ast.agg_fn;
  agg_distinct : bool;
  agg_arg : Expr.cexpr option;  (** [None] is count-star *)
}

(** Nodes hold compiled expressions ({!Expr.cexpr}): closures are built
    once at plan time and reused for every row — and, via the statement
    cache, for every execution of the statement.  Index keys and range
    bounds are constants or parameters evaluated per execution. *)
type t =
  | Seq_scan of { table : Heap.t; filter : Expr.cexpr option }
  | Index_scan of {
      table : Heap.t;
      index : Index.t;
      key : Expr.cexpr array;  (** const/param expressions, one per key column *)
      filter : Expr.cexpr option;
    }
  | Index_range of {
      table : Heap.t;
      index : Index.t;  (** ordered *)
      prefix : Expr.cexpr array;
      lo : Expr.cexpr option;  (** inclusive bound on the next key column *)
      hi : Expr.cexpr option;  (** exclusive bound on the next key column *)
      filter : Expr.cexpr option;
    }
  | Index_min of {
      table : Heap.t;
      index : Index.t;  (** ordered; key = pinned prefix + the target column *)
      prefix : Expr.cexpr array;
      asc : bool;  (** true = MIN, false = MAX *)
    }  (** single-row output: the extremal value of the target column *)
  | Nested_loop of { outer : t; inner : t; cond : Expr.cexpr option }
  | Index_nl_join of {
      outer : t;
      inner_table : Heap.t;
      index : Index.t;
      outer_keys : Expr.cexpr array;  (** over the outer row, in index-column order *)
      inner_filter : Expr.cexpr option;  (** over the inner row *)
      cond : Expr.cexpr option;  (** over the concatenated row *)
    }  (** per outer row, probe the inner table's index — the plan shape a
          small driving set joined against a large indexed table needs *)
  | Hash_join of {
      outer : t;
      inner : t;
      outer_keys : Expr.cexpr array;  (** over the outer row *)
      inner_keys : Expr.cexpr array;  (** over the inner row *)
      cond : Expr.cexpr option;  (** residual predicate over the concatenated row *)
    }
  | Filter of t * Expr.cexpr
  | Project of t * Expr.cexpr array
  | Aggregate of { input : t; group : Expr.cexpr array; aggs : agg_spec array }
  | Sort of t * (Expr.cexpr * Bullfrog_sql.Ast.order_dir) array
  | Distinct of t
  | Limit of t * int
  | Values of Value.t array list  (** FROM-less SELECT *)
  | Empty of { empty_width : int; reason : string }
      (** plan lint proved the predicate unsatisfiable: produces no rows
          and touches no storage *)

val rebind : (Heap.t -> Heap.t) -> t -> t
(** The same plan reading [f h] wherever it reads table [h].  A plan
    built once over placeholder heaps runs over per-execution heaps of
    the same schema: the planner reads schemas and indexes, never row
    counts, so the substituted heaps must carry the placeholders' indexes
    (none, for a placeholder made with [Heap.create]). *)

val describe : ?annot:(t -> string) -> t -> string
(** Multi-line, indented, EXPLAIN-style.  [annot] is appended to each
    node's header line; EXPLAIN ANALYZE uses it to attach actual row
    counts and timings (default: no annotation). *)

val width : t -> int
(** Number of columns in the node's output rows. *)
