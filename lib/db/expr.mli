(** Compiled expressions.

    The planner resolves {!Bullfrog_sql.Ast.expr} column references into
    positions in an operator's output row, producing these closed
    expressions which the executor evaluates without name lookups.
    Aggregate references are resolved to slots of the enclosing
    [Aggregate] operator's output.

    Expressions are evaluated by the closure compiler ({!compile_env}),
    which walks the tree once and returns a closure performing no
    constructor dispatch per row; physical plans hold the compiled form
    ({!cexpr}).  Semantics are three-valued: comparisons and logical
    connectives involving [Null] yield [Null], and a predicate treats a
    [Null] result as false.  The test suite keeps a tree interpreter as
    the reference the compiled and staged forms must agree with exactly,
    on values and on raised {!Eval_error}s. *)

type t =
  | Const of Value.t
  | Param of int  (** positional parameter, 0-based slot in the params array *)
  | Field of int  (** index into the input row *)
  | Binop of Bullfrog_sql.Ast.binop * t * t
  | Unop of Bullfrog_sql.Ast.unop * t
  | Fn of string * t list
  | Case of (t * t) list * t option
  | In_list of t * t list
  | Between of t * t * t
  | Is_null of t * bool

exception Eval_error of string

val compile_env : t -> Value.t array -> Value.t array -> Value.t
(** Closure-compile: one tree walk, then [fun params row -> ...] with no
    per-row dispatch.  [params] supplies [Param] slots.  Never raises
    itself; the closure raises {!Eval_error} on type errors (adding a
    string to an int, unknown function, unbound parameter, ...). *)

type bound = { holds : Value.t array -> bool } [@@unboxed]
(** A predicate with its parameters bound: [holds row] is the row test
    ([Null] and [Bool false] → [false]). *)

val always : bound
(** Keeps every row; {!bind_filter} of [None].  {!Heap.scan} skips the
    call for it. *)

type cexpr = {
  ce_expr : t;  (** source tree, for EXPLAIN / plan description *)
  ce_eval : Value.t array -> Value.t array -> Value.t;
  ce_pred : Value.t array -> bound;
      (** Staged predicate: bind the parameters once per operator
          execution, then test rows with [holds].  Binding evaluates the
          row-independent parts (constants, parameters, and comparisons,
          [IN], [BETWEEN], [AND]/[OR]/[NOT] over them) once, and
          specialises [Field op value] / [Field IN (...)] / [Field BETWEEN
          ...] / [Field IS [NOT] NULL] leaves into direct row tests, with
          an inline path for [Int] against [Int] and the operator
          resolved at binding; a WHERE made of such tests (under
          [AND]/[OR]/[NOT]) binds [holds] to the test itself.
          Binding never raises: an error from a row-independent part is
          raised by [holds], for each row that evaluates it — exactly the
          rows, and the message, of evaluating the whole predicate. *)
}
(** A compiled expression as held by physical plan nodes. *)

val prepare : t -> cexpr

val bind_filter : cexpr option -> Value.t array -> bound
(** [ce_pred] of an optional filter; [None] keeps every row. *)

val is_const : t -> bool

val const_fold : t -> t
(** Evaluate subtrees with no [Field]s/[Param]s down to constants. *)

val fields : t -> int list
(** Field indices referenced, ascending, deduplicated. *)

val shift_fields : int -> t -> t
(** [shift_fields k e] adds [k] to every field index (used when an
    operator's input row is a concatenation). *)

val to_string : t -> string
