(** Table schemas and resolved constraints. *)

type column = {
  name : string;
  ty : Bullfrog_sql.Ast.sql_type;
  not_null : bool;
  default : Value.t option;
}

type foreign_key = {
  fk_name : string;
  fk_cols : int array;  (** local column indices *)
  fk_ref_table : string;
  fk_ref_cols : string array;  (** referenced column names *)
}

type constr =
  | Check of string * Bullfrog_sql.Ast.expr * (Value.t array -> Value.t)
      (** name, source expression, and the expression compiled once over
          this table's row ({!compile_check}) *)
  | Unique of string * int array  (** backed by a unique index of the same name *)
  | Foreign_key of foreign_key

type t = {
  columns : column array;
  mutable constraints : constr list;
  mutable primary_key : int array option;
}

val make : column array -> t

val col_index : t -> string -> int option
(** Case-insensitive lookup. *)

val col_index_exn : t -> string -> int
(** @raise Db_error.Sql_error when the column does not exist. *)

val col_names : t -> string array

val arity : t -> int

val of_ast :
  string ->
  Bullfrog_sql.Ast.column_def list ->
  Bullfrog_sql.Ast.table_constraint list ->
  t
(** Build a schema from parsed DDL; inline PRIMARY KEY / UNIQUE / CHECK
    column attributes are folded into table constraints.  The table name is
    used to synthesise constraint names. *)

val compile_expr : t -> Bullfrog_sql.Ast.expr -> Expr.t
(** Compile an expression whose column references are all columns of this
    table (qualified references are accepted and the qualifier ignored).
    @raise Db_error.Sql_error on unknown columns, aggregates or
    subqueries. *)

val compile_check : t -> Bullfrog_sql.Ast.expr -> Value.t array -> Value.t
(** A CHECK expression compiled against this table's columns
    ({!compile_expr}, then {!Expr.compile_env}).
    @raise Db_error.Sql_error as {!compile_expr} does. *)

val to_create_sql : string -> t -> string
(** [CREATE TABLE name (col type, ...)] — names and types only, for the
    redo log's DDL entries.  Constraints, defaults and indexes are
    deliberately omitted: replay applies already-committed rows straight
    to the heap, and indexes have their own logged DDL. *)

val constraint_name : constr -> string
