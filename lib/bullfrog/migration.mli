(** Migration specifications (paper §2.1).

    A migration is one or more {e statements}; each statement populates one
    or more output tables from a SELECT over the old schema.  A table split
    is a single statement with two outputs (so that migrating a customer
    granule produces both halves atomically — the 1:n semantics of §4.1);
    independent changes are separate statements (each input table then gets
    one tracker per statement, §3.1 last paragraph).

    An output may carry an explicit CREATE TABLE (to declare the integrity
    constraints that must hold on the new schema, §2.3); otherwise its
    schema is inferred from the population query. *)

type output = {
  out_name : string;
  out_create : Bullfrog_sql.Ast.stmt option;
      (** explicit [CREATE TABLE] with constraints; [None] = infer *)
  out_population : Bullfrog_sql.Ast.select;  (** over the old schema *)
  out_indexes : Bullfrog_sql.Ast.stmt list;
      (** secondary [CREATE INDEX] statements applied to the (empty) output *)
}

type statement = {
  stmt_name : string;
  outputs : output list;
}

type t = {
  name : string;
  statements : statement list;
  drop_old : string list;
      (** old tables the new schema no longer exposes; requests naming them
          are rejected after the logical switch (the "big flip") *)
  allow_shared_outputs : bool;
      (** several statements may populate the same output table — the
          shape of a derived rollback spec, where each branch of a row
          split repopulates the one old table.  Off by default. *)
}

val make :
  name:string ->
  ?drop_old:string list ->
  ?allow_shared_outputs:bool ->
  statement list ->
  t
(** Validates the spec shape: at least one statement, and no output
    table populated twice (within a statement, or — unless
    [allow_shared_outputs] — across statements).
    @raise Bullfrog_db.Db_error.Sql_error on violation. *)

val output_ddl : output -> string
(** Human-readable DDL of the output (for logs and the CLI). *)

val statement_of_sql :
  ?name:string -> ?extra_ddl:string list -> string -> statement
(** Build a single-output statement from a
    [CREATE TABLE x AS (SELECT ...)] string.  [extra_ddl] may add
    [CREATE INDEX] / constraint statements.  @raise Db_error.Sql_error on
    other statement forms. *)

val split_statement :
  name:string ->
  input:string ->
  outputs:(string * string list) list ->
  key:string list ->
  unit ->
  statement
(** Convenience for table splits: [input] is the old table, each output
    gets the [key] columns plus its own column list, populated by
    [SELECT key, cols FROM input].  The key columns form each output's
    primary key. *)

val input_tables_of_select :
  Bullfrog_db.Catalog.t -> Bullfrog_sql.Ast.select -> (string * string) list
(** (alias, base-table) pairs read by a population query (views expanded
    against the given catalog). *)

val serialize : t -> string
(** Single-string wire form (components printed with
    {!Bullfrog_sql.Pretty}); a node's Start and Rollback lifecycle
    records hold this form so a restart can re-install the spec. *)

val deserialize : string -> t
(** Inverse of {!serialize} (components re-parsed).
    @raise Bullfrog_db.Db_error.Sql_error on malformed input. *)
