(** Decision procedure over the SQL predicate language.

    Abstracts each column by the meet of three domains — an interval
    (ordered bounds), an equality domain (finite allowed/excluded value
    sets), and nullability — and decides properties of predicates by
    bounded DNF over those abstractions.  "A row satisfies [p]" means
    [p] evaluates to TRUE under the engine's three-valued semantics
    (lib/db/expr.ml); NULL is not TRUE.

    Every entry point is {e conservative}: outside the interpreted
    fragment (parameters the env does not supply, subqueries,
    arithmetic over columns, DNF blowup) [satisfiable] errs towards [true] and the provers towards
    [false].  The QCheck suite in test/test_analysis.ml validates each
    verdict against brute-force row evaluation through the engine. *)

type env = {
  not_null : string -> bool;
  param : int -> Bullfrog_sql.Ast.expr option;
}
(** Facts the analysis may assume: [not_null c] means column [c]
    (lower-cased, unqualified) can never hold NULL; [param i] is the
    literal a call supplies for [$i] ([None]: the parameter stays
    opaque). *)

val top_env : env
(** No assumptions: every column may be NULL, every parameter is
    opaque. *)

val satisfiable : ?env:env -> Bullfrog_sql.Ast.expr -> bool
(** [false] only when provably no row satisfies the predicate. *)

val implies : ?env:env -> Bullfrog_sql.Ast.expr -> Bullfrog_sql.Ast.expr -> bool
(** [true] only when provably every row satisfying [p] satisfies [q]. *)

val disjoint : ?env:env -> Bullfrog_sql.Ast.expr -> Bullfrog_sql.Ast.expr -> bool
(** [true] only when provably no row satisfies both predicates. *)

val covers : ?env:env -> Bullfrog_sql.Ast.expr list -> bool
(** [true] only when provably every row satisfies at least one of the
    predicates ([covers [] = false]). *)

val pinned_values :
  ?env:env -> Bullfrog_sql.Ast.expr -> string -> Bullfrog_sql.Ast.expr list option
(** [pinned_values e col] is the finite set of values (as literal
    expressions, deduplicated) column [col] can take in a row satisfying
    [e], when that set is provable: [Some []] when no row satisfies [e]
    at all, [None] when the set is not provably finite (the caller must
    assume any value).  Conservative like every other entry point. *)

val normalize : Bullfrog_sql.Ast.expr -> Bullfrog_sql.Ast.expr
(** Structural simplification preserving three-valued semantics:
    flattening of AND/OR chains, idempotence, constant folding, double
    negation, De Morgan, and negation pushdown through
    NULL-propagating comparisons. *)

val unqualify : Bullfrog_sql.Ast.expr -> Bullfrog_sql.Ast.expr
(** Drop table qualifiers from column references (subqueries are left
    untouched), so single-table predicates agree on column keys. *)
