(** Runtime values.

    All engine rows are arrays of these.  Dates are stored as days since
    1970-01-01 (civil), timestamps as seconds since the epoch.  DECIMAL
    columns are stored as floats — adequate for reproducing the paper's
    TPC-C-derived workloads. *)

type t =
  | Null
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool
  | Date of int
  | Timestamp of float

val compare : t -> t -> int
(** Total order used by indexes and sorting: [Null] sorts first; numeric
    types compare by value across [Int]/[Float]. *)

val equal : t -> t -> bool

val identical : t -> t -> bool
(** Same constructor and bit-identical payload: [Int 2] and [Float 2.]
    are {!equal} but not [identical].  Decides whether an update leaves
    an index key exactly as stored. *)

val hash : t -> int

val hash_key : t array -> int
(** Hash of a composite key, matching {!equal} on components. *)

val is_null : t -> bool

val to_string : t -> string
(** Display form ([NULL], bare numbers, unquoted strings). *)

val to_sql : t -> string
(** SQL literal form (strings quoted and escaped). *)

val type_name : t -> string

val of_ast_literal : Bullfrog_sql.Ast.expr -> t option
(** [Some v] when the AST expression is a literal. *)

val to_ast_literal : t -> Bullfrog_sql.Ast.expr

val coerce : Bullfrog_sql.Ast.sql_type -> t -> (t, string) result
(** Coerce a value into a column's declared type (int→float widening,
    char(n) padding-free truncation checks, string→date parsing).  [Null]
    always passes; NOT NULL is a constraint, not a coercion. *)

(** {2 Civil-calendar helpers} *)

val date_of_ymd : int -> int -> int -> t
(** [date_of_ymd y m d] builds a [Date]. *)

val ymd_of_days : int -> int * int * int
(** Inverse of the days-since-epoch encoding. *)

val extract : string -> t -> t
(** [extract field v] implements [EXTRACT(field FROM v)] for fields
    [year], [month], [day], [dow], [epoch] over [Date]/[Timestamp].
    Returns [Null] on [Null] input.  @raise Failure on other types. *)
