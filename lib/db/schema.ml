open Bullfrog_sql

type column = {
  name : string;
  ty : Ast.sql_type;
  not_null : bool;
  default : Value.t option;
}

type foreign_key = {
  fk_name : string;
  fk_cols : int array;
  fk_ref_table : string;
  fk_ref_cols : string array;
}

type constr =
  | Check of string * Ast.expr * (Value.t array -> Value.t)
  | Unique of string * int array
  | Foreign_key of foreign_key

type t = {
  columns : column array;
  mutable constraints : constr list;
  mutable primary_key : int array option;
}

let make columns = { columns; constraints = []; primary_key = None }

let col_index t name =
  let name = String.lowercase_ascii name in
  let n = Array.length t.columns in
  let rec loop i =
    if i >= n then None
    else if String.lowercase_ascii t.columns.(i).name = name then Some i
    else loop (i + 1)
  in
  loop 0

let col_index_exn t name =
  match col_index t name with
  | Some i -> i
  | None -> Db_error.sql_error "column %S does not exist" name

let col_names t = Array.map (fun c -> c.name) t.columns

let arity t = Array.length t.columns

let rec compile_expr t (e : Ast.expr) : Expr.t =
  let sub = compile_expr t in
  match e with
  | Ast.Null_lit -> Expr.Const Value.Null
  | Ast.Int_lit i -> Expr.Const (Value.Int i)
  | Ast.Float_lit f -> Expr.Const (Value.Float f)
  | Ast.Str_lit s -> Expr.Const (Value.Str s)
  | Ast.Bool_lit b -> Expr.Const (Value.Bool b)
  | Ast.Param i -> Expr.Param (i - 1)
  | Ast.Col (_, c) -> Expr.Field (col_index_exn t c)
  | Ast.Binop (op, a, b) -> Expr.Binop (op, sub a, sub b)
  | Ast.Unop (op, a) -> Expr.Unop (op, sub a)
  | Ast.Fn (f, args) -> Expr.Fn (f, List.map sub args)
  | Ast.Agg _ -> Db_error.sql_error "aggregates are not allowed in this context"
  | Ast.Case (branches, els) ->
      Expr.Case (List.map (fun (c, v) -> (sub c, sub v)) branches, Option.map sub els)
  | Ast.In_list (a, items) -> Expr.In_list (sub a, List.map sub items)
  | Ast.Between (a, b, c) -> Expr.Between (sub a, sub b, sub c)
  | Ast.Is_null (a, n) -> Expr.Is_null (sub a, n)
  | Ast.Exists _ | Ast.Scalar_subquery _ ->
      Db_error.sql_error "subqueries are not allowed in this context"

let compile_check t e =
  let f = Expr.compile_env (compile_expr t e) in
  fun row -> f [||] row

(* DDL text for the redo log: column names and types only.  Replay applies
   committed rows directly to the heap (no constraint re-checking), so
   constraints and defaults need not survive the round trip; indexes are
   logged as their own CREATE INDEX entries. *)
let to_create_sql name t =
  let cols =
    Array.to_list
      (Array.map
         (fun c -> Printf.sprintf "%s %s" c.name (Pretty.type_to_string c.ty))
         t.columns)
  in
  Printf.sprintf "CREATE TABLE %s (%s)" name (String.concat ", " cols)

let constraint_name = function
  | Check (n, _, _) -> n
  | Unique (n, _) -> n
  | Foreign_key fk -> fk.fk_name

let of_ast table_name (col_defs : Ast.column_def list)
    (table_constraints : Ast.table_constraint list) =
  let columns =
    Array.of_list
      (List.map
         (fun (c : Ast.column_def) ->
           let default =
             match c.Ast.col_default with
             | None -> None
             | Some e -> (
                 match Value.of_ast_literal e with
                 | Some v -> Some v
                 | None -> Db_error.sql_error "DEFAULT must be a literal")
           in
           { name = c.Ast.col_name; ty = c.Ast.col_type; not_null = c.Ast.col_not_null; default })
         col_defs)
  in
  let t = make columns in
  let counter = ref 0 in
  let fresh kind =
    incr counter;
    Printf.sprintf "%s_%s_%d" table_name kind !counter
  in
  let resolve_cols cols =
    Array.of_list (List.map (fun c -> col_index_exn t c) cols)
  in
  let add_table_constraint (c : Ast.table_constraint) =
    match c with
    | Ast.C_primary_key cols ->
        let idxs = resolve_cols cols in
        if t.primary_key <> None then
          Db_error.sql_error "table %s has more than one PRIMARY KEY" table_name;
        t.primary_key <- Some idxs;
        Array.iter
          (fun i -> t.columns.(i) <- { (t.columns.(i)) with not_null = true })
          idxs;
        t.constraints <- Unique (table_name ^ "_pkey", idxs) :: t.constraints
    | Ast.C_unique cols ->
        t.constraints <- Unique (fresh "key", resolve_cols cols) :: t.constraints
    | Ast.C_foreign_key (local, ref_table, ref_cols) ->
        t.constraints <-
          Foreign_key
            {
              fk_name = fresh "fkey";
              fk_cols = resolve_cols local;
              fk_ref_table = String.lowercase_ascii ref_table;
              fk_ref_cols = Array.of_list ref_cols;
            }
          :: t.constraints
    | Ast.C_check e ->
        t.constraints <- Check (fresh "check", e, compile_check t e) :: t.constraints
  in
  (* Inline column attributes first, in declaration order. *)
  List.iteri
    (fun _i (c : Ast.column_def) ->
      if c.Ast.col_primary_key then add_table_constraint (Ast.C_primary_key [ c.Ast.col_name ]);
      if c.Ast.col_unique then add_table_constraint (Ast.C_unique [ c.Ast.col_name ]);
      match c.Ast.col_check with
      | None -> ()
      | Some e -> add_table_constraint (Ast.C_check e))
    col_defs;
  List.iter add_table_constraint table_constraints;
  t.constraints <- List.rev t.constraints;
  t
