(* The tree interpreter over {!Bullfrog_db.Expr.t}: the reference
   semantics the closure compiler ([Expr.compile_env]) and the staged
   predicates ([Expr.prepare]'s [ce_pred]) must agree with exactly, on
   values and on raised [Eval_error] messages (test_expr.ml), and the
   row-evaluation oracle of the predicate decision procedure
   (test_analysis.ml).  [eval_env params row e] uses three-valued logic:
   comparisons and connectives involving [Null] yield [Null], and
   [eval_pred] treats a [Null] result as false. *)

open Bullfrog_sql
open Bullfrog_db
open Expr

let err fmt = Printf.ksprintf (fun s -> raise (Eval_error s)) fmt

let num_binop op a b =
  let open Value in
  match (a, b) with
  | Int x, Int y -> (
      match op with
      | Ast.Add -> Int (x + y)
      | Ast.Sub -> Int (x - y)
      | Ast.Mul -> Int (x * y)
      | Ast.Div -> if y = 0 then err "division by zero" else Int (x / y)
      | Ast.Mod -> if y = 0 then err "modulo by zero" else Int (x mod y)
      | _ -> assert false)
  | (Int _ | Float _), (Int _ | Float _) ->
      let fx = match a with Int x -> float_of_int x | Float x -> x | _ -> assert false in
      let fy = match b with Int y -> float_of_int y | Float y -> y | _ -> assert false in
      (match op with
      | Ast.Add -> Float (fx +. fy)
      | Ast.Sub -> Float (fx -. fy)
      | Ast.Mul -> Float (fx *. fy)
      | Ast.Div -> if fy = 0.0 then err "division by zero" else Float (fx /. fy)
      | Ast.Mod -> Float (Float.rem fx fy)
      | _ -> assert false)
  | Timestamp x, (Int _ | Float _) when op = Ast.Add || op = Ast.Sub ->
      let d = match b with Int y -> float_of_int y | Float y -> y | _ -> assert false in
      Timestamp (if op = Ast.Add then x +. d else x -. d)
  | Date x, Int y when op = Ast.Add || op = Ast.Sub ->
      Date (if op = Ast.Add then x + y else x - y)
  | _ -> err "arithmetic on %s and %s" (Value.type_name a) (Value.type_name b)

let cmp_binop op a b =
  let c = Value.compare a b in
  let r =
    match op with
    | Ast.Eq -> c = 0
    | Ast.Neq -> c <> 0
    | Ast.Lt -> c < 0
    | Ast.Le -> c <= 0
    | Ast.Gt -> c > 0
    | Ast.Ge -> c >= 0
    | _ -> assert false
  in
  Value.Bool r

let rec eval_env params row e =
  match e with
  | Const v -> v
  | Param i ->
      if i < 0 || i >= Array.length params then err "unbound parameter $%d" (i + 1)
      else Array.unsafe_get params i
  | Field i ->
      if i < 0 || i >= Array.length row then err "field %d out of row bounds" i
      else Array.unsafe_get row i
  | Binop (op, a, b) -> eval_binop params row op a b
  | Unop (Ast.Not, a) -> (
      match eval_env params row a with
      | Value.Null -> Value.Null
      | Value.Bool b -> Value.Bool (not b)
      | v -> err "NOT applied to %s" (Value.type_name v))
  | Unop (Ast.Neg, a) -> (
      match eval_env params row a with
      | Value.Null -> Value.Null
      | Value.Int i -> Value.Int (-i)
      | Value.Float f -> Value.Float (-.f)
      | v -> err "unary minus applied to %s" (Value.type_name v))
  | Fn (name, args) -> eval_fn params row name args
  | Case (branches, els) -> (
      let rec pick = function
        | [] -> ( match els with None -> Value.Null | Some e -> eval_env params row e)
        | (c, v) :: rest -> (
            match eval_env params row c with
            | Value.Bool true -> eval_env params row v
            | _ -> pick rest)
      in
      pick branches)
  | In_list (a, items) -> (
      match eval_env params row a with
      | Value.Null -> Value.Null
      | v ->
          let saw_null = ref false in
          let hit =
            List.exists
              (fun item ->
                match eval_env params row item with
                | Value.Null ->
                    saw_null := true;
                    false
                | w -> Value.equal v w)
              items
          in
          if hit then Value.Bool true
          else if !saw_null then Value.Null
          else Value.Bool false)
  | Between (a, lo, hi) -> (
      match (eval_env params row a, eval_env params row lo, eval_env params row hi) with
      | Value.Null, _, _ | _, Value.Null, _ | _, _, Value.Null -> Value.Null
      | v, l, h -> Value.Bool (Value.compare l v <= 0 && Value.compare v h <= 0))
  | Is_null (a, want_null) ->
      let v = eval_env params row a in
      Value.Bool (Value.is_null v = want_null)

and eval_binop params row op a b =
  match op with
  | Ast.And -> (
      match eval_env params row a with
      | Value.Bool false -> Value.Bool false
      | Value.Bool true -> (
          match eval_env params row b with
          | (Value.Bool _ | Value.Null) as v -> v
          | v -> err "AND applied to %s" (Value.type_name v))
      | Value.Null -> (
          match eval_env params row b with
          | Value.Bool false -> Value.Bool false
          | _ -> Value.Null)
      | v -> err "AND applied to %s" (Value.type_name v))
  | Ast.Or -> (
      match eval_env params row a with
      | Value.Bool true -> Value.Bool true
      | Value.Bool false -> (
          match eval_env params row b with
          | (Value.Bool _ | Value.Null) as v -> v
          | v -> err "OR applied to %s" (Value.type_name v))
      | Value.Null -> (
          match eval_env params row b with
          | Value.Bool true -> Value.Bool true
          | _ -> Value.Null)
      | v -> err "OR applied to %s" (Value.type_name v))
  | Ast.Eq | Ast.Neq | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge -> (
      match (eval_env params row a, eval_env params row b) with
      | Value.Null, _ | _, Value.Null -> Value.Null
      | va, vb -> cmp_binop op va vb)
  | Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Mod -> (
      match (eval_env params row a, eval_env params row b) with
      | Value.Null, _ | _, Value.Null -> Value.Null
      | va, vb -> num_binop op va vb)
  | Ast.Concat -> (
      match (eval_env params row a, eval_env params row b) with
      | Value.Null, _ | _, Value.Null -> Value.Null
      | va, vb -> Value.Str (Value.to_string va ^ Value.to_string vb))

and eval_fn params row name args =
  let arg i = eval_env params row (List.nth args i) in
  let arity n =
    if List.length args <> n then err "%s expects %d argument(s)" name n
  in
  match name with
  | _ when String.length name > 8 && String.sub name 0 8 = "extract_" ->
      arity 1;
      Value.extract (String.sub name 8 (String.length name - 8)) (arg 0)
  | "date_part" -> (
      arity 2;
      match arg 0 with
      | Value.Str field -> Value.extract field (arg 1)
      | v -> err "date_part: field must be a string, got %s" (Value.type_name v))
  | "lower" -> (
      arity 1;
      match arg 0 with
      | Value.Null -> Value.Null
      | Value.Str s -> Value.Str (String.lowercase_ascii s)
      | v -> err "lower applied to %s" (Value.type_name v))
  | "upper" -> (
      arity 1;
      match arg 0 with
      | Value.Null -> Value.Null
      | Value.Str s -> Value.Str (String.uppercase_ascii s)
      | v -> err "upper applied to %s" (Value.type_name v))
  | "length" -> (
      arity 1;
      match arg 0 with
      | Value.Null -> Value.Null
      | Value.Str s -> Value.Int (String.length s)
      | v -> err "length applied to %s" (Value.type_name v))
  | "substr" | "substring" -> (
      match List.length args with
      | 2 | 3 -> (
          match (arg 0, arg 1) with
          | Value.Null, _ -> Value.Null
          | Value.Str s, Value.Int start ->
              let start = max 1 start in
              let available = String.length s - (start - 1) in
              let len =
                if List.length args = 3 then
                  match arg 2 with
                  | Value.Int n -> min n available
                  | v -> err "substr: length must be int, got %s" (Value.type_name v)
                else available
              in
              if len <= 0 || start > String.length s then Value.Str ""
              else Value.Str (String.sub s (start - 1) len)
          | v, _ -> err "substr applied to %s" (Value.type_name v))
      | _ -> err "substr expects 2 or 3 arguments")
  | "abs" -> (
      arity 1;
      match arg 0 with
      | Value.Null -> Value.Null
      | Value.Int i -> Value.Int (abs i)
      | Value.Float f -> Value.Float (Float.abs f)
      | v -> err "abs applied to %s" (Value.type_name v))
  | "round" -> (
      match List.length args with
      | 1 -> (
          match arg 0 with
          | Value.Null -> Value.Null
          | Value.Int _ as v -> v
          | Value.Float f -> Value.Float (Float.round f)
          | v -> err "round applied to %s" (Value.type_name v))
      | 2 -> (
          match (arg 0, arg 1) with
          | Value.Null, _ -> Value.Null
          | Value.Float f, Value.Int digits ->
              let scale = 10.0 ** float_of_int digits in
              Value.Float (Float.round (f *. scale) /. scale)
          | (Value.Int _ as v), _ -> v
          | v, _ -> err "round applied to %s" (Value.type_name v))
      | _ -> err "round expects 1 or 2 arguments")
  | "floor" -> (
      arity 1;
      match arg 0 with
      | Value.Null -> Value.Null
      | Value.Int _ as v -> v
      | Value.Float f -> Value.Float (Float.floor f)
      | v -> err "floor applied to %s" (Value.type_name v))
  | "ceil" | "ceiling" -> (
      arity 1;
      match arg 0 with
      | Value.Null -> Value.Null
      | Value.Int _ as v -> v
      | Value.Float f -> Value.Float (Float.ceil f)
      | v -> err "ceil applied to %s" (Value.type_name v))
  | "coalesce" ->
      let rec first = function
        | [] -> Value.Null
        | e :: rest -> (
            match eval_env params row e with Value.Null -> first rest | v -> v)
      in
      first args
  | "nullif" -> (
      arity 2;
      let a = arg 0 and b = arg 1 in
      if Value.equal a b then Value.Null else a)
  | "mod" -> (
      arity 2;
      match (arg 0, arg 1) with
      | Value.Null, _ | _, Value.Null -> Value.Null
      | a, b -> num_binop Ast.Mod a b)
  | other -> err "unknown function %S" other

let eval row e = eval_env [||] row e

let eval_pred row e =
  match eval row e with Value.Bool true -> true | _ -> false

let eval_pred_env params row e =
  match eval_env params row e with Value.Bool true -> true | _ -> false
