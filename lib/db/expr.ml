open Bullfrog_sql

type t =
  | Const of Value.t
  | Param of int  (** positional parameter, 0-based slot in the params array *)
  | Field of int
  | Binop of Ast.binop * t * t
  | Unop of Ast.unop * t
  | Fn of string * t list
  | Case of (t * t) list * t option
  | In_list of t * t list
  | Between of t * t * t
  | Is_null of t * bool

exception Eval_error of string

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

(* ------------------------------------------------------------------ *)
(* Closure compilation                                                 *)
(*                                                                     *)
(* [compile_env e] walks the tree once and returns a closure of type   *)
(* [params -> row -> value]; per-row evaluation then does no           *)
(* constructor dispatch, no function-name comparison and no argument   *)
(* list traversal.  The compiled closures must agree with the test     *)
(* suite's reference interpreter (test/expr_interp.ml) on values *and* *)
(* on raised [Eval_error]s.                                            *)
(* ------------------------------------------------------------------ *)

(* [v IN (items)] for a non-NULL [v], items evaluated in order: hit,
   else unknown after a NULL item, else false.  Top-level and recursive
   so the row test allocates nothing. *)
let rec in_items p r v saw_null = function
  | [] -> if saw_null then -1 else 0
  | f :: rest -> (
      match f p r with
      | Value.Null -> in_items p r v true rest
      | w -> if Value.equal v w then 1 else in_items p r v saw_null rest)

let rec compile_env (e : t) : Value.t array -> Value.t array -> Value.t =
  match e with
  | Const v -> fun _ _ -> v
  | Param i ->
      fun params _ ->
        if i < 0 || i >= Array.length params then err "unbound parameter $%d" (i + 1)
        else Array.unsafe_get params i
  | Field i ->
      fun _ row ->
        if i < 0 || i >= Array.length row then err "field %d out of row bounds" i
        else Array.unsafe_get row i
  | Binop (op, a, b) -> compile_binop op a b
  | Unop (Ast.Not, a) ->
      let fa = compile_env a in
      fun p r -> (
        match fa p r with
        | Value.Null -> Value.Null
        | Value.Bool b -> Value.Bool (not b)
        | v -> err "NOT applied to %s" (Value.type_name v))
  | Unop (Ast.Neg, a) ->
      let fa = compile_env a in
      fun p r -> (
        match fa p r with
        | Value.Null -> Value.Null
        | Value.Int i -> Value.Int (-i)
        | Value.Float f -> Value.Float (-.f)
        | v -> err "unary minus applied to %s" (Value.type_name v))
  | Fn (name, args) -> compile_fn name args
  | Case (branches, els) ->
      let branches = List.map (fun (c, v) -> (compile_env c, compile_env v)) branches in
      let els = Option.map compile_env els in
      fun p r ->
        let rec pick = function
          | [] -> ( match els with None -> Value.Null | Some f -> f p r)
          | (fc, fv) :: rest -> (
              match fc p r with Value.Bool true -> fv p r | _ -> pick rest)
        in
        pick branches
  | In_list (a, items) ->
      let fa = compile_env a in
      let fitems = List.map compile_env items in
      fun p r -> (
        match fa p r with
        | Value.Null -> Value.Null
        | v -> (
            match in_items p r v false fitems with
            | 1 -> Value.Bool true
            | 0 -> Value.Bool false
            | _ -> Value.Null))
  | Between (a, lo, hi) ->
      let fa = compile_env a and flo = compile_env lo and fhi = compile_env hi in
      fun p r -> (
        match (fa p r, flo p r, fhi p r) with
        | Value.Null, _, _ | _, Value.Null, _ | _, _, Value.Null -> Value.Null
        | v, l, h -> Value.Bool (Value.compare l v <= 0 && Value.compare v h <= 0))
  | Is_null (a, want_null) ->
      let fa = compile_env a in
      fun p r -> Value.Bool (Value.is_null (fa p r) = want_null)

and compile_binop op a b =
  let fa = compile_env a and fb = compile_env b in
  match op with
  | Ast.And ->
      fun p r -> (
        match fa p r with
        | Value.Bool false -> Value.Bool false
        | Value.Bool true -> (
            match fb p r with
            | (Value.Bool _ | Value.Null) as v -> v
            | v -> err "AND applied to %s" (Value.type_name v))
        | Value.Null -> (
            match fb p r with Value.Bool false -> Value.Bool false | _ -> Value.Null)
        | v -> err "AND applied to %s" (Value.type_name v))
  | Ast.Or ->
      fun p r -> (
        match fa p r with
        | Value.Bool true -> Value.Bool true
        | Value.Bool false -> (
            match fb p r with
            | (Value.Bool _ | Value.Null) as v -> v
            | v -> err "OR applied to %s" (Value.type_name v))
        | Value.Null -> (
            match fb p r with Value.Bool true -> Value.Bool true | _ -> Value.Null)
        | v -> err "OR applied to %s" (Value.type_name v))
  | Ast.Eq | Ast.Neq | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge ->
      fun p r -> (
        match (fa p r, fb p r) with
        | Value.Null, _ | _, Value.Null -> Value.Null
        | va, vb -> cmp_binop op va vb)
  | Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Mod ->
      fun p r -> (
        match (fa p r, fb p r) with
        | Value.Null, _ | _, Value.Null -> Value.Null
        | va, vb -> num_binop op va vb)
  | Ast.Concat ->
      fun p r -> (
        match (fa p r, fb p r) with
        | Value.Null, _ | _, Value.Null -> Value.Null
        | va, vb -> Value.Str (Value.to_string va ^ Value.to_string vb))

(* Function-name dispatch is resolved once at compile time; the returned
   closure only evaluates arguments.  Arity errors are deferred into the
   closure so that (like the interpreter) they surface only when the call
   is actually evaluated, e.g. not inside an untaken CASE branch. *)
and compile_fn name args : Value.t array -> Value.t array -> Value.t =
  let fs = Array.of_list (List.map compile_env args) in
  let n = Array.length fs in
  let fail fmt = Printf.ksprintf (fun s _ _ -> raise (Eval_error s)) fmt in
  let bad_arity expected = fail "%s expects %d argument(s)" name expected in
  match name with
  | _ when String.length name > 8 && String.sub name 0 8 = "extract_" ->
      if n <> 1 then bad_arity 1
      else
        let field = String.sub name 8 (String.length name - 8) in
        let f0 = fs.(0) in
        fun p r -> Value.extract field (f0 p r)
  | "date_part" ->
      if n <> 2 then bad_arity 2
      else
        let f0 = fs.(0) and f1 = fs.(1) in
        fun p r -> (
          match f0 p r with
          | Value.Str field -> Value.extract field (f1 p r)
          | v -> err "date_part: field must be a string, got %s" (Value.type_name v))
  | "lower" ->
      if n <> 1 then bad_arity 1
      else
        let f0 = fs.(0) in
        fun p r -> (
          match f0 p r with
          | Value.Null -> Value.Null
          | Value.Str s -> Value.Str (String.lowercase_ascii s)
          | v -> err "lower applied to %s" (Value.type_name v))
  | "upper" ->
      if n <> 1 then bad_arity 1
      else
        let f0 = fs.(0) in
        fun p r -> (
          match f0 p r with
          | Value.Null -> Value.Null
          | Value.Str s -> Value.Str (String.uppercase_ascii s)
          | v -> err "upper applied to %s" (Value.type_name v))
  | "length" ->
      if n <> 1 then bad_arity 1
      else
        let f0 = fs.(0) in
        fun p r -> (
          match f0 p r with
          | Value.Null -> Value.Null
          | Value.Str s -> Value.Int (String.length s)
          | v -> err "length applied to %s" (Value.type_name v))
  | "substr" | "substring" ->
      if n <> 2 && n <> 3 then fail "substr expects 2 or 3 arguments"
      else
        let f0 = fs.(0) and f1 = fs.(1) in
        fun p r -> (
          match (f0 p r, f1 p r) with
          | Value.Null, _ -> Value.Null
          | Value.Str s, Value.Int start ->
              let start = max 1 start in
              let available = String.length s - (start - 1) in
              let len =
                if n = 3 then
                  match fs.(2) p r with
                  | Value.Int len -> min len available
                  | v -> err "substr: length must be int, got %s" (Value.type_name v)
                else available
              in
              if len <= 0 || start > String.length s then Value.Str ""
              else Value.Str (String.sub s (start - 1) len)
          | v, _ -> err "substr applied to %s" (Value.type_name v))
  | "abs" ->
      if n <> 1 then bad_arity 1
      else
        let f0 = fs.(0) in
        fun p r -> (
          match f0 p r with
          | Value.Null -> Value.Null
          | Value.Int i -> Value.Int (abs i)
          | Value.Float f -> Value.Float (Float.abs f)
          | v -> err "abs applied to %s" (Value.type_name v))
  | "round" ->
      if n = 1 then
        let f0 = fs.(0) in
        fun p r -> (
          match f0 p r with
          | Value.Null -> Value.Null
          | Value.Int _ as v -> v
          | Value.Float f -> Value.Float (Float.round f)
          | v -> err "round applied to %s" (Value.type_name v))
      else if n = 2 then
        let f0 = fs.(0) and f1 = fs.(1) in
        fun p r -> (
          match (f0 p r, f1 p r) with
          | Value.Null, _ -> Value.Null
          | Value.Float f, Value.Int digits ->
              let scale = 10.0 ** float_of_int digits in
              Value.Float (Float.round (f *. scale) /. scale)
          | (Value.Int _ as v), _ -> v
          | v, _ -> err "round applied to %s" (Value.type_name v))
      else fail "round expects 1 or 2 arguments"
  | "floor" ->
      if n <> 1 then bad_arity 1
      else
        let f0 = fs.(0) in
        fun p r -> (
          match f0 p r with
          | Value.Null -> Value.Null
          | Value.Int _ as v -> v
          | Value.Float f -> Value.Float (Float.floor f)
          | v -> err "floor applied to %s" (Value.type_name v))
  | "ceil" | "ceiling" ->
      if n <> 1 then bad_arity 1
      else
        let f0 = fs.(0) in
        fun p r -> (
          match f0 p r with
          | Value.Null -> Value.Null
          | Value.Int _ as v -> v
          | Value.Float f -> Value.Float (Float.ceil f)
          | v -> err "ceil applied to %s" (Value.type_name v))
  | "coalesce" ->
      let fl = Array.to_list fs in
      fun p r ->
        let rec first = function
          | [] -> Value.Null
          | f :: rest -> ( match f p r with Value.Null -> first rest | v -> v)
        in
        first fl
  | "nullif" ->
      if n <> 2 then bad_arity 2
      else
        let f0 = fs.(0) and f1 = fs.(1) in
        fun p r ->
          let a = f0 p r and b = f1 p r in
          if Value.equal a b then Value.Null else a
  | "mod" ->
      if n <> 2 then bad_arity 2
      else
        let f0 = fs.(0) and f1 = fs.(1) in
        fun p r -> (
          match (f0 p r, f1 p r) with
          | Value.Null, _ | _, Value.Null -> Value.Null
          | a, b -> num_binop Ast.Mod a b)
  | other -> fail "unknown function %S" other

(* ------------------------------------------------------------------ *)
(* Staged predicates                                                   *)
(*                                                                     *)
(* A predicate over comparisons / AND / OR / NOT / BETWEEN / IN /       *)
(* IS NULL never needs the intermediate [Value.Bool] boxes: it is       *)
(* evaluated as an unboxed three-valued int (1 true, 0 false, -1        *)
(* unknown).  [boolish] restricts this to shapes whose interpreter      *)
(* result is provably Bool/Null (or an error raised identically);       *)
(* anything else goes through the value compiler.                       *)
(*                                                                     *)
(* A filter runs once per row, but its constants and parameters do not *)
(* change within one execution.  Staging splits the work: binding the  *)
(* parameters evaluates every row-independent subtree once, folds the  *)
(* AND/OR/NOT around it, and specialises the common leaves —           *)
(* [Field op value], [Field IN (values)], [Field BETWEEN value AND      *)
(* value], [Field IS [NOT] NULL] — into direct [row -> bool] tests that *)
(* read the field and, for an [Int] against an [Int], compare inline   *)
(* with the operator resolved at binding.  Every other pair goes        *)
(* through [Value.compare], so mixed-type results are unchanged.  A     *)
(* WHERE made of such tests binds to the test itself.                   *)
(*                                                                     *)
(* Error precedence is the interpreter's: a row-independent subtree    *)
(* that raises (an unbound [$n], say) is recorded at binding time and  *)
(* re-raised only when a row evaluates it.  Where the interpreter's    *)
(* order of evaluation could let a row error win over it, the node     *)
(* keeps its generic form, which evaluates operands exactly as the     *)
(* interpreter does.                                                   *)
(* ------------------------------------------------------------------ *)

let rec boolish = function
  | Const (Value.Bool _) | Const Value.Null -> true
  | Binop ((Ast.Eq | Ast.Neq | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge), _, _) -> true
  | Binop ((Ast.And | Ast.Or), a, b) -> boolish a && boolish b
  | Unop (Ast.Not, a) -> boolish a
  | In_list _ | Between _ | Is_null _ -> true
  | _ -> false

(* [all_leaves ok e]: every [Const] / [Param] / [Field] leaf satisfies [ok]. *)
let rec all_leaves ok = function
  | (Const _ | Param _ | Field _) as leaf -> ok leaf
  | Binop (_, a, b) -> all_leaves ok a && all_leaves ok b
  | Unop (_, a) | Is_null (a, _) -> all_leaves ok a
  | Fn (_, args) -> List.for_all (all_leaves ok) args
  | Case (branches, els) ->
      List.for_all (fun (c, v) -> all_leaves ok c && all_leaves ok v) branches
      && Option.fold ~none:true ~some:(all_leaves ok) els
  | In_list (a, items) -> all_leaves ok a && List.for_all (all_leaves ok) items
  | Between (a, b, c) -> all_leaves ok a && all_leaves ok b && all_leaves ok c

let row_independent = all_leaves (function Field _ -> false | _ -> true)

type bound = { holds : Value.t array -> bool } [@@unboxed]

(* A three-valued verdict as staged for one binding. *)
type staged =
  | Known of int  (* the same verdict for every row *)
  | Raises of exn  (* a row-independent error, raised for every row *)
  | Per_row of (Value.t array -> int)
  | Test of { width : int; test : Value.t array -> bool; p3 : Value.t array -> int }
      (* A row test with a direct boolean form.  For every row [test r]
         is [p3 r = 1], raising exactly when [p3] does; on rows of at
         least [width] fields neither raises, so tests combine with [&&]
         / [||] there without changing which rows raise. *)

let per_row = function
  | Known k -> fun _ -> k
  | Raises e -> fun _ -> raise e
  | Per_row f -> f
  | Test t -> t.p3

let verdict ok = if ok then 1 else 0

let cmp_ok op c =
  match op with
  | Ast.Eq -> c = 0
  | Ast.Neq -> c <> 0
  | Ast.Lt -> c < 0
  | Ast.Le -> c <= 0
  | Ast.Gt -> c > 0
  | Ast.Ge -> c >= 0
  | _ -> assert false

(* [a op b] = [b (flip op) a]: [Value.compare] is antisymmetric. *)
let flip_cmp = function
  | Ast.Lt -> Ast.Gt
  | Ast.Le -> Ast.Ge
  | Ast.Gt -> Ast.Lt
  | Ast.Ge -> Ast.Le
  | op -> op

let[@inline] field_at i r =
  if i < 0 || i >= Array.length r then err "field %d out of row bounds" i
  else Array.unsafe_get r i

(* [v op k] for a field value [v] and a non-NULL [k]. *)
let cmp_value op v k = match v with Value.Null -> false | v -> cmp_ok op (Value.compare v k)

(* [Field i op k], [k] non-NULL.  The operator is resolved here, so for
   an [Int] field against an [Int] the row test is a field load, a tag
   test and one integer comparison. *)
let field_cmp op i k : Value.t array -> bool =
  match k with
  | Value.Int n -> (
      match op with
      | Ast.Eq -> fun r -> ( match field_at i r with Value.Int x -> x = n | v -> cmp_value op v k)
      | Ast.Neq -> fun r -> ( match field_at i r with Value.Int x -> x <> n | v -> cmp_value op v k)
      | Ast.Lt -> fun r -> ( match field_at i r with Value.Int x -> x < n | v -> cmp_value op v k)
      | Ast.Le -> fun r -> ( match field_at i r with Value.Int x -> x <= n | v -> cmp_value op v k)
      | Ast.Gt -> fun r -> ( match field_at i r with Value.Int x -> x > n | v -> cmp_value op v k)
      | Ast.Ge -> fun r -> ( match field_at i r with Value.Int x -> x >= n | v -> cmp_value op v k)
      | _ -> assert false)
  | _ -> fun r -> cmp_value op (field_at i r) k

(* A test on field [i] whose verdict is unknown exactly when the field
   is NULL and [test] fails, [miss] otherwise. *)
let field_test ?(miss = 0) i test =
  Test
    {
      width = i + 1;
      test;
      p3 = (fun r -> if test r then 1 else match field_at i r with Value.Null -> -1 | _ -> miss);
    }

(* [row_side op k] with [k] already evaluated: the row side is the only
   thing left that can raise, so evaluation order no longer matters. *)
let stage_cmp op (row_side : t) : Value.t array -> Value.t -> staged =
  let f = compile_env row_side in
  fun p k ->
    match (row_side, k) with
    | _, Value.Null ->
        Per_row
          (fun r ->
            ignore (f p r : Value.t);
            -1)
    | Field i, _ -> field_test i (field_cmp op i k)
    | _ ->
        Per_row
          (fun r -> match f p r with Value.Null -> -1 | v -> verdict (cmp_ok op (Value.compare v k)))

(* [a IN (items)] with every item evaluated: [hits] are the non-NULL
   values before the first failing item, [miss] what a value matching
   none of them yields — the failure, else unknown after a NULL item,
   else false.  A single item is an equality. *)
let stage_in (a : t) : Value.t array -> Value.t list -> (int, exn) result -> staged =
  let fa = compile_env a in
  fun p hits miss ->
    match (a, hits, miss) with
    | Field i, [ h ], Ok miss -> field_test ~miss i (field_cmp Ast.Eq i h)
    | Field i, _, Ok miss ->
        let test =
          if List.for_all (function Value.Int _ -> true | _ -> false) hits then
            let ints = Array.of_list (List.map (function Value.Int n -> n | _ -> 0) hits) in
            let rec mem x j = j < Array.length ints && (Array.unsafe_get ints j = x || mem x (j + 1)) in
            fun r ->
              match field_at i r with
              | Value.Int x -> mem x 0
              | Value.Null -> false
              | v -> List.exists (Value.equal v) hits
          else fun r ->
            match field_at i r with
            | Value.Null -> false
            | v -> List.exists (Value.equal v) hits
        in
        field_test ~miss i test
    | _ ->
        let miss () = match miss with Ok k -> k | Error ex -> raise ex in
        Per_row
          (fun r ->
            match fa p r with
            | Value.Null -> -1
            | v -> if List.exists (Value.equal v) hits then 1 else miss ())

let stage_not = function
  | Known k -> Known (if k = 1 then 0 else if k = 0 then 1 else -1)
  | Raises _ as s -> s
  | Per_row f -> Per_row (fun r -> match f r with 1 -> 0 | 0 -> 1 | _ -> -1)
  | Test { width; p3; _ } ->
      Test
        { width; test = (fun r -> p3 r = 0); p3 = (fun r -> match p3 r with 1 -> 0 | 0 -> 1 | _ -> -1) }

(* AND ([d] = 0) and OR ([d] = 1) over three-valued row tests. *)
let junction_p3 d fa fb r =
  let x = fa r in
  if x = d then d else if x = 1 - d then fb r else if fb r = d then d else -1

(* AND ([d] = 0) and OR ([d] = 1): a left side equal to [d] decides
   without evaluating the right; the other known value defers to the
   right; unknown yields [d] only if the right side does.  Two tests
   that cannot raise on a wide enough row combine with [&&] / [||]
   there: with no error to surface, an unknown left side decides the
   verdict exactly as a false one does. *)
let stage_junction d a b =
  match (a, b) with
  | Raises _, _ -> a
  | Known k, _ when k = d -> a
  | Known k, _ when k = 1 - d -> b
  | Known _, Known k -> if k = d then b else a
  | Known _, Raises _ -> b
  | Known _, (Per_row _ | Test _) ->
      let fb = per_row b in
      Per_row (fun r -> if fb r = d then d else -1)
  | (Per_row _ | Test _), Known k when k = 1 - d -> a
  | Test { width = wa; test = a; p3 = pa }, Test { width = wb; test = b; p3 = pb } ->
      let width = max wa wb in
      let p3 = junction_p3 d pa pb in
      let test =
        if d = 0 then fun r -> if Array.length r >= width then a r && b r else p3 r = 1
        else fun r -> if Array.length r >= width then a r || b r else p3 r = 1
      in
      Test { width; test; p3 }
  | (Per_row _ | Test _), _ -> Per_row (junction_p3 d (per_row a) (per_row b))

let fixed f p = match f p [||] with v -> Ok v | exception e -> Error e

(* The generic forms evaluate operands exactly as [compile_env] does (the
   same tuple patterns), so they are the reference each specialisation
   falls back to. *)
let generic_cmp op a b =
  let fa = compile_env a and fb = compile_env b in
  fun p ->
    Per_row
      (fun r ->
        match (fa p r, fb p r) with
        | Value.Null, _ | _, Value.Null -> -1
        | va, vb -> verdict (cmp_ok op (Value.compare va vb)))

let generic_between a lo hi =
  let fa = compile_env a and flo = compile_env lo and fhi = compile_env hi in
  fun p ->
    Per_row
      (fun r ->
        match (fa p r, flo p r, fhi p r) with
        | Value.Null, _, _ | _, Value.Null, _ | _, _, Value.Null -> -1
        | v, l, h -> verdict (Value.compare l v <= 0 && Value.compare v h <= 0))

(* [stage_p3 e] compiles once; applying the result to a parameter
   binding does the per-binding work and returns the row test. *)
let rec stage_p3 (e : t) : Value.t array -> staged =
  let s = stage_node e in
  if not (row_independent e) then s
  else fun p ->
    (* evaluate once; a failure is kept for the rows that reach it *)
    match s p with
    | (Per_row _ | Test _) as s -> (
        match per_row s [||] with k -> Known k | exception ex -> Raises ex)
    | known -> known

and stage_node (e : t) : Value.t array -> staged =
  match e with
  | Const (Value.Bool b) ->
      let k = Known (verdict b) in
      fun _ -> k
  | Const Value.Null -> fun _ -> Known (-1)
  | Binop ((Ast.Eq | Ast.Neq | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge) as op, a, b)
    when row_independent a <> row_independent b ->
      let op, row_side, fixed_side =
        if row_independent b then (op, a, b) else (flip_cmp op, b, a)
      in
      let fk = compile_env fixed_side and staged = stage_cmp op row_side
      and generic = generic_cmp op a b in
      fun p -> ( match fixed fk p with Ok k -> staged p k | Error _ -> generic p)
  | Binop ((Ast.Eq | Ast.Neq | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge) as op, a, b) ->
      generic_cmp op a b
  | Binop (Ast.And, a, b) ->
      let sa = stage_p3 a and sb = stage_p3 b in
      fun p -> stage_junction 0 (sa p) (sb p)
  | Binop (Ast.Or, a, b) ->
      let sa = stage_p3 a and sb = stage_p3 b in
      fun p -> stage_junction 1 (sa p) (sb p)
  | Unop (Ast.Not, a) ->
      let sa = stage_p3 a in
      fun p -> stage_not (sa p)
  | In_list (a, items) when List.for_all row_independent items ->
      (* [a] is evaluated first and the items in order, so an item's
         failure can be deferred into the miss path exactly. *)
      let fitems = List.map compile_env items and staged = stage_in a in
      fun p ->
        let rec bind hits nulls = function
          | [] -> (List.rev hits, Ok (if nulls then -1 else 0))
          | f :: rest -> (
              match fixed f p with
              | Ok Value.Null -> bind hits true rest
              | Ok v -> bind (v :: hits) nulls rest
              | Error ex -> (List.rev hits, Error ex))
        in
        let hits, miss = bind [] false fitems in
        staged p hits miss
  | In_list (a, items) ->
      let fa = compile_env a and fitems = List.map compile_env items in
      fun p ->
        Per_row (fun r -> match fa p r with Value.Null -> -1 | v -> in_items p r v false fitems)
  | Between (a, lo, hi) when row_independent lo && row_independent hi ->
      let fa = compile_env a and flo = compile_env lo and fhi = compile_env hi in
      let generic = generic_between a lo hi in
      fun p -> (
        match (fixed flo p, fixed fhi p) with
        | Ok Value.Null, Ok _ | Ok _, Ok Value.Null ->
            Per_row
              (fun r ->
                ignore (fa p r : Value.t);
                -1)
        | Ok l, Ok h -> (
            let within v = Value.compare l v <= 0 && Value.compare v h <= 0 in
            match (a, l, h) with
            | Field i, Value.Int l_int, Value.Int h_int ->
                field_test i (fun r ->
                    match field_at i r with
                    | Value.Int x -> l_int <= x && x <= h_int
                    | Value.Null -> false
                    | v -> within v)
            | Field i, _, _ ->
                field_test i (fun r ->
                    match field_at i r with Value.Null -> false | v -> within v)
            | _ -> Per_row (fun r -> match fa p r with Value.Null -> -1 | v -> verdict (within v)))
        | _ -> generic p)
  | Between (a, lo, hi) -> generic_between a lo hi
  | Is_null (Field i, want_null) ->
      let test r = Value.is_null (field_at i r) = want_null in
      let t = Test { width = i + 1; test; p3 = (fun r -> verdict (test r)) } in
      fun _ -> t
  | Is_null (a, want_null) ->
      let fa = compile_env a in
      fun p -> Per_row (fun r -> verdict (Value.is_null (fa p r) = want_null))
  | e ->
      (* unreachable through the [boolish]-guarded entry; kept total *)
      let f = compile_env e in
      fun p ->
        Per_row
          (fun r ->
            match f p r with
            | Value.Bool true -> 1
            | Value.Bool false -> 0
            | Value.Null -> -1
            | v -> err "predicate applied to %s" (Value.type_name v))

let always = { holds = (fun _ -> true) }

let never = { holds = (fun _ -> false) }

let raising ex = { holds = (fun _ -> raise ex) }

(* A WHERE of direct tests binds to the test itself: the scan loop calls
   it with no three-valued wrapper in between. *)
let stage_pred e : Value.t array -> bound =
  let bind =
    if boolish e then
      let s = stage_p3 e in
      fun p ->
        match s p with
        | Known 1 -> always
        | Known _ -> never
        | Raises ex -> raising ex
        | Test t -> { holds = t.test }
        | Per_row f -> { holds = (fun r -> f r = 1) }
    else
      let f = compile_env e in
      if row_independent e then fun p ->
        match f p [||] with
        | Value.Bool true -> always
        | _ -> never
        | exception ex -> raising ex
      else fun p -> { holds = (fun r -> match f p r with Value.Bool true -> true | _ -> false) }
  in
  (* with no parameter to bind, one binding serves every execution *)
  if all_leaves (function Param _ -> false | _ -> true) e then
    let b = bind [||] in
    fun _ -> b
  else bind

(* A compiled expression as held by physical plan nodes: the source tree
   (for EXPLAIN / describe) alongside its value closure and its staged
   predicate. *)
type cexpr = {
  ce_expr : t;
  ce_eval : Value.t array -> Value.t array -> Value.t;
  ce_pred : Value.t array -> bound;
}

let prepare e = { ce_expr = e; ce_eval = compile_env e; ce_pred = stage_pred e }

let bind_filter filter params =
  match filter with None -> always | Some f -> f.ce_pred params

(* ------------------------------------------------------------------ *)
(* Structural helpers                                                  *)
(* ------------------------------------------------------------------ *)

let is_const = all_leaves (function Const _ -> true | _ -> false)

let rec const_fold e =
  let e =
    match e with
    | Const _ | Param _ | Field _ -> e
    | Binop (op, a, b) -> Binop (op, const_fold a, const_fold b)
    | Unop (op, a) -> Unop (op, const_fold a)
    | Fn (f, args) -> Fn (f, List.map const_fold args)
    | Case (branches, els) ->
        Case
          ( List.map (fun (c, v) -> (const_fold c, const_fold v)) branches,
            Option.map const_fold els )
    | In_list (a, items) -> In_list (const_fold a, List.map const_fold items)
    | Between (a, b, c) -> Between (const_fold a, const_fold b, const_fold c)
    | Is_null (a, n) -> Is_null (const_fold a, n)
  in
  match e with
  | Const _ -> e
  | _ when is_const e -> ( try Const (compile_env e [||] [||]) with Eval_error _ -> e)
  | _ -> e

let fields e =
  let acc = ref [] in
  let rec go = function
    | Const _ | Param _ -> ()
    | Field i -> acc := i :: !acc
    | Binop (_, a, b) -> go a; go b
    | Unop (_, a) -> go a
    | Fn (_, args) -> List.iter go args
    | Case (branches, els) ->
        List.iter (fun (c, v) -> go c; go v) branches;
        Option.iter go els
    | In_list (a, items) -> go a; List.iter go items
    | Between (a, b, c) -> go a; go b; go c
    | Is_null (a, _) -> go a
  in
  go e;
  List.sort_uniq Stdlib.compare !acc

let rec shift_fields k e =
  let sub = shift_fields k in
  match e with
  | Const _ | Param _ -> e
  | Field i -> Field (i + k)
  | Binop (op, a, b) -> Binop (op, sub a, sub b)
  | Unop (op, a) -> Unop (op, sub a)
  | Fn (f, args) -> Fn (f, List.map sub args)
  | Case (branches, els) ->
      Case (List.map (fun (c, v) -> (sub c, sub v)) branches, Option.map sub els)
  | In_list (a, items) -> In_list (sub a, List.map sub items)
  | Between (a, b, c) -> Between (sub a, sub b, sub c)
  | Is_null (a, n) -> Is_null (sub a, n)

let rec to_string = function
  | Const v -> Value.to_sql v
  | Param i -> Printf.sprintf "$%d" (i + 1)
  | Field i -> Printf.sprintf "#%d" i
  | Binop (op, a, b) ->
      Printf.sprintf "(%s %s %s)" (to_string a) (Pretty.binop_to_string op) (to_string b)
  | Unop (Ast.Not, a) -> Printf.sprintf "(NOT %s)" (to_string a)
  | Unop (Ast.Neg, a) -> Printf.sprintf "(- %s)" (to_string a)
  | Fn (f, args) ->
      Printf.sprintf "%s(%s)" f (String.concat ", " (List.map to_string args))
  | Case (branches, els) ->
      let bs =
        List.map
          (fun (c, v) -> Printf.sprintf "WHEN %s THEN %s" (to_string c) (to_string v))
          branches
      in
      let e = match els with None -> "" | Some v -> " ELSE " ^ to_string v in
      Printf.sprintf "CASE %s%s END" (String.concat " " bs) e
  | In_list (a, items) ->
      Printf.sprintf "%s IN (%s)" (to_string a)
        (String.concat ", " (List.map to_string items))
  | Between (a, b, c) ->
      Printf.sprintf "%s BETWEEN %s AND %s" (to_string a) (to_string b) (to_string c)
  | Is_null (a, true) -> to_string a ^ " IS NULL"
  | Is_null (a, false) -> to_string a ^ " IS NOT NULL"
