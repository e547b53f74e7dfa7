(* Compiled-expression evaluation: three-valued logic, arithmetic,
   functions, folding. *)

open Bullfrog_db

let check = Alcotest.check

let v_test = Alcotest.testable (Fmt.of_to_string Value.to_string) Value.equal

(* Unit cases run the library's compiled form; the properties below
   check it against the reference interpreter (Expr_interp). *)
let ev ?(row = [||]) e = Expr.compile_env e [||] row

let c v = Expr.Const v

let arith () =
  let open Bullfrog_sql.Ast in
  check v_test "int add" (Value.Int 7) (ev (Expr.Binop (Add, c (Value.Int 3), c (Value.Int 4))));
  check v_test "mixed mul" (Value.Float 7.5)
    (ev (Expr.Binop (Mul, c (Value.Int 3), c (Value.Float 2.5))));
  check v_test "int div truncates" (Value.Int 2)
    (ev (Expr.Binop (Div, c (Value.Int 7), c (Value.Int 3))));
  check v_test "mod" (Value.Int 1) (ev (Expr.Binop (Mod, c (Value.Int 7), c (Value.Int 3))));
  check v_test "date + int" (Value.Date 11)
    (ev (Expr.Binop (Add, c (Value.Date 10), c (Value.Int 1))));
  Alcotest.check_raises "division by zero" (Expr.Eval_error "division by zero")
    (fun () -> ignore (ev (Expr.Binop (Div, c (Value.Int 1), c (Value.Int 0)))))

let three_valued_logic () =
  let open Bullfrog_sql.Ast in
  let t = c (Value.Bool true) and f = c (Value.Bool false) and n = c Value.Null in
  check v_test "null AND false = false" (Value.Bool false) (ev (Expr.Binop (And, n, f)));
  check v_test "null AND true = null" Value.Null (ev (Expr.Binop (And, n, t)));
  check v_test "null OR true = true" (Value.Bool true) (ev (Expr.Binop (Or, n, t)));
  check v_test "null OR false = null" Value.Null (ev (Expr.Binop (Or, n, f)));
  check v_test "NOT null = null" Value.Null (ev (Expr.Unop (Not, n)));
  check v_test "null = null is null" Value.Null (ev (Expr.Binop (Eq, n, n)));
  check v_test "null comparison" Value.Null (ev (Expr.Binop (Lt, n, c (Value.Int 1))));
  check Alcotest.bool "eval_pred null -> false" false
    (((Expr.prepare (Expr.Binop (Eq, n, n))).Expr.ce_pred [||]).Expr.holds [||])

let null_handling_composites () =
  let n = c Value.Null in
  check v_test "IS NULL" (Value.Bool true) (ev (Expr.Is_null (n, true)));
  check v_test "IS NOT NULL" (Value.Bool false) (ev (Expr.Is_null (n, false)));
  check v_test "IN with match" (Value.Bool true)
    (ev (Expr.In_list (c (Value.Int 2), [ c (Value.Int 1); c (Value.Int 2) ])));
  check v_test "IN no match w/ null = null" Value.Null
    (ev (Expr.In_list (c (Value.Int 9), [ c (Value.Int 1); n ])));
  check v_test "BETWEEN" (Value.Bool true)
    (ev (Expr.Between (c (Value.Int 5), c (Value.Int 1), c (Value.Int 9))));
  check v_test "BETWEEN null bound" Value.Null
    (ev (Expr.Between (c (Value.Int 5), n, c (Value.Int 9))))

let field_access () =
  let row = [| Value.Int 10; Value.Str "hi" |] in
  check v_test "field 0" (Value.Int 10) (ev ~row (Expr.Field 0));
  check v_test "field 1" (Value.Str "hi") (ev ~row (Expr.Field 1));
  Alcotest.check_raises "field out of bounds" (Expr.Eval_error "field 2 out of row bounds")
    (fun () -> ignore (ev ~row (Expr.Field 2)))

let functions () =
  check v_test "lower" (Value.Str "abc") (ev (Expr.Fn ("lower", [ c (Value.Str "AbC") ])));
  check v_test "upper" (Value.Str "ABC") (ev (Expr.Fn ("upper", [ c (Value.Str "abc") ])));
  check v_test "length" (Value.Int 3) (ev (Expr.Fn ("length", [ c (Value.Str "abc") ])));
  check v_test "substr" (Value.Str "bc")
    (ev (Expr.Fn ("substr", [ c (Value.Str "abcd"); c (Value.Int 2); c (Value.Int 2) ])));
  check v_test "substr overrun" (Value.Str "d")
    (ev (Expr.Fn ("substr", [ c (Value.Str "abcd"); c (Value.Int 4); c (Value.Int 10) ])));
  check v_test "abs" (Value.Int 5) (ev (Expr.Fn ("abs", [ c (Value.Int (-5)) ])));
  check v_test "round 2dp" (Value.Float 3.14)
    (ev (Expr.Fn ("round", [ c (Value.Float 3.14159); c (Value.Int 2) ])));
  check v_test "coalesce" (Value.Int 2)
    (ev (Expr.Fn ("coalesce", [ c Value.Null; c (Value.Int 2); c (Value.Int 3) ])));
  check v_test "nullif equal" Value.Null
    (ev (Expr.Fn ("nullif", [ c (Value.Int 1); c (Value.Int 1) ])));
  check v_test "extract day" (Value.Int 9)
    (ev (Expr.Fn ("extract_day", [ c (Value.date_of_ymd 2020 3 9) ])));
  check v_test "date_part" (Value.Int 3)
    (ev (Expr.Fn ("date_part", [ c (Value.Str "month"); c (Value.date_of_ymd 2020 3 9) ])));
  Alcotest.check_raises "unknown fn" (Expr.Eval_error "unknown function \"nope\"")
    (fun () -> ignore (ev (Expr.Fn ("nope", []))))

let case_expr () =
  let open Bullfrog_sql.Ast in
  let e =
    Expr.Case
      ( [
          (Expr.Binop (Eq, Expr.Field 0, c (Value.Int 1)), c (Value.Str "one"));
          (Expr.Binop (Eq, Expr.Field 0, c (Value.Int 2)), c (Value.Str "two"));
        ],
        Some (c (Value.Str "many")) )
  in
  check v_test "case 1" (Value.Str "one") (ev ~row:[| Value.Int 1 |] e);
  check v_test "case else" (Value.Str "many") (ev ~row:[| Value.Int 9 |] e);
  let no_else = Expr.Case ([ (c (Value.Bool false), c (Value.Int 1)) ], None) in
  check v_test "case no match no else" Value.Null (ev no_else)

let folding () =
  let open Bullfrog_sql.Ast in
  let e = Expr.Binop (Add, c (Value.Int 1), Expr.Binop (Mul, c (Value.Int 2), c (Value.Int 3))) in
  (match Expr.const_fold e with
  | Expr.Const (Value.Int 7) -> ()
  | other -> Alcotest.failf "expected folded 7, got %s" (Expr.to_string other));
  let with_field = Expr.Binop (Add, Expr.Field 0, Expr.Binop (Mul, c (Value.Int 2), c (Value.Int 3))) in
  (match Expr.const_fold with_field with
  | Expr.Binop (Add, Expr.Field 0, Expr.Const (Value.Int 6)) -> ()
  | other -> Alcotest.failf "partial fold wrong: %s" (Expr.to_string other));
  check Alcotest.bool "is_const" true (Expr.is_const e);
  check Alcotest.bool "not const" false (Expr.is_const with_field)

let fields_and_shift () =
  let open Bullfrog_sql.Ast in
  let e = Expr.Binop (Add, Expr.Field 2, Expr.Binop (Mul, Expr.Field 0, Expr.Field 2)) in
  check (Alcotest.list Alcotest.int) "fields dedup sorted" [ 0; 2 ] (Expr.fields e);
  let shifted = Expr.shift_fields 3 e in
  check (Alcotest.list Alcotest.int) "shifted" [ 3; 5 ] (Expr.fields shifted)

(* ------------------------------------------------------------------ *)
(* Interpreter ≡ compiler (randomised)                                 *)
(* ------------------------------------------------------------------ *)

(* The closure compiler must agree with the tree interpreter on every
   input — on values AND on raised [Eval_error]s.  The generator leans
   into the edges: NULLs everywhere, zero divisors, mixed-type operands
   (int+string, date arithmetic), unknown functions, wrong arities,
   out-of-range parameters. *)

let row_arity = 3

let n_params = 2

let gen_value =
  QCheck.Gen.(
    frequency
      [
        (3, map (fun i -> Value.Int i) (int_range (-3) 3));
        (2, map (fun f -> Value.Float f) (oneofl [ -1.5; 0.0; 2.0; 3.25 ]));
        (2, map (fun s -> Value.Str s) (oneofl [ ""; "a"; "Ab"; "true"; "5" ]));
        (2, map (fun b -> Value.Bool b) bool);
        (3, return Value.Null);
        (1, map (fun d -> Value.Date d) (int_range 0 40000));
      ])

let gen_expr =
  let open QCheck.Gen in
  let open Bullfrog_sql.Ast in
  let leaf =
    frequency
      [
        (4, map (fun v -> Expr.Const v) gen_value);
        (3, map (fun i -> Expr.Field i) (int_range 0 (row_arity - 1)));
        (2, map (fun i -> Expr.Param i) (int_range 0 (n_params - 1)));
        (* occasionally out of bounds: both sides must raise identically *)
        (1, return (Expr.Param n_params));
      ]
  in
  let gen_binop =
    oneofl [ Eq; Neq; Lt; Le; Gt; Ge; Add; Sub; Mul; Div; Mod; And; Or; Concat ]
  in
  let fn_names =
    [ "lower"; "upper"; "length"; "abs"; "round"; "coalesce"; "nullif"; "substr"; "nope" ]
  in
  fix
    (fun self n ->
      if n = 0 then leaf
      else
        let sub = self (n / 2) in
        frequency
          [
            (1, leaf);
            (4, map3 (fun op a b -> Expr.Binop (op, a, b)) gen_binop sub sub);
            (1, map2 (fun op a -> Expr.Unop (op, a)) (oneofl [ Not; Neg ]) sub);
            ( 2,
              map2
                (fun name args -> Expr.Fn (name, args))
                (oneofl fn_names)
                (list_size (int_range 0 3) sub) );
            ( 1,
              map3
                (fun branches els leftover ->
                  Expr.Case (branches, if leftover then Some els else None))
                (list_size (int_range 1 2) (pair sub sub))
                sub bool );
            (1, map2 (fun a es -> Expr.In_list (a, es)) sub (list_size (int_range 0 3) sub));
            (1, map3 (fun a lo hi -> Expr.Between (a, lo, hi)) sub sub sub);
            (1, map2 (fun a pos -> Expr.Is_null (a, pos)) sub bool);
          ])
    5

let gen_case =
  QCheck.Gen.(
    triple gen_expr
      (array_size (return n_params) gen_value)
      (array_size (return row_arity) gen_value))

let print_case (e, params, row) =
  let vals a = String.concat "; " (Array.to_list (Array.map Value.to_string a)) in
  Printf.sprintf "expr: %s\nparams: [| %s |]\nrow: [| %s |]" (Expr.to_string e)
    (vals params) (vals row)

let outcome f = match f () with v -> Ok v | exception Expr.Eval_error m -> Error m

let interp_compile_agree =
  QCheck.Test.make ~name:"interpreter ≡ closure compiler (randomised)" ~count:2000
    (QCheck.make gen_case ~print:print_case)
    (fun (e, params, row) ->
      let ce = Expr.prepare e in
      let iv = outcome (fun () -> Expr_interp.eval_env params row e) in
      let cv = outcome (fun () -> ce.Expr.ce_eval params row) in
      let values_agree =
        match (iv, cv) with
        | Ok a, Ok b -> Value.equal a b
        | Error a, Error b -> String.equal a b
        | _ -> false
      in
      if not values_agree then
        QCheck.Test.fail_reportf "eval mismatch:\ninterp:  %s\ncompiled: %s"
          (match iv with Ok v -> Value.to_string v | Error m -> "error: " ^ m)
          (match cv with Ok v -> Value.to_string v | Error m -> "error: " ^ m);
      let ip = outcome (fun () -> Expr_interp.eval_pred_env params row e) in
      let cp = outcome (fun () -> (ce.Expr.ce_pred params).Expr.holds row) in
      let preds_agree =
        match (ip, cp) with
        | Ok a, Ok b -> Bool.equal a b
        | Error a, Error b -> String.equal a b
        | _ -> false
      in
      if not preds_agree then
        QCheck.Test.fail_reportf "pred mismatch:\ninterp:  %s\ncompiled: %s"
          (match ip with Ok b -> string_of_bool b | Error m -> "error: " ^ m)
          (match cp with Ok b -> string_of_bool b | Error m -> "error: " ^ m);
      true)

(* ------------------------------------------------------------------ *)
(* Staged predicate ≡ interpreter (randomised)                         *)
(* ------------------------------------------------------------------ *)

(* The staged form binds the parameters once and then tests many rows;
   the generator leans into what binding specialises: a field against
   constants and parameters in either orientation, IN lists with NULL
   items, BETWEEN, and NOT / AND / OR over them.  Values mix Int, Float,
   Date, Str and NULL; parameters sit in every operand position and are
   sometimes unbound; some rows are too short for the fields they name. *)

let gen_mixed_value =
  QCheck.Gen.(
    frequency
      [
        (4, map (fun i -> Value.Int i) (int_range (-2) 2));
        (2, map (fun f -> Value.Float f) (oneofl [ -1.0; 0.0; 0.5; 2.0 ]));
        (1, map (fun d -> Value.Date d) (int_range 0 2));
        (1, map (fun s -> Value.Str s) (oneofl [ "a"; "1" ]));
        (2, return Value.Null);
      ])

let gen_staged_expr =
  let open QCheck.Gen in
  let open Bullfrog_sql.Ast in
  let fixed =
    frequency
      [
        (3, map (fun v -> Expr.Const v) gen_mixed_value);
        (3, map (fun i -> Expr.Param i) (int_range 0 (n_params - 1)));
        (1, return (Expr.Param n_params));
        ( 1,
          map2
            (fun a b -> Expr.Binop (Add, a, b))
            (map (fun i -> Expr.Param i) (int_range 0 n_params))
            (map (fun v -> Expr.Const v) gen_mixed_value) );
      ]
  in
  let field = map (fun i -> Expr.Field i) (int_range 0 (row_arity - 1)) in
  let operand = frequency [ (4, field); (3, fixed); (1, gen_expr) ] in
  let leaf =
    frequency
      [
        ( 4,
          map3
            (fun op a b -> Expr.Binop (op, a, b))
            (oneofl [ Eq; Neq; Lt; Le; Gt; Ge ])
            operand operand );
        (3, map2 (fun a items -> Expr.In_list (a, items)) operand (list_size (int_range 0 4) fixed));
        (2, map3 (fun a lo hi -> Expr.Between (a, lo, hi)) operand fixed fixed);
        (1, map2 (fun a want -> Expr.Is_null (a, want)) operand bool);
        (1, gen_expr);
      ]
  in
  fix
    (fun self n ->
      if n = 0 then leaf
      else
        frequency
          [
            (2, leaf);
            (1, map (fun a -> Expr.Unop (Not, a)) (self (n - 1)));
            ( 2,
              map3
                (fun op a b -> Expr.Binop (op, a, b))
                (oneofl [ And; Or ])
                (self (n / 2))
                (self (n / 2)) );
          ])
    4

let gen_staged_case =
  QCheck.Gen.(
    triple gen_staged_expr
      (array_size (return n_params) gen_mixed_value)
      (list_size (int_range 0 8)
         (array_size (frequency [ (5, return row_arity); (1, return (row_arity - 1)) ])
            gen_mixed_value)))

let print_staged_case (e, params, rows) =
  let vals a = String.concat "; " (Array.to_list (Array.map Value.to_string a)) in
  Printf.sprintf "expr: %s\nparams: [| %s |]\nrows: %s" (Expr.to_string e) (vals params)
    (String.concat " " (List.map (fun r -> "[| " ^ vals r ^ " |]") rows))

let staged_interp_agree =
  QCheck.Test.make ~name:"staged predicate ≡ interpreter (one binding, many rows)" ~count:3000
    (QCheck.make gen_staged_case ~print:print_staged_case)
    (fun (e, params, rows) ->
      let ce = Expr.prepare e in
      (* binding never raises, whatever the parameters; only rows do *)
      let bound =
        match ce.Expr.ce_pred params with
        | b -> b
        | exception ex -> QCheck.Test.fail_reportf "binding raised %s" (Printexc.to_string ex)
      in
      List.iteri
        (fun i row ->
          let ip = outcome (fun () -> Expr_interp.eval_pred_env params row e) in
          let sp = outcome (fun () -> bound.Expr.holds row) in
          let agree =
            match (ip, sp) with
            | Ok a, Ok b -> Bool.equal a b
            | Error a, Error b -> String.equal a b
            | _ -> false
          in
          if not agree then
            QCheck.Test.fail_reportf "row %d:\ninterp: %s\nstaged: %s" i
              (match ip with Ok b -> string_of_bool b | Error m -> "error: " ^ m)
              (match sp with Ok b -> string_of_bool b | Error m -> "error: " ^ m))
        rows;
      true)

let staged_edges () =
  let open Bullfrog_sql.Ast in
  let holds e params row = (( Expr.prepare e).Expr.ce_pred params).Expr.holds row in
  let f0 = Expr.Field 0 and i n = Expr.Const (Value.Int n) in
  (* unknown is not false: NOT flips false to true but keeps unknown *)
  check Alcotest.bool "NOT (2 IN (1))" true (holds (Expr.Unop (Not, Expr.In_list (f0, [ i 1 ]))) [||] [| Value.Int 2 |]);
  check Alcotest.bool "NOT (2 IN (1, NULL))" false
    (holds (Expr.Unop (Not, Expr.In_list (f0, [ i 1; Expr.Const Value.Null ]))) [||] [| Value.Int 2 |]);
  (* Int against Float and Date keeps Value.compare's answers *)
  check Alcotest.bool "2.0 = 2" true (holds (Expr.Binop (Eq, f0, i 2)) [||] [| Value.Float 2.0 |]);
  check Alcotest.bool "3 IN ($1) with $1 = 3.0" true
    (holds (Expr.In_list (f0, [ Expr.Param 0 ])) [| Value.Float 3.0 |] [| Value.Int 3 |]);
  check Alcotest.bool "date vs int ranks" true (holds (Expr.Binop (Gt, f0, i 5)) [||] [| Value.Date 1 |]);
  (* an unbound parameter raises per row, never at binding *)
  let b = (Expr.prepare (Expr.Binop (Eq, f0, Expr.Param 2))).Expr.ce_pred [| Value.Int 1 |] in
  Alcotest.check_raises "first row raises" (Expr.Eval_error "unbound parameter $3") (fun () ->
      ignore (b.Expr.holds [| Value.Int 1 |] : bool));
  (* ... unless a short-circuit skips it: false AND <error> is false *)
  check Alcotest.bool "short-circuit" false
    (holds (Expr.Binop (And, Expr.Binop (Eq, f0, i 0), Expr.Binop (Eq, f0, Expr.Param 2))) [||]
       [| Value.Int 1 |])

let compiled_params () =
  let open Bullfrog_sql.Ast in
  let e = Expr.Binop (Add, Expr.Param 0, Expr.Param 1) in
  let ce = Expr.prepare e in
  check v_test "params bound per call" (Value.Int 7)
    (ce.Expr.ce_eval [| Value.Int 3; Value.Int 4 |] [||]);
  check v_test "same closure, new bindings" (Value.Int 30)
    (ce.Expr.ce_eval [| Value.Int 10; Value.Int 20 |] [||]);
  Alcotest.check_raises "unbound parameter" (Expr.Eval_error "unbound parameter $3")
    (fun () ->
      ignore
        ((Expr.prepare (Expr.Param 2)).Expr.ce_eval [| Value.Int 1; Value.Int 2 |] [||]))

let suite =
  [
    Alcotest.test_case "arithmetic" `Quick arith;
    Alcotest.test_case "three-valued logic" `Quick three_valued_logic;
    Alcotest.test_case "null composites" `Quick null_handling_composites;
    Alcotest.test_case "field access" `Quick field_access;
    Alcotest.test_case "functions" `Quick functions;
    Alcotest.test_case "case" `Quick case_expr;
    Alcotest.test_case "const folding" `Quick folding;
    Alcotest.test_case "fields/shift" `Quick fields_and_shift;
    Alcotest.test_case "compiled params" `Quick compiled_params;
    QCheck_alcotest.to_alcotest interp_compile_agree;
    Alcotest.test_case "staged predicate edges" `Quick staged_edges;
    QCheck_alcotest.to_alcotest staged_interp_agree;
  ]
