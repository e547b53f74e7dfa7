(* Validation of the predicate decision procedure (lib/analysis) against
   brute-force row evaluation through the engine (Schema.compile_expr +
   Expr_interp.eval_pred), plus unit pins for the facts the consumers rely on. *)

open Bullfrog_sql
open Bullfrog_db
module P = Bullfrog_analysis.Predicate

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Brute-force oracle                                                  *)
(* ------------------------------------------------------------------ *)

let oracle_schema =
  let col name = { Schema.name; ty = Ast.T_int; not_null = false; default = None } in
  Schema.make [| col "a"; col "b"; col "c" |]

(* Every column ranges over the same mixed-type grid, exercising the
   rank-based total order of Value.compare (Null < Bool < numeric < Str). *)
let grid_values =
  [
    Value.Null;
    Value.Int 0;
    Value.Int 5;
    Value.Int 10;
    Value.Float 4.5;
    Value.Str "a";
    Value.Str "z";
    Value.Bool true;
  ]

let grid_rows =
  List.concat_map
    (fun a ->
      List.concat_map
        (fun b -> List.map (fun c -> [| a; b; c |]) grid_values)
        grid_values)
    grid_values

let sat row p = Expr_interp.eval_pred row (Schema.compile_expr oracle_schema p)

(* ------------------------------------------------------------------ *)
(* Predicate generator (well-sorted: no arithmetic, so the oracle      *)
(* never raises)                                                       *)
(* ------------------------------------------------------------------ *)

let gen_pred =
  let open QCheck.Gen in
  let col = oneofl [ "a"; "b"; "c" ] in
  let scalar_const =
    frequency
      [
        (4, map (fun i -> Ast.Int_lit i) (int_range (-1) 11));
        (1, return (Ast.Float_lit 4.5));
        (2, map (fun s -> Ast.Str_lit s) (oneofl [ "a"; "mm"; "z" ]));
        (1, return Ast.Null_lit);
        (1, return (Ast.Bool_lit true));
      ]
  in
  let cmp = oneofl Ast.[ Eq; Neq; Lt; Le; Gt; Ge ] in
  let atom =
    frequency
      [
        (5, map3 (fun c op k -> Ast.Binop (op, Ast.Col (None, c), k)) col cmp scalar_const);
        (1, map3 (fun c op k -> Ast.Binop (op, k, Ast.Col (None, c))) col cmp scalar_const);
        (1, map2 (fun c w -> Ast.Is_null (Ast.Col (None, c), w)) col bool);
        ( 2,
          map2
            (fun c ks -> Ast.In_list (Ast.Col (None, c), ks))
            col
            (list_size (int_range 1 3) scalar_const) );
        ( 1,
          map3
            (fun c l h -> Ast.Between (Ast.Col (None, c), l, h))
            col scalar_const scalar_const );
        (1, map (fun b -> Ast.Bool_lit b) bool);
      ]
  in
  let rec pred n =
    if n <= 0 then atom
    else
      frequency
        [
          (3, atom);
          (2, map2 (fun x y -> Ast.Binop (Ast.And, x, y)) (pred (n / 2)) (pred (n / 2)));
          (2, map2 (fun x y -> Ast.Binop (Ast.Or, x, y)) (pred (n / 2)) (pred (n / 2)));
          (1, map (fun x -> Ast.Unop (Ast.Not, x)) (pred (n - 1)));
        ]
  in
  pred 3

let gen_pred_pair = QCheck.Gen.pair gen_pred gen_pred

let pp_pair (p, q) =
  Printf.sprintf "p = %s\nq = %s" (Pretty.expr_to_string p) (Pretty.expr_to_string q)

let arb_pair = QCheck.make gen_pred_pair ~print:pp_pair
let arb_pred = QCheck.make gen_pred ~print:Pretty.expr_to_string

let prop_disjoint =
  QCheck.Test.make ~name:"disjoint p q => no row satisfies both" ~count:1000 arb_pair
    (fun (p, q) ->
      (not (P.disjoint p q))
      || List.for_all (fun row -> not (sat row p && sat row q)) grid_rows)

let prop_implies =
  QCheck.Test.make ~name:"implies p q => every p-row satisfies q" ~count:1000 arb_pair
    (fun (p, q) ->
      (not (P.implies p q))
      || List.for_all (fun row -> (not (sat row p)) || sat row q) grid_rows)

let prop_unsat =
  QCheck.Test.make ~name:"unsatisfiable p => no row satisfies p" ~count:1000 arb_pred
    (fun p ->
      P.satisfiable p || List.for_all (fun row -> not (sat row p)) grid_rows)

let prop_covers =
  QCheck.Test.make ~name:"covers [p; q] => every row satisfies one" ~count:1000 arb_pair
    (fun (p, q) ->
      (not (P.covers [ p; q ]))
      || List.for_all (fun row -> sat row p || sat row q) grid_rows)

let prop_normalize =
  QCheck.Test.make ~name:"normalize preserves row semantics" ~count:1000 arb_pred
    (fun p ->
      let n = P.normalize p in
      List.for_all (fun row -> sat row p = sat row n) grid_rows)

(* ------------------------------------------------------------------ *)
(* Effectiveness pins: the procedure must actually decide the facts    *)
(* its consumers depend on (a trivially conservative implementation    *)
(* would pass the soundness properties above).                         *)
(* ------------------------------------------------------------------ *)

let e = Parser.parse_expr

let decided_facts () =
  check Alcotest.bool "x < 5 AND x > 9 unsat" false (P.satisfiable (e "x < 5 AND x > 9"));
  check Alcotest.bool "x < 5 AND x > 4 sat" true (P.satisfiable (e "x < 5 AND x > 4"));
  check Alcotest.bool "x = 3 AND x = 4 unsat" false (P.satisfiable (e "x = 3 AND x = 4"));
  check Alcotest.bool "halves disjoint" true (P.disjoint (e "x < 5") (e "x >= 5"));
  check Alcotest.bool "IN sets disjoint" true
    (P.disjoint (e "x IN (1, 2)") (e "x IN (3, 4)"));
  check Alcotest.bool "overlapping ranges not disjoint" false
    (P.disjoint (e "x < 10") (e "x > 5"));
  check Alcotest.bool "eq implies range" true
    (P.implies (e "x = 5") (e "x > 3 AND x < 7"));
  check Alcotest.bool "between implies bound" true
    (P.implies (e "x BETWEEN 2 AND 4") (e "x >= 2"));
  check Alcotest.bool "IN implies superset" true
    (P.implies (e "x IN (1, 2)") (e "x IN (1, 2, 3)"));
  check Alcotest.bool "range does not imply eq" false (P.implies (e "x > 3") (e "x = 5"));
  check Alcotest.bool "eq implies not-null" true
    (P.implies (e "x = 5") (e "x IS NOT NULL"));
  check Alcotest.bool "qualifier-insensitive after unqualify" true
    (P.implies (P.unqualify (e "t.x = 5")) (e "x = 5"))

let null_semantics () =
  (* the split x<5 / x>=5 genuinely loses NULL rows... *)
  check Alcotest.bool "halves do not cover nullable column" false
    (P.covers [ e "x < 5"; e "x >= 5" ]);
  (* ...unless the column is declared NOT NULL *)
  let env = { P.top_env with P.not_null = (fun c -> c = "x") } in
  check Alcotest.bool "halves cover NOT NULL column" true
    (P.covers ~env [ e "x < 5"; e "x >= 5" ]);
  check Alcotest.bool "explicit IS NULL arm covers" true
    (P.covers [ e "x < 5"; e "x >= 5"; e "x IS NULL" ]);
  check Alcotest.bool "comparison with NULL literal unsat" false
    (P.satisfiable (e "x = NULL"));
  check Alcotest.bool "IS NULL disjoint from comparison" true
    (P.disjoint (e "x IS NULL") (e "x = 5"))

let normalize_shapes () =
  let show x = Pretty.expr_to_string (P.normalize (e x)) in
  check Alcotest.string "idempotent AND" "(a = 1)" (show "a = 1 AND a = 1 AND TRUE");
  check Alcotest.string "negation pushdown" "(a >= 5)" (show "NOT (a < 5)");
  check Alcotest.string "double negation" "(a = 1)" (show "NOT (NOT (a = 1))");
  check Alcotest.string "AND false collapses" "FALSE" (show "a = 1 AND 1 = 2");
  check Alcotest.string "OR true collapses" "TRUE" (show "a = 1 OR 2 = 2");
  check Alcotest.string "De Morgan" "((a >= 1) OR (b >= 2))"
    (show "NOT (a < 1 AND b < 2)")

let conservative_fallbacks () =
  (* params and subqueries leave the decidable fragment: the procedure
     must fall back, never claim *)
  check Alcotest.bool "param satisfiable" true (P.satisfiable (e "x = $1"));
  check Alcotest.bool "params not provably disjoint" false
    (P.disjoint (e "x = $1") (e "x = $2"));
  check Alcotest.bool "syntactic implication on opaque atoms" true
    (P.implies (e "x = $1") (e "x = $1"));
  check Alcotest.bool "arithmetic atom satisfiable" true
    (P.satisfiable (e "x + 1 = 2 AND x + 1 = 3"))

let suite =
  [
    QCheck_alcotest.to_alcotest prop_disjoint;
    QCheck_alcotest.to_alcotest prop_implies;
    QCheck_alcotest.to_alcotest prop_unsat;
    QCheck_alcotest.to_alcotest prop_covers;
    QCheck_alcotest.to_alcotest prop_normalize;
    Alcotest.test_case "decided facts" `Quick decided_facts;
    Alcotest.test_case "null semantics" `Quick null_semantics;
    Alcotest.test_case "normalize shapes" `Quick normalize_shapes;
    Alcotest.test_case "conservative fallbacks" `Quick conservative_fallbacks;
  ]
