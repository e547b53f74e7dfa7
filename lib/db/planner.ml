open Bullfrog_sql

type ctx = {
  catalog : Catalog.t;
  run_subquery : Ast.select -> Value.t array list;
}

type planned = {
  plan : Plan.t;
  output : Plan.col_desc array;
}

type rel_source = Base of Heap.t | Sub of Ast.select

type rel = { alias : string; source : rel_source }

let err = Db_error.sql_error

let prep = Expr.prepare

(* ------------------------------------------------------------------ *)
(* Plan lint                                                           *)
(*                                                                     *)
(* The analyzer (lib/analysis) proves facts about scan predicates at   *)
(* plan time: a provably unsatisfiable predicate plans to Plan.Empty   *)
(* (no scan at all), and residual conjuncts already implied by the     *)
(* equality conjuncts that form an index probe are dropped.  Both are  *)
(* sound w.r.t. the engine's three-valued row semantics — the QCheck   *)
(* suite in test/test_analysis.ml cross-validates the procedure        *)
(* against Expr evaluation.                                            *)
(* ------------------------------------------------------------------ *)

module Pred = Bullfrog_analysis.Predicate

let c_empty_scan = Obs.Counters.make "analysis.plan.empty_scan"
let c_residual_dropped = Obs.Counters.make "analysis.plan.residual_dropped"
let c_fullscan_under_migration = Obs.Counters.make "analysis.plan.fullscan_under_migration"

(* Tables whose full scan during an active migration should be flagged
   (scanning a partially-populated output triggers a whole-table lazy
   migration).  Keyed by catalog so concurrently simulated databases do
   not observe each other's migrations. *)
let fullscan_watch : (Catalog.t * string list) list ref = ref []

let set_migration_watch cat tables =
  fullscan_watch := (cat, tables) :: List.filter (fun (c, _) -> c != cat) !fullscan_watch

let clear_migration_watch cat =
  fullscan_watch := List.filter (fun (c, _) -> c != cat) !fullscan_watch

let watched_table cat name =
  List.exists (fun (c, ts) -> c == cat && List.mem name ts) !fullscan_watch

(* ------------------------------------------------------------------ *)
(* Star and view expansion                                             *)
(* ------------------------------------------------------------------ *)

let projection_name (p : Ast.projection) =
  match p with
  | Ast.Proj_expr (_, Some a) -> a
  | Ast.Proj_expr (Ast.Col (_, c), None) -> c
  | Ast.Proj_expr (Ast.Agg (f, _, _), None) -> (
      match f with
      | Ast.Count -> "count"
      | Sum -> "sum"
      | Avg -> "avg"
      | Min -> "min"
      | Max -> "max")
  | Ast.Proj_expr (_, None) -> "?column?"
  | Ast.Proj_star | Ast.Proj_table_star _ -> invalid_arg "projection_name: star"

let output_names (s : Ast.select) = List.map projection_name s.Ast.projections

let rel_of_from ctx (f : Ast.from_item) =
  match f with
  | Ast.From_table (name, alias) ->
      {
        alias = String.lowercase_ascii (Option.value alias ~default:name);
        source = Base (Catalog.find_table_exn ctx.catalog name);
      }
  | Ast.From_subquery (q, a) -> { alias = String.lowercase_ascii a; source = Sub q }

let rels_of_select ctx s =
  let rels = List.map (rel_of_from ctx) s.Ast.from in
  let aliases = List.map (fun r -> r.alias) rels in
  let dup = List.filter (fun a -> List.length (List.filter (( = ) a) aliases) > 1) aliases in
  (match dup with [] -> () | a :: _ -> err "table name %S specified more than once" a);
  rels

let rec expand_select ctx (s : Ast.select) : Ast.select =
  let expand_from (f : Ast.from_item) : Ast.from_item =
    match f with
    | Ast.From_subquery (q, a) -> Ast.From_subquery (expand_select ctx q, a)
    | Ast.From_table (name, alias) -> (
        match Catalog.find_view ctx.catalog name with
        | Some q ->
            Ast.From_subquery (expand_select ctx q, Option.value alias ~default:name)
        | None ->
            if Catalog.find_table ctx.catalog name = None then
              err "relation %S does not exist" name;
            Ast.From_table (name, alias))
  in
  let from = List.map expand_from s.Ast.from in
  let s = { s with Ast.from } in
  let rels = rels_of_select ctx s in
  let cols_of_rel r =
    match r.source with
    | Base heap -> Array.to_list (Schema.col_names heap.Heap.schema)
    | Sub q -> output_names q
  in
  let expand_proj (p : Ast.projection) : Ast.projection list =
    match p with
    | Ast.Proj_expr _ -> [ p ]
    | Ast.Proj_star ->
        List.concat_map
          (fun r ->
            List.map
              (fun c -> Ast.Proj_expr (Ast.Col (Some r.alias, c), Some c))
              (cols_of_rel r))
          rels
    | Ast.Proj_table_star t -> (
        let t = String.lowercase_ascii t in
        match List.find_opt (fun r -> r.alias = t) rels with
        | None -> err "missing FROM-clause entry for table %S" t
        | Some r ->
            List.map
              (fun c -> Ast.Proj_expr (Ast.Col (Some r.alias, c), Some c))
              (cols_of_rel r))
  in
  { s with Ast.projections = List.concat_map expand_proj s.Ast.projections }

(* ------------------------------------------------------------------ *)
(* Column resolution                                                   *)
(* ------------------------------------------------------------------ *)

let rel_cols r =
  match r.source with
  | Base heap -> Array.to_list (Schema.col_names heap.Heap.schema)
  | Sub q -> output_names q

let rel_has_col r c =
  let c = String.lowercase_ascii c in
  List.exists (fun n -> String.lowercase_ascii n = c) (rel_cols r)

(* Resolve a column reference to the relation that owns it. *)
let rel_of_col rels (q, c) =
  match q with
  | Some q -> (
      let q = String.lowercase_ascii q in
      match List.find_opt (fun r -> r.alias = q) rels with
      | Some r ->
          if rel_has_col r c then r.alias else err "column %s.%s does not exist" q c
      | None -> err "missing FROM-clause entry %S" q)
  | None -> (
      match List.filter (fun r -> rel_has_col r c) rels with
      | [ r ] -> r.alias
      | [] -> err "column %S does not exist" c
      | _ -> err "column reference %S is ambiguous" c)

let rels_of_expr rels e =
  List.sort_uniq String.compare (List.map (rel_of_col rels) (Ast.columns_of_expr e))

(* ------------------------------------------------------------------ *)
(* Predicate pushdown into subqueries                                  *)
(* ------------------------------------------------------------------ *)

let projection_map (q : Ast.select) =
  List.map
    (fun p ->
      match p with
      | Ast.Proj_expr (e, _) -> (String.lowercase_ascii (projection_name p), e)
      | Ast.Proj_star | Ast.Proj_table_star _ -> assert false)
    q.Ast.projections

exception Not_pushable

(* Rewrite a conjunct over subquery [q]'s output into an expression over
   [q]'s own relations; raises [Not_pushable] when impossible. *)
let rewrite_into_sub (q : Ast.select) conj =
  let pmap = projection_map q in
  let lookup c =
    match List.assoc_opt (String.lowercase_ascii c) pmap with
    | Some e -> e
    | None -> raise Not_pushable
  in
  let rec sub e =
    match e with
    | Ast.Col (_, c) -> lookup c
    | Ast.Null_lit | Ast.Int_lit _ | Ast.Float_lit _ | Ast.Str_lit _
    | Ast.Bool_lit _ | Ast.Param _ ->
        e
    | Ast.Binop (op, a, b) -> Ast.Binop (op, sub a, sub b)
    | Ast.Unop (op, a) -> Ast.Unop (op, sub a)
    | Ast.Fn (f, args) -> Ast.Fn (f, List.map sub args)
    | Ast.Agg _ -> raise Not_pushable
    | Ast.Case (branches, els) ->
        Ast.Case (List.map (fun (c, v) -> (sub c, sub v)) branches, Option.map sub els)
    | Ast.In_list (a, items) -> Ast.In_list (sub a, List.map sub items)
    | Ast.Between (a, b, c) -> Ast.Between (sub a, sub b, sub c)
    | Ast.Is_null (a, n) -> Ast.Is_null (sub a, n)
    | Ast.Exists _ | Ast.Scalar_subquery _ -> raise Not_pushable
  in
  if q.Ast.limit <> None then None
  else
    match sub conj with
    | rewritten ->
        if Ast.contains_agg rewritten then None
        else if q.Ast.group_by = [] then Some rewritten
        else begin
          (* Under GROUP BY, only filters over grouping expressions commute
             with aggregation. *)
          let referenced =
            List.filter_map
              (fun (_, c) -> List.assoc_opt (String.lowercase_ascii c) pmap)
              (Ast.columns_of_expr conj)
          in
          if List.for_all (fun e -> List.mem e q.Ast.group_by) referenced then
            Some rewritten
          else None
        end
    | exception Not_pushable -> None

(* ------------------------------------------------------------------ *)
(* Equivalence-class propagation                                       *)
(*                                                                     *)
(* Join equalities [a.x = b.y] put (a,x) and (b,y) in one class; a      *)
(* single-column conjunct [a.x op const] (or [a.x op $n]) is then       *)
(* replicated as [b.y op const].  This is how the paper's example pushes *)
(* FID = 'AA101' onto both FLIGHTS and FLEWON through the view's join.  *)
(* ------------------------------------------------------------------ *)

(* A literal or a positional parameter: both name one value per
   execution, so [a.x = $1] copies across [a.x = b.y] just as
   [a.x = 5] does, and predicates extracted from an unbound statement
   match those extracted after binding. *)
let is_const_or_param e =
  match e with Ast.Param _ -> true | _ -> Value.of_ast_literal e <> None

let propagate_equalities rels conjs =
  let col_key rels (q, c) = (rel_of_col rels (q, c), String.lowercase_ascii c) in
  (* union-find over (alias, col) pairs *)
  let parent = Hashtbl.create 16 in
  let rec find k =
    match Hashtbl.find_opt parent k with
    | None -> k
    | Some p -> if p = k then k else find p
  in
  let union a b =
    let ra = find a and rb = find b in
    if ra <> rb then Hashtbl.replace parent ra rb
  in
  let note k = if not (Hashtbl.mem parent k) then Hashtbl.replace parent k k in
  List.iter
    (fun conj ->
      match conj with
      | Ast.Binop (Ast.Eq, Ast.Col (qa, ca), Ast.Col (qb, cb)) ->
          let ka = col_key rels (qa, ca) and kb = col_key rels (qb, cb) in
          if ka <> kb then begin
            note ka;
            note kb;
            union ka kb
          end
      | _ -> ())
    conjs;
  let classes = Hashtbl.create 16 in
  Hashtbl.iter
    (fun k _ ->
      let root = find k in
      let members = try Hashtbl.find classes root with Not_found -> [] in
      Hashtbl.replace classes root (k :: members))
    parent;
  let equivalents k =
    match Hashtbl.find_opt parent k with
    | None -> []
    | Some _ ->
        List.filter (fun k' -> k' <> k) (try Hashtbl.find classes (find k) with Not_found -> [])
  in
  (* Replicate [col op const] conjuncts across the class. *)
  let extra =
    List.concat_map
      (fun conj ->
        let gen op col rhs_or_lhs ~col_left =
          match col with
          | Ast.Col (q, c) when is_const_or_param rhs_or_lhs ->
              List.map
                (fun (alias', c') ->
                  let col' = Ast.Col (Some alias', c') in
                  if col_left then Ast.Binop (op, col', rhs_or_lhs)
                  else Ast.Binop (op, rhs_or_lhs, col'))
                (equivalents (col_key rels (q, c)))
          | _ -> []
        in
        match conj with
        | Ast.Binop ((Ast.Eq | Ast.Neq | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge) as op, (Ast.Col _ as col), rhs) ->
            gen op col rhs ~col_left:true
        | Ast.Binop ((Ast.Eq | Ast.Neq | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge) as op, lhs, (Ast.Col _ as col)) ->
            gen op col lhs ~col_left:false
        | _ -> [])
      conjs
  in
  (* Deduplicate structurally. *)
  List.fold_left (fun acc c -> if List.mem c acc then acc else acc @ [ c ]) conjs extra

(* ------------------------------------------------------------------ *)
(* Conjunct classification                                             *)
(* ------------------------------------------------------------------ *)

type classified = {
  crels : rel list;  (** pushable conjuncts merged into [Sub] bodies *)
  per_rel : (string * Ast.expr list) list;  (** residual single-rel conjuncts *)
  joins : (string list * Ast.expr) list;
  consts : Ast.expr list;
}

let classify ctx (s : Ast.select) : classified =
  let rels = rels_of_select ctx s in
  let conjs = match s.Ast.where with None -> [] | Some w -> Ast.conjuncts w in
  let conjs = propagate_equalities rels conjs in
  let singles = ref [] and joins = ref [] and consts = ref [] in
  List.iter
    (fun c ->
      match rels_of_expr rels c with
      | [] -> consts := c :: !consts
      | [ a ] -> singles := (a, c) :: !singles
      | many -> joins := (many, c) :: !joins)
    conjs;
  let singles = List.rev !singles in
  let crels, per_rel =
    List.fold_left
      (fun (crels, per_rel) r ->
        let mine = List.filter_map (fun (a, c) -> if a = r.alias then Some c else None) singles in
        match r.source with
        | Base _ -> (crels @ [ r ], per_rel @ [ (r.alias, mine) ])
        | Sub q ->
            let pushed, kept =
              List.partition_map
                (fun c ->
                  match rewrite_into_sub q c with
                  | Some c' -> Left c'
                  | None -> Right c)
                mine
            in
            let q' =
              if pushed = [] then q
              else
                {
                  q with
                  Ast.where = Ast.conjoin (Option.to_list q.Ast.where @ pushed);
                }
            in
            (crels @ [ { r with source = Sub q' } ], per_rel @ [ (r.alias, kept) ]))
      ([], []) rels
  in
  { crels; per_rel; joins = List.rev !joins; consts = List.rev !consts }

(* ------------------------------------------------------------------ *)
(* Expression compilation against a descriptor layout                  *)
(* ------------------------------------------------------------------ *)

let resolve_field (descs : Plan.col_desc array) q c =
  let c = String.lowercase_ascii c in
  let q = Option.map String.lowercase_ascii q in
  let matches (d : Plan.col_desc) =
    String.lowercase_ascii d.Plan.cd_name = c
    && match q with None -> true | Some q -> d.Plan.cd_qualifier = Some q
  in
  let hits = ref [] in
  Array.iteri (fun i d -> if matches d then hits := i :: !hits) descs;
  match !hits with
  | [ i ] -> i
  | [] ->
      err "column %s%s does not exist"
        (match q with None -> "" | Some q -> q ^ ".")
        c
  | _ ->
      err "column reference %s%s is ambiguous"
        (match q with None -> "" | Some q -> q ^ ".")
        c

let rec compile ctx (descs : Plan.col_desc array) (e : Ast.expr) : Expr.t =
  let sub = compile ctx descs in
  match e with
  | Ast.Null_lit -> Expr.Const Value.Null
  | Ast.Int_lit i -> Expr.Const (Value.Int i)
  | Ast.Float_lit f -> Expr.Const (Value.Float f)
  | Ast.Str_lit s -> Expr.Const (Value.Str s)
  | Ast.Bool_lit b -> Expr.Const (Value.Bool b)
  | Ast.Param i -> Expr.Param (i - 1)
  | Ast.Col (q, c) -> Expr.Field (resolve_field descs q c)
  | Ast.Binop (op, a, b) -> Expr.Binop (op, sub a, sub b)
  | Ast.Unop (op, a) -> Expr.Unop (op, sub a)
  | Ast.Fn (f, args) -> Expr.Fn (f, List.map sub args)
  | Ast.Agg _ -> err "aggregate functions are not allowed here"
  | Ast.Case (branches, els) ->
      Expr.Case (List.map (fun (c, v) -> (sub c, sub v)) branches, Option.map sub els)
  | Ast.In_list (a, items) -> Expr.In_list (sub a, List.map sub items)
  | Ast.Between (a, b, c) -> Expr.Between (sub a, sub b, sub c)
  | Ast.Is_null (a, n) -> Expr.Is_null (sub a, n)
  | Ast.Scalar_subquery q -> (
      match ctx.run_subquery q with
      | [] -> Expr.Const Value.Null
      | [| v |] :: _ -> Expr.Const v
      | row :: _ ->
          if Array.length row = 1 then Expr.Const row.(0)
          else err "scalar subquery must return one column")
  | Ast.Exists q -> Expr.Const (Value.Bool (ctx.run_subquery q <> []))

(* Compilation above an Aggregate node: group expressions become fields of
   the group output, Agg nodes become fields of the aggregate slots. *)
type agg_stage = {
  group_asts : Ast.expr list;
  mutable specs : (Ast.agg_fn * bool * Ast.expr option) list;  (** slot order *)
}

let group_index stage e =
  let rec idx i = function
    | [] -> None
    | g :: rest -> if g = e then Some i else idx (i + 1) rest
  in
  idx 0 stage.group_asts

(* Unqualified group columns also match their qualified group expr. *)
let group_index_lenient stage e =
  match group_index stage e with
  | Some i -> Some i
  | None -> (
      match e with
      | Ast.Col (None, c) ->
          let rec idx i = function
            | [] -> None
            | Ast.Col (_, c') :: rest ->
                if String.lowercase_ascii c' = String.lowercase_ascii c then Some i
                else idx (i + 1) rest
            | _ :: rest -> idx (i + 1) rest
          in
          idx 0 stage.group_asts
      | _ -> None)

let rec compile_post_agg ctx stage (e : Ast.expr) : Expr.t =
  let ngroups = List.length stage.group_asts in
  match group_index_lenient stage e with
  | Some i -> Expr.Field i
  | None -> (
      match e with
      | Ast.Agg (f, distinct, arg) ->
          let spec = (f, distinct, arg) in
          let rec slot i = function
            | [] -> None
            | s :: rest -> if s = spec then Some i else slot (i + 1) rest
          in
          let i =
            match slot 0 stage.specs with
            | Some i -> i
            | None ->
                stage.specs <- stage.specs @ [ spec ];
                List.length stage.specs - 1
          in
          Expr.Field (ngroups + i)
      | Ast.Col (q, c) ->
          err "column %s%s must appear in the GROUP BY clause or be used in an aggregate"
            (match q with None -> "" | Some q -> q ^ ".")
            c
      | Ast.Null_lit -> Expr.Const Value.Null
      | Ast.Int_lit i -> Expr.Const (Value.Int i)
      | Ast.Float_lit f -> Expr.Const (Value.Float f)
      | Ast.Str_lit s -> Expr.Const (Value.Str s)
      | Ast.Bool_lit b -> Expr.Const (Value.Bool b)
      | Ast.Param i -> Expr.Param (i - 1)
      | Ast.Binop (op, a, b) ->
          Expr.Binop (op, compile_post_agg ctx stage a, compile_post_agg ctx stage b)
      | Ast.Unop (op, a) -> Expr.Unop (op, compile_post_agg ctx stage a)
      | Ast.Fn (f, args) -> Expr.Fn (f, List.map (compile_post_agg ctx stage) args)
      | Ast.Case (branches, els) ->
          Expr.Case
            ( List.map
                (fun (c, v) -> (compile_post_agg ctx stage c, compile_post_agg ctx stage v))
                branches,
              Option.map (compile_post_agg ctx stage) els )
      | Ast.In_list (a, items) ->
          Expr.In_list
            (compile_post_agg ctx stage a, List.map (compile_post_agg ctx stage) items)
      | Ast.Between (a, b, c) ->
          Expr.Between
            ( compile_post_agg ctx stage a,
              compile_post_agg ctx stage b,
              compile_post_agg ctx stage c )
      | Ast.Is_null (a, n) -> Expr.Is_null (compile_post_agg ctx stage a, n)
      | Ast.Scalar_subquery _ | Ast.Exists _ -> compile ctx [||] e)

(* ------------------------------------------------------------------ *)
(* Planning                                                            *)
(* ------------------------------------------------------------------ *)

(* Uncorrelated scalar subqueries / EXISTS inside single-table conjuncts
   are evaluated here so the access layer sees plain literals. *)
let rec resolve_subqueries ctx (e : Ast.expr) : Ast.expr =
  let sub = resolve_subqueries ctx in
  match e with
  | Ast.Scalar_subquery q -> (
      match ctx.run_subquery q with
      | [] -> Ast.Null_lit
      | row :: _ ->
          if Array.length row = 1 then Value.to_ast_literal row.(0)
          else err "scalar subquery must return one column")
  | Ast.Exists q -> Ast.Bool_lit (ctx.run_subquery q <> [])
  | Ast.Null_lit | Ast.Int_lit _ | Ast.Float_lit _ | Ast.Str_lit _ | Ast.Bool_lit _
  | Ast.Param _ | Ast.Col _ ->
      e
  | Ast.Binop (op, a, b) -> Ast.Binop (op, sub a, sub b)
  | Ast.Unop (op, a) -> Ast.Unop (op, sub a)
  | Ast.Fn (f, args) -> Ast.Fn (f, List.map sub args)
  | Ast.Agg (f, d, arg) -> Ast.Agg (f, d, Option.map sub arg)
  | Ast.Case (branches, els) ->
      Ast.Case (List.map (fun (c, v) -> (sub c, sub v)) branches, Option.map sub els)
  | Ast.In_list (a, items) -> Ast.In_list (sub a, List.map sub items)
  | Ast.Between (a, b, c) -> Ast.Between (sub a, sub b, sub c)
  | Ast.Is_null (a, n) -> Ast.Is_null (sub a, n)

(* Equality of a column against a literal: the conjunct shape the access
   path builds probes from. *)
let is_eq_const e =
  let is_lit l =
    Ast.columns_of_expr l = []
    && Ast.max_param_expr l = 0
    && not (Ast.expr_has_subquery l)
  in
  match e with
  | Ast.Binop (Ast.Eq, Ast.Col _, rhs) -> is_lit rhs
  | Ast.Binop (Ast.Eq, lhs, Ast.Col _) -> is_lit lhs
  | _ -> false

let scan_of_base ctx heap conjs =
  let conjs = List.map (resolve_subqueries ctx) conjs in
  let stripped = List.map Pred.unqualify conjs in
  match Ast.conjoin stripped with
  | Some w when not (Pred.satisfiable w) ->
      Obs.Counters.bump c_empty_scan;
      Plan.Empty
        {
          empty_width = Schema.arity heap.Heap.schema;
          reason = "predicate is always false";
        }
  | _ ->
      let conjs =
        match Ast.conjoin (List.filter is_eq_const stripped) with
        | None -> conjs
        | Some eq_pred ->
            List.filter_map
              (fun (orig, str) ->
                if (not (is_eq_const str)) && Pred.implies eq_pred str then begin
                  Obs.Counters.bump c_residual_dropped;
                  None
                end
                else Some orig)
              (List.combine conjs stripped)
      in
      let pred = Access.compile_pred heap (Ast.conjoin conjs) in
      (match pred.Access.path with
      | Access.P_eq (idx, key) ->
          Plan.Index_scan
            { table = heap; index = idx; key; filter = pred.Access.residual }
      | Access.P_range (idx, prefix, lo, hi) ->
          Plan.Index_range
            {
              table = heap;
              index = idx;
              prefix;
              lo;
              hi;
              filter = pred.Access.residual;
            }
      | Access.P_full ->
          if watched_table ctx.catalog heap.Heap.name then
            Obs.Counters.bump c_fullscan_under_migration;
          Plan.Seq_scan { table = heap; filter = pred.Access.residual })

(* SELECT MIN(c) / MAX(c) FROM t WHERE <equality conjuncts>: answered by a
   single probe of an ordered index keyed by the pinned columns followed
   by c — the btree fast path TPC-C's Delivery and OrderStatus rely on. *)
let minmax_shortcut ctx (s : Ast.select) : planned option =
  match s.Ast.from with
  | [ Ast.From_table (name, _) ]
    when (not s.Ast.distinct)
         && s.Ast.group_by = []
         && s.Ast.having = None
         && s.Ast.order_by = [] -> (
      match (Catalog.find_table ctx.catalog name, s.Ast.projections) with
      | Some heap, [ Ast.Proj_expr ((Ast.Agg ((Ast.Min | Ast.Max) as fn, false, Some (Ast.Col (_, c))) as agg), alias) ] -> (
          match Schema.col_index heap.Heap.schema c with
          | None -> None
          | Some target ->
              let conjs =
                match s.Ast.where with None -> [] | Some w -> Ast.conjuncts w
              in
              let bindings =
                List.map
                  (fun conj ->
                    match conj with
                    | Ast.Binop (Ast.Eq, Ast.Col (_, col), rhs) -> (
                        match
                          (Schema.col_index heap.Heap.schema col, Access.value_expr_of_ast rhs)
                        with
                        | Some i, Some v -> Some (i, v)
                        | _ -> None)
                    | Ast.Binop (Ast.Eq, lhs, Ast.Col (_, col)) -> (
                        match
                          (Schema.col_index heap.Heap.schema col, Access.value_expr_of_ast lhs)
                        with
                        | Some i, Some v -> Some (i, v)
                        | _ -> None)
                    | _ -> None)
                  conjs
              in
              if List.exists Option.is_none bindings then None
              else begin
                let bindings = List.map Option.get bindings in
                let bound_cols = List.sort_uniq Stdlib.compare (List.map fst bindings) in
                let idx =
                  List.find_opt
                    (fun idx ->
                      Index.kind idx = Index.Ordered
                      &&
                      let cols = Index.key_cols idx in
                      Array.length cols = List.length bound_cols + 1
                      && cols.(Array.length cols - 1) = target
                      && List.for_all
                           (fun bc -> Array.exists (( = ) bc) (Array.sub cols 0 (Array.length cols - 1)))
                           bound_cols)
                    (Heap.indexes heap)
                in
                match idx with
                | None -> None
                | Some idx ->
                    let cols = Index.key_cols idx in
                    let prefix =
                      Array.init
                        (Array.length cols - 1)
                        (fun i -> prep (List.assoc cols.(i) bindings))
                    in
                    let out_name =
                      match alias with
                      | Some a -> a
                      | None -> projection_name (Ast.Proj_expr (agg, None))
                    in
                    Some
                      {
                        plan =
                          Plan.Index_min
                            { table = heap; index = idx; prefix; asc = fn = Ast.Min };
                        output = [| { Plan.cd_qualifier = None; cd_name = out_name } |];
                      }
              end)
      | _ -> None)
  | _ -> None

let rec plan_rel ctx r conjs : Plan.t * Plan.col_desc array =
  match r.source with
  | Base heap ->
      let descs =
        Array.map
          (fun n -> { Plan.cd_qualifier = Some r.alias; cd_name = n })
          (Schema.col_names heap.Heap.schema)
      in
      (scan_of_base ctx heap conjs, descs)
  | Sub q ->
      let { plan; output } = plan_select ctx q in
      let descs =
        Array.map
          (fun (d : Plan.col_desc) ->
            { Plan.cd_qualifier = Some r.alias; cd_name = d.Plan.cd_name })
          output
      in
      let plan =
        match Ast.conjoin conjs with
        | None -> plan
        | Some w -> Plan.Filter (plan, prep (compile ctx descs w))
      in
      (plan, descs)

and plan_joins ctx rels per_rel joins : Plan.t * Plan.col_desc array =
  match rels with
  | [] -> (Plan.Values [ [||] ], [||])
  | first :: rest ->
      let conjs_of alias = try List.assoc alias per_rel with Not_found -> [] in
      let p0, d0 = plan_rel ctx first (conjs_of first.alias) in
      let remaining = ref joins in
      let joined = ref [ first.alias ] in
      List.fold_left
        (fun (acc_plan, acc_descs) r ->
          let p_r, d_r = plan_rel ctx r (conjs_of r.alias) in
          let now_joined = r.alias :: !joined in
          let avail, rest_joins =
            List.partition
              (fun (names, _) -> List.for_all (fun n -> List.mem n now_joined) names)
              !remaining
          in
          remaining := rest_joins;
          joined := now_joined;
          (* Split equality conjuncts usable as hash keys. *)
          let outer_side e = rels_of_expr [ { first with alias = "" } ] e in
          ignore outer_side;
          let is_outer_expr e =
            List.for_all (fun n -> n <> r.alias) (List.map (fun (q, c) ->
                rel_of_col (List.filter (fun rl -> List.mem rl.alias now_joined)
                              (first :: rest)) (q, c))
              (Ast.columns_of_expr e))
          in
          let is_inner_expr e =
            List.for_all (fun n -> n = r.alias)
              (List.map
                 (fun (q, c) ->
                   rel_of_col
                     (List.filter (fun rl -> List.mem rl.alias now_joined) (first :: rest))
                     (q, c))
                 (Ast.columns_of_expr e))
          in
          let keys, residual =
            List.partition_map
              (fun (_, conj) ->
                match conj with
                | Ast.Binop (Ast.Eq, a, b) when is_outer_expr a && is_inner_expr b ->
                    Left (a, b)
                | Ast.Binop (Ast.Eq, a, b) when is_outer_expr b && is_inner_expr a ->
                    Left (b, a)
                | _ -> Right conj)
              avail
          in
          let concat_descs = Array.append acc_descs d_r in
          let cond =
            match Ast.conjoin residual with
            | None -> None
            | Some w -> Some (prep (compile ctx concat_descs w))
          in
          let plan =
            if keys = [] then Plan.Nested_loop { outer = acc_plan; inner = p_r; cond }
            else begin
              let outer_keys =
                Array.of_list (List.map (fun (a, _) -> compile ctx acc_descs a) keys)
              in
              let inner_keys =
                Array.of_list (List.map (fun (_, b) -> compile ctx d_r b) keys)
              in
              (* Prefer an index nested loop when the inner side is a bare
                 base-table scan whose join columns are covered by an index:
                 a small driving set then probes instead of hashing the
                 whole inner table. *)
              let index_nl =
                match p_r with
                | Plan.Seq_scan { table; filter } ->
                    let cols =
                      Array.map
                        (fun e -> match e with Expr.Field i -> i | _ -> -1)
                        inner_keys
                    in
                    if Array.exists (fun i -> i < 0) cols then None
                    else begin
                      let covering = Heap.index_covering table cols in
                      let prefix_idx =
                        match covering with
                        | Some _ -> covering
                        | None ->
                            (* an ordered index whose key prefix is exactly
                               the join columns also supports probing *)
                            List.find_opt
                              (fun idx ->
                                Index.kind idx = Index.Ordered
                                && Array.length (Index.key_cols idx) > Array.length cols
                                &&
                                let sub = Array.sub (Index.key_cols idx) 0 (Array.length cols) in
                                List.sort Stdlib.compare (Array.to_list sub)
                                = List.sort Stdlib.compare (Array.to_list cols))
                              (Heap.indexes table)
                      in
                      match prefix_idx with
                      | None -> None
                      | Some idx ->
                          (* reorder the probe keys to the index's column
                             order (only the leading join columns) *)
                          let icols = Array.sub (Index.key_cols idx) 0 (Array.length cols) in
                          let reordered =
                            Array.map
                              (fun ic ->
                                let rec pos j =
                                  if cols.(j) = ic then outer_keys.(j) else pos (j + 1)
                                in
                                pos 0)
                              icols
                          in
                          Some
                            (Plan.Index_nl_join
                               {
                                 outer = acc_plan;
                                 inner_table = table;
                                 index = idx;
                                 outer_keys = Array.map prep reordered;
                                 inner_filter = filter;
                                 cond;
                               })
                    end
                | _ -> None
              in
              match index_nl with
              | Some plan -> plan
              | None ->
                  Plan.Hash_join
                    {
                      outer = acc_plan;
                      inner = p_r;
                      outer_keys = Array.map prep outer_keys;
                      inner_keys = Array.map prep inner_keys;
                      cond;
                    }
            end
          in
          (plan, concat_descs))
        (p0, d0) rest

and plan_select ctx (s : Ast.select) : planned =
  let s = expand_select ctx s in
  match minmax_shortcut ctx s with
  | Some planned -> planned
  | None ->
  let cls = classify ctx s in
  let joined_plan, joined_descs = plan_joins ctx cls.crels cls.per_rel cls.joins in
  (* Constant conjuncts (no column references). *)
  let joined_plan =
    match Ast.conjoin cls.consts with
    | None -> joined_plan
    | Some w ->
        if not (Pred.satisfiable w) then begin
          Obs.Counters.bump c_empty_scan;
          Plan.Empty
            {
              empty_width = Array.length joined_descs;
              reason = "constant predicate is always false";
            }
        end
        else Plan.Filter (joined_plan, prep (compile ctx joined_descs w))
  in
  let has_agg =
    s.Ast.group_by <> []
    || List.exists
         (fun p -> match p with Ast.Proj_expr (e, _) -> Ast.contains_agg e | _ -> false)
         s.Ast.projections
    || (match s.Ast.having with Some h -> Ast.contains_agg h | None -> false)
  in
  let proj_asts =
    List.map
      (function
        | Ast.Proj_expr (e, _) -> e
        | Ast.Proj_star | Ast.Proj_table_star _ -> assert false)
      s.Ast.projections
  in
  let out_descs =
    Array.of_list
      (List.map
         (fun p -> { Plan.cd_qualifier = None; cd_name = projection_name p })
         s.Ast.projections)
  in
  let pre_plan, pre_descs, proj_exprs, compile_pre =
    if has_agg then begin
      let stage = { group_asts = s.Ast.group_by; specs = [] } in
      let proj_exprs = List.map (compile_post_agg ctx stage) proj_asts in
      let having_expr = Option.map (compile_post_agg ctx stage) s.Ast.having in
      let group =
        Array.of_list (List.map (fun e -> prep (compile ctx joined_descs e)) s.Ast.group_by)
      in
      let aggs =
        Array.of_list
          (List.map
             (fun (f, d, arg) ->
               {
                 Plan.agg_fn = f;
                 agg_distinct = d;
                 agg_arg = Option.map (fun e -> prep (compile ctx joined_descs e)) arg;
               })
             stage.specs)
      in
      let agg_plan = Plan.Aggregate { input = joined_plan; group; aggs } in
      let agg_plan =
        match having_expr with
        | None -> agg_plan
        | Some h -> Plan.Filter (agg_plan, prep h)
      in
      (* Descriptors of the aggregate output, for pre-projection sorting. *)
      let agg_descs =
        Array.append
          (Array.of_list
             (List.mapi
                (fun i g ->
                  match g with
                  | Ast.Col (q, c) -> { Plan.cd_qualifier = q; cd_name = c }
                  | _ -> { Plan.cd_qualifier = None; cd_name = Printf.sprintf "_g%d" i })
                s.Ast.group_by))
          (Array.init (List.length stage.specs) (fun i ->
               { Plan.cd_qualifier = None; cd_name = Printf.sprintf "_agg%d" i }))
      in
      let compile_pre e = compile_post_agg ctx stage e in
      (agg_plan, agg_descs, proj_exprs, compile_pre)
    end
    else
      ( joined_plan,
        joined_descs,
        List.map (compile ctx joined_descs) proj_asts,
        compile ctx joined_descs )
  in
  (* ORDER BY: resolve against the projection output when possible,
     otherwise against the pre-projection row. *)
  let sort_post, sort_pre =
    if s.Ast.order_by = [] then (None, None)
    else begin
      let try_post () =
        try
          Some
            (Array.of_list
               (List.map (fun (e, d) -> (compile ctx out_descs e, d)) s.Ast.order_by))
        with Db_error.Sql_error _ -> None
      in
      match try_post () with
      | Some keys -> (Some keys, None)
      | None ->
          let keys =
            Array.of_list (List.map (fun (e, d) -> (compile_pre e, d)) s.Ast.order_by)
          in
          (None, Some keys)
    end
  in
  ignore pre_descs;
  let plan =
    match sort_pre with
    | None -> pre_plan
    | Some keys ->
        Plan.Sort (pre_plan, Array.map (fun (e, d) -> (prep e, d)) keys)
  in
  let plan = Plan.Project (plan, Array.of_list (List.map prep proj_exprs)) in
  let plan = if s.Ast.distinct then Plan.Distinct plan else plan in
  let plan =
    match sort_post with
    | None -> plan
    | Some keys -> Plan.Sort (plan, Array.map (fun (e, d) -> (prep e, d)) keys)
  in
  let plan = match s.Ast.limit with None -> plan | Some n -> Plan.Limit (plan, n) in
  { plan; output = out_descs }

let compile_const ctx e = compile ctx [||] e

let compile_with_descs ctx descs e = compile ctx descs e

(* ------------------------------------------------------------------ *)
(* Filter extraction for BullFrog                                      *)
(* ------------------------------------------------------------------ *)

let strip_qualifiers e =
  let rec go e =
    match e with
    | Ast.Col (_, c) -> Ast.Col (None, c)
    | Ast.Null_lit | Ast.Int_lit _ | Ast.Float_lit _ | Ast.Str_lit _
    | Ast.Bool_lit _ | Ast.Param _ ->
        e
    | Ast.Binop (op, a, b) -> Ast.Binop (op, go a, go b)
    | Ast.Unop (op, a) -> Ast.Unop (op, go a)
    | Ast.Fn (f, args) -> Ast.Fn (f, List.map go args)
    | Ast.Agg (f, d, arg) -> Ast.Agg (f, d, Option.map go arg)
    | Ast.Case (branches, els) ->
        Ast.Case (List.map (fun (c, v) -> (go c, go v)) branches, Option.map go els)
    | Ast.In_list (a, items) -> Ast.In_list (go a, List.map go items)
    | Ast.Between (a, b, c) -> Ast.Between (go a, go b, go c)
    | Ast.Is_null (a, n) -> Ast.Is_null (go a, n)
    | Ast.Exists _ | Ast.Scalar_subquery _ -> e
  in
  go e

let pushed_base_filters ctx (s : Ast.select) =
  let acc = ref [] in
  let rec go s =
    let s = expand_select ctx s in
    if s.Ast.from = [] then ()
    else begin
      let cls = classify ctx s in
      List.iter
        (fun r ->
          let conjs = try List.assoc r.alias cls.per_rel with Not_found -> [] in
          match r.source with
          | Base heap ->
              acc := (heap.Heap.name, List.map strip_qualifiers conjs) :: !acc
          | Sub q -> go q)
        cls.crels
    end
  in
  go s;
  List.rev !acc
