(* Decision procedure over the SQL predicate language.

   Works on [Ast.expr] directly, abstracting each column by the meet of
   three domains: an interval (lo/hi bounds with inclusivity), an
   equality domain (a finite set of allowed values, plus exclusions),
   and a nullability flag.  Formulas are translated to a bounded DNF of
   atoms; each disjunct folds its atoms into a per-column abstract
   state whose emptiness is decidable.

   Semantics matched are the engine's (lib/db/expr.ml): a row
   "satisfies" a predicate iff it evaluates to TRUE under SQL
   three-valued logic — NULL is not TRUE.  Comparisons, IN and BETWEEN
   propagate NULL; [Value.compare] is a total preorder under which
   [Int] and [Float] compare numerically and values of different kinds
   compare by rank (Null < Bool < numeric < Str < Date < Timestamp).
   The [const] type below mirrors exactly the literal fragment of that
   order, so every verdict is sound for arbitrary stored values
   (including Date/Timestamp, which never appear as literal bounds).

   All entry points are conservative: [satisfiable] may answer [true],
   [implies]/[disjoint]/[covers] may answer [false] when the formula
   leaves the decidable fragment (parameters the env does not supply,
   subqueries, arithmetic over columns, DNF blowup past
   [max_disjuncts]). *)

open Bullfrog_sql

(* ------------------------------------------------------------------ *)
(* Constant domain                                                     *)
(* ------------------------------------------------------------------ *)

type const =
  | C_null
  | C_bool of bool
  | C_int of int
  | C_float of float
  | C_str of string

let rank = function
  | C_null -> 0
  | C_bool _ -> 1
  | C_int _ | C_float _ -> 2
  | C_str _ -> 3

(* Mirrors Value.compare on the literal fragment. *)
let compare_const a b =
  match (a, b) with
  | C_int x, C_int y -> compare x y
  | C_float x, C_float y -> compare x y
  | C_int x, C_float y -> compare (float_of_int x) y
  | C_float x, C_int y -> compare x (float_of_int y)
  | C_bool x, C_bool y -> compare x y
  | C_str x, C_str y -> String.compare x y
  | _ -> compare (rank a) (rank b)

(* [param i] is the literal a call supplies for [$i], if any. *)
type env = { not_null : string -> bool; param : int -> Ast.expr option }

let top_env = { not_null = (fun _ -> false); param = (fun _ -> None) }

let rec const_of_expr env e =
  match e with
  | Ast.Null_lit -> Some C_null
  | Ast.Int_lit i -> Some (C_int i)
  | Ast.Float_lit f -> Some (C_float f)
  | Ast.Str_lit s -> Some (C_str s)
  | Ast.Bool_lit b -> Some (C_bool b)
  | Ast.Unop (Ast.Neg, inner) -> (
      match const_of_expr env inner with
      | Some (C_int i) -> Some (C_int (-i))
      | Some (C_float f) -> Some (C_float (-.f))
      | _ -> None)
  | Ast.Param i -> Option.bind (env.param i) (const_of_expr top_env)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Atoms and formula translation                                       *)
(* ------------------------------------------------------------------ *)

type atom =
  | A_true
  | A_false
  | A_cmp of string * Ast.binop * const
      (* col op const; op ∈ {Eq,Neq,Lt,Le,Gt,Ge}, const non-null; the
         atom is TRUE only for non-null column values *)
  | A_null of string * bool  (* col IS NULL (true) / IS NOT NULL (false) *)
  | A_in of string * const list  (* col ∈ set; consts non-null, non-empty *)
  | A_notin of string * const list  (* col non-null and ∉ set *)
  | A_other of Ast.expr  (* uninterpreted; syntactic identity only *)

type nf = N_atom of atom | N_and of nf list | N_or of nf list

let col_key q n =
  let n = String.lowercase_ascii n in
  match q with None -> n | Some q -> String.lowercase_ascii q ^ "." ^ n

let mk_null env col want_null =
  if want_null && env.not_null col then A_false
  else if (not want_null) && env.not_null col then A_true
  else A_null (col, want_null)

let neg_cmp = function
  | Ast.Eq -> Ast.Neq
  | Ast.Neq -> Ast.Eq
  | Ast.Lt -> Ast.Ge
  | Ast.Le -> Ast.Gt
  | Ast.Gt -> Ast.Le
  | Ast.Ge -> Ast.Lt
  | op -> op

let flip_cmp = function
  | Ast.Lt -> Ast.Gt
  | Ast.Le -> Ast.Ge
  | Ast.Gt -> Ast.Lt
  | Ast.Ge -> Ast.Le
  | op -> op

let is_cmp = function
  | Ast.Eq | Ast.Neq | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge -> true
  | _ -> false

let cmp_holds op a b =
  let c = compare_const a b in
  match op with
  | Ast.Eq -> c = 0
  | Ast.Neq -> c <> 0
  | Ast.Lt -> c < 0
  | Ast.Le -> c <= 0
  | Ast.Gt -> c > 0
  | Ast.Ge -> c >= 0
  | _ -> false

(* Three-valued result of [a op b] over constants (NULL-propagating). *)
let cmp_consts op a b =
  if a = C_null || b = C_null then C_null else C_bool (cmp_holds op a b)

exception Give_up

(* [tr_T e] — the set of rows where [e] evaluates to TRUE;
   [tr_F e] — the set of rows where [e] evaluates to FALSE.
   Unknown shapes become [A_other] markers (opaque but syntactically
   comparable), which keeps both translations total. *)
let rec tr_T env e =
  match e with
  | Ast.Bool_lit b -> N_atom (if b then A_true else A_false)
  | Ast.Null_lit -> N_atom A_false
  | Ast.Binop (Ast.And, a, b) -> N_and [ tr_T env a; tr_T env b ]
  | Ast.Binop (Ast.Or, a, b) -> N_or [ tr_T env a; tr_T env b ]
  | Ast.Unop (Ast.Not, a) -> tr_F env a
  | Ast.Binop (op, l, r) when is_cmp op -> (
      match (l, r, const_of_expr env l, const_of_expr env r) with
      | _, _, Some a, Some b -> (
          match cmp_consts op a b with
          | C_bool true -> N_atom A_true
          | _ -> N_atom A_false)
      | Ast.Col (q, n), _, None, Some c ->
          if c = C_null then N_atom A_false
          else N_atom (A_cmp (col_key q n, op, c))
      | _, Ast.Col (q, n), Some c, None ->
          if c = C_null then N_atom A_false
          else N_atom (A_cmp (col_key q n, flip_cmp op, c))
      | _ -> N_atom (A_other e))
  | Ast.Is_null (inner, want_null) -> (
      match inner with
      | Ast.Col (q, n) -> N_atom (mk_null env (col_key q n) want_null)
      | _ -> (
          match const_of_expr env inner with
          | Some c -> N_atom (if (c = C_null) = want_null then A_true else A_false)
          | None -> N_atom (A_other e)))
  | Ast.In_list (Ast.Col (q, n), items) -> (
      match consts_of env items with
      | None -> N_atom (A_other e)
      | Some cs -> (
          match List.filter (fun c -> c <> C_null) cs with
          | [] -> N_atom A_false
          | vs -> N_atom (A_in (col_key q n, vs))))
  | Ast.Between (Ast.Col (q, n), lo, hi) -> (
      match (const_of_expr env lo, const_of_expr env hi) with
      | Some l, Some h when l <> C_null && h <> C_null ->
          let k = col_key q n in
          N_and [ N_atom (A_cmp (k, Ast.Ge, l)); N_atom (A_cmp (k, Ast.Le, h)) ]
      | Some _, Some _ -> N_atom A_false (* a NULL bound is never TRUE *)
      | _ -> N_atom (A_other e))
  | _ -> N_atom (A_other e)

and tr_F env e =
  match e with
  | Ast.Bool_lit b -> N_atom (if b then A_false else A_true)
  | Ast.Null_lit -> N_atom A_false
  | Ast.Binop (Ast.And, a, b) -> N_or [ tr_F env a; tr_F env b ]
  | Ast.Binop (Ast.Or, a, b) -> N_and [ tr_F env a; tr_F env b ]
  | Ast.Unop (Ast.Not, a) -> tr_T env a
  | Ast.Binop (op, l, r) when is_cmp op -> (
      match (l, r, const_of_expr env l, const_of_expr env r) with
      | _, _, Some a, Some b -> (
          match cmp_consts op a b with
          | C_bool false -> N_atom A_true
          | _ -> N_atom A_false)
      | Ast.Col (q, n), _, None, Some c ->
          if c = C_null then N_atom A_false
          else N_atom (A_cmp (col_key q n, neg_cmp op, c))
      | _, Ast.Col (q, n), Some c, None ->
          if c = C_null then N_atom A_false
          else N_atom (A_cmp (col_key q n, neg_cmp (flip_cmp op), c))
      | _ -> N_atom (A_other (Ast.Unop (Ast.Not, e))))
  | Ast.Is_null (inner, want_null) -> (
      match inner with
      | Ast.Col (q, n) -> N_atom (mk_null env (col_key q n) (not want_null))
      | _ -> (
          match const_of_expr env inner with
          | Some c -> N_atom (if (c = C_null) = want_null then A_false else A_true)
          | None -> N_atom (A_other (Ast.Unop (Ast.Not, e)))))
  | Ast.In_list (Ast.Col (q, n), items) -> (
      match consts_of env items with
      | None -> N_atom (A_other (Ast.Unop (Ast.Not, e)))
      | Some cs ->
          (* FALSE requires: value non-null, no hit, and no NULL item. *)
          if List.exists (fun c -> c = C_null) cs then N_atom A_false
          else
            let k = col_key q n in
            if cs = [] then N_atom (mk_null env k false)
            else N_atom (A_notin (k, cs)))
  | Ast.Between (Ast.Col (q, n), lo, hi) -> (
      match (const_of_expr env lo, const_of_expr env hi) with
      | Some l, Some h when l <> C_null && h <> C_null ->
          let k = col_key q n in
          N_or [ N_atom (A_cmp (k, Ast.Lt, l)); N_atom (A_cmp (k, Ast.Gt, h)) ]
      | Some _, Some _ -> N_atom A_false
      | _ -> N_atom (A_other (Ast.Unop (Ast.Not, e))))
  | _ -> N_atom (A_other (Ast.Unop (Ast.Not, e)))

and consts_of env items =
  let rec go acc = function
    | [] -> Some (List.rev acc)
    | it :: rest -> (
        match const_of_expr env it with
        | Some c -> go (c :: acc) rest
        | None -> None)
  in
  go [] items

(* [tr_nT e] — the rows where [e] is NOT TRUE (FALSE or NULL); used to
   complement predicates for coverage proofs.  Raises [Give_up] outside
   the interpreted fragment: an opaque complement would be unsound. *)
let rec tr_nT env e =
  match e with
  | Ast.Bool_lit b -> N_atom (if b then A_false else A_true)
  | Ast.Null_lit -> N_atom A_true
  | Ast.Binop (Ast.And, a, b) -> N_or [ tr_nT env a; tr_nT env b ]
  | Ast.Binop (Ast.Or, a, b) -> N_and [ tr_nT env a; tr_nT env b ]
  | Ast.Unop (Ast.Not, a) -> tr_nF env a
  | Ast.Binop (op, l, r) when is_cmp op -> (
      match (l, r, const_of_expr env l, const_of_expr env r) with
      | _, _, Some a, Some b -> (
          match cmp_consts op a b with
          | C_bool true -> N_atom A_false
          | _ -> N_atom A_true)
      | Ast.Col (q, n), _, None, Some c when c <> C_null ->
          let k = col_key q n in
          N_or [ N_atom (mk_null env k true); N_atom (A_cmp (k, neg_cmp op, c)) ]
      | _, Ast.Col (q, n), Some c, None when c <> C_null ->
          let k = col_key q n in
          N_or
            [ N_atom (mk_null env k true);
              N_atom (A_cmp (k, neg_cmp (flip_cmp op), c))
            ]
      | Ast.Col _, _, None, Some _ | _, Ast.Col _, Some _, None ->
          N_atom A_true (* comparison with NULL is never TRUE *)
      | _ -> raise Give_up)
  | Ast.Is_null (inner, want_null) -> (
      match inner with
      | Ast.Col (q, n) -> N_atom (mk_null env (col_key q n) (not want_null))
      | _ -> (
          match const_of_expr env inner with
          | Some c -> N_atom (if (c = C_null) = want_null then A_false else A_true)
          | None -> raise Give_up))
  | Ast.In_list (Ast.Col (q, n), items) -> (
      match consts_of env items with
      | None -> raise Give_up
      | Some cs -> (
          let k = col_key q n in
          match List.filter (fun c -> c <> C_null) cs with
          | [] -> N_atom A_true
          | vs -> N_or [ N_atom (mk_null env k true); N_atom (A_notin (k, vs)) ]))
  | Ast.Between (Ast.Col (q, n), lo, hi) -> (
      match (const_of_expr env lo, const_of_expr env hi) with
      | Some l, Some h when l <> C_null && h <> C_null ->
          let k = col_key q n in
          N_or
            [ N_atom (mk_null env k true);
              N_atom (A_cmp (k, Ast.Lt, l));
              N_atom (A_cmp (k, Ast.Gt, h))
            ]
      | Some _, Some _ -> N_atom A_true
      | _ -> raise Give_up)
  | _ -> raise Give_up

and tr_nF env e =
  match e with
  | Ast.Bool_lit b -> N_atom (if b then A_true else A_false)
  | Ast.Null_lit -> N_atom A_true
  | Ast.Binop (Ast.And, a, b) -> N_and [ tr_nF env a; tr_nF env b ]
  | Ast.Binop (Ast.Or, a, b) -> N_or [ tr_nF env a; tr_nF env b ]
  | Ast.Unop (Ast.Not, a) -> tr_nT env a
  | Ast.Binop (op, l, r) when is_cmp op -> (
      match (l, r, const_of_expr env l, const_of_expr env r) with
      | _, _, Some a, Some b -> (
          match cmp_consts op a b with
          | C_bool false -> N_atom A_false
          | _ -> N_atom A_true)
      | Ast.Col (q, n), _, None, Some c when c <> C_null ->
          let k = col_key q n in
          N_or [ N_atom (mk_null env k true); N_atom (A_cmp (k, op, c)) ]
      | _, Ast.Col (q, n), Some c, None when c <> C_null ->
          let k = col_key q n in
          N_or [ N_atom (mk_null env k true); N_atom (A_cmp (k, flip_cmp op, c)) ]
      | Ast.Col _, _, None, Some _ | _, Ast.Col _, Some _, None -> N_atom A_true
      | _ -> raise Give_up)
  | Ast.Is_null (inner, want_null) -> (
      match inner with
      | Ast.Col (q, n) -> N_atom (mk_null env (col_key q n) want_null)
      | _ -> (
          match const_of_expr env inner with
          | Some c -> N_atom (if (c = C_null) = want_null then A_true else A_false)
          | None -> raise Give_up))
  | Ast.In_list (Ast.Col (q, n), items) -> (
      match consts_of env items with
      | None -> raise Give_up
      | Some cs ->
          if List.exists (fun c -> c = C_null) cs then N_atom A_true
          else if cs = [] then N_atom (mk_null env (col_key q n) true)
          else
            let k = col_key q n in
            N_or [ N_atom (mk_null env k true); N_atom (A_in (k, cs)) ])
  | Ast.Between (Ast.Col (q, n), lo, hi) -> (
      match (const_of_expr env lo, const_of_expr env hi) with
      | Some l, Some h when l <> C_null && h <> C_null ->
          let k = col_key q n in
          N_or
            [ N_atom (mk_null env k true);
              N_and [ N_atom (A_cmp (k, Ast.Ge, l)); N_atom (A_cmp (k, Ast.Le, h)) ]
            ]
      | Some _, Some _ -> N_atom A_true
      | _ -> raise Give_up)
  | _ -> raise Give_up

(* ------------------------------------------------------------------ *)
(* Bounded DNF                                                         *)
(* ------------------------------------------------------------------ *)

let max_disjuncts = 64

let dnf n =
  let rec go = function
    | N_atom a -> [ [ a ] ]
    | N_or ls ->
        let ds = List.concat_map go ls in
        if List.length ds > max_disjuncts then raise Give_up else ds
    | N_and ls ->
        List.fold_left
          (fun acc l ->
            let ds = go l in
            let prod =
              List.concat_map (fun c -> List.map (fun d -> c @ d) ds) acc
            in
            if List.length prod > max_disjuncts then raise Give_up else prod)
          [ [] ] ls
  in
  go n

(* ------------------------------------------------------------------ *)
(* Per-column abstract state                                           *)
(* ------------------------------------------------------------------ *)

module SM = Map.Make (String)

type bound = const * bool (* value, inclusive *)

type dom = {
  d_null : bool option; (* Some true = must be NULL; Some false = non-NULL *)
  d_lo : bound option;
  d_hi : bound option;
  d_in : const list option; (* allowed finite set *)
  d_excl : const list; (* excluded values *)
}

let empty_dom = { d_null = None; d_lo = None; d_hi = None; d_in = None; d_excl = [] }

let has_value_constraint d =
  d.d_lo <> None || d.d_hi <> None || d.d_in <> None || d.d_excl <> []

type state = { doms : dom SM.t; others : Ast.expr list }

let dom_of st c = match SM.find_opt c st.doms with Some d -> d | None -> empty_dom

(* Is [v] consistent with the interval / exclusion constraints of [d]? *)
let value_ok d v =
  (match d.d_lo with
  | None -> true
  | Some (l, incl) ->
      let c = compare_const l v in
      c < 0 || (c = 0 && incl))
  && (match d.d_hi with
     | None -> true
     | Some (h, incl) ->
         let c = compare_const v h in
         c < 0 || (c = 0 && incl))
  && not (List.exists (fun u -> compare_const u v = 0) d.d_excl)

let interval_nonempty d =
  match (d.d_lo, d.d_hi) with
  | Some (l, li), Some (h, hi) ->
      let c = compare_const l h in
      c < 0 || (c = 0 && li && hi)
  | _ -> true

(* The single value a feasible dom is pinned to, if any. *)
let pinned d =
  match d.d_in with
  | Some [ v ] -> Some v
  | Some _ | None -> (
      match (d.d_lo, d.d_hi) with
      | Some (l, true), Some (h, true) when compare_const l h = 0 -> Some l
      | _ -> None)

let feasible_dom d =
  if d.d_null = Some true then not (has_value_constraint d)
  else
    interval_nonempty d
    &&
    match d.d_in with
    | Some vs -> List.exists (value_ok d) vs
    | None -> ( match pinned d with Some v -> value_ok d v | None -> true)

let tighten_lo cur (v, incl) =
  match cur with
  | None -> Some (v, incl)
  | Some (u, ui) ->
      let c = compare_const v u in
      if c > 0 then Some (v, incl)
      else if c < 0 then Some (u, ui)
      else Some (u, ui && incl)

let tighten_hi cur (v, incl) =
  match cur with
  | None -> Some (v, incl)
  | Some (u, ui) ->
      let c = compare_const v u in
      if c < 0 then Some (v, incl)
      else if c > 0 then Some (u, ui)
      else Some (u, ui && incl)

let inter_in cur vs =
  match cur with
  | None -> Some vs
  | Some ws ->
      Some (List.filter (fun w -> List.exists (fun v -> compare_const v w = 0) vs) ws)

(* Fold one atom into the state; [None] on contradiction. *)
let add_atom st a =
  let value_atom c upd =
    let d = dom_of st c in
    if d.d_null = Some true then None
    else
      let d = upd { d with d_null = Some false } in
      if feasible_dom d then Some { st with doms = SM.add c d st.doms } else None
  in
  match a with
  | A_true -> Some st
  | A_false -> None
  | A_null (c, true) ->
      let d = dom_of st c in
      if d.d_null = Some false || has_value_constraint d then None
      else Some { st with doms = SM.add c { d with d_null = Some true } st.doms }
  | A_null (c, false) ->
      let d = dom_of st c in
      if d.d_null = Some true then None
      else Some { st with doms = SM.add c { d with d_null = Some false } st.doms }
  | A_cmp (c, Ast.Eq, v) -> value_atom c (fun d -> { d with d_in = inter_in d.d_in [ v ] })
  | A_cmp (c, Ast.Neq, v) -> value_atom c (fun d -> { d with d_excl = v :: d.d_excl })
  | A_cmp (c, Ast.Lt, v) -> value_atom c (fun d -> { d with d_hi = tighten_hi d.d_hi (v, false) })
  | A_cmp (c, Ast.Le, v) -> value_atom c (fun d -> { d with d_hi = tighten_hi d.d_hi (v, true) })
  | A_cmp (c, Ast.Gt, v) -> value_atom c (fun d -> { d with d_lo = tighten_lo d.d_lo (v, false) })
  | A_cmp (c, Ast.Ge, v) -> value_atom c (fun d -> { d with d_lo = tighten_lo d.d_lo (v, true) })
  | A_cmp (_, _, _) -> Some st (* non-comparison binop cannot occur *)
  | A_in (c, vs) -> value_atom c (fun d -> { d with d_in = inter_in d.d_in vs })
  | A_notin (c, vs) -> value_atom c (fun d -> { d with d_excl = vs @ d.d_excl })
  | A_other e -> Some { st with others = e :: st.others }

let build_state atoms =
  let rec go st = function
    | [] -> Some st
    | a :: rest -> ( match add_atom st a with None -> None | Some st -> go st rest)
  in
  go { doms = SM.empty; others = [] } atoms

(* ------------------------------------------------------------------ *)
(* Entailment: every model of [st] satisfies the atom                  *)
(* ------------------------------------------------------------------ *)

let possible_set d =
  (* the finite set of values a column may take, when known *)
  match d.d_in with
  | Some vs -> Some (List.filter (value_ok d) vs)
  | None -> ( match pinned d with Some v when value_ok d v -> Some [ v ] | _ -> None)

let entails st a =
  match a with
  | A_true -> true
  | A_false -> false
  | A_null (c, want) -> (dom_of st c).d_null = Some want
  | A_cmp (c, op, v) -> (
      let d = dom_of st c in
      d.d_null = Some false
      &&
      match possible_set d with
      | Some ws -> ws <> [] && List.for_all (fun w -> cmp_holds op w v) ws
      | None -> (
          match op with
          | Ast.Lt -> (
              match d.d_hi with
              | Some (h, incl) ->
                  let c' = compare_const h v in
                  c' < 0 || (c' = 0 && not incl)
              | None -> false)
          | Ast.Le -> (
              match d.d_hi with
              | Some (h, _) -> compare_const h v <= 0
              | None -> false)
          | Ast.Gt -> (
              match d.d_lo with
              | Some (l, incl) ->
                  let c' = compare_const l v in
                  c' > 0 || (c' = 0 && not incl)
              | None -> false)
          | Ast.Ge -> (
              match d.d_lo with
              | Some (l, _) -> compare_const l v >= 0
              | None -> false)
          | Ast.Neq -> not (value_ok d v)
          | _ -> false))
  | A_in (c, vs) -> (
      let d = dom_of st c in
      d.d_null = Some false
      &&
      match possible_set d with
      | Some ws ->
          ws <> []
          && List.for_all (fun w -> List.exists (fun v -> compare_const v w = 0) vs) ws
      | None -> false)
  | A_notin (c, vs) -> (
      let d = dom_of st c in
      d.d_null = Some false
      &&
      match possible_set d with
      | Some ws ->
          ws <> []
          && List.for_all
               (fun w -> not (List.exists (fun v -> compare_const v w = 0) vs))
               ws
      | None -> List.for_all (fun v -> not (value_ok d v)) vs)
  | A_other e -> List.exists (fun o -> o = e) st.others

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

let feasible_disjuncts env e =
  dnf (tr_T env e) |> List.filter_map build_state

let satisfiable ?(env = top_env) e =
  match feasible_disjuncts env e with
  | [] -> false
  | _ :: _ -> true
  | exception Give_up -> true

let implies ?(env = top_env) p q =
  match
    let dp = feasible_disjuncts env p in
    let dq = dnf (tr_T env q) in
    List.for_all
      (fun st -> List.exists (fun cq -> List.for_all (entails st) cq) dq)
      dp
  with
  | r -> r
  | exception Give_up -> false

let disjoint ?(env = top_env) p q =
  match
    let dp = dnf (tr_T env p) in
    let dq = dnf (tr_T env q) in
    List.for_all
      (fun cp -> List.for_all (fun cq -> build_state (cp @ cq) = None) dq)
      dp
  with
  | r -> r
  | exception Give_up -> false

let expr_of_const = function
  | C_null -> Ast.Null_lit
  | C_bool b -> Ast.Bool_lit b
  | C_int i -> Ast.Int_lit i
  | C_float f -> Ast.Float_lit f
  | C_str s -> Ast.Str_lit s

(* The finite set of values [col] can take in a row satisfying [e], when
   provable: every feasible disjunct must pin the column to a finite
   non-null set.  [Some []] means no row satisfies [e] at all; [None]
   means the set is not provably finite (caller must assume any value).
   This is what hash routing keys on: a provably-pinned partition column
   maps a predicate to an exact shard set. *)
let pinned_values ?(env = top_env) e col =
  let col = String.lowercase_ascii col in
  match feasible_disjuncts env e with
  | exception Give_up -> None
  | [] -> Some []
  | states ->
      let per_state st =
        let d = dom_of st col in
        if d.d_null = Some true then None
        else
          match possible_set d with
          | Some (_ :: _ as vs) -> Some vs
          | Some [] | None -> None
      in
      let rec go acc = function
        | [] ->
            Some (List.rev_map expr_of_const acc)
        | st :: rest -> (
            match per_state st with
            | None -> None
            | Some vs ->
                let acc =
                  List.fold_left
                    (fun acc v ->
                      if List.exists (fun u -> compare_const u v = 0) acc then acc
                      else v :: acc)
                    acc vs
                in
                go acc rest)
      in
      go [] states

let covers ?(env = top_env) preds =
  match preds with
  | [] -> false
  | _ -> (
      match
        let n = N_and (List.map (tr_nT env) preds) in
        not (List.exists (fun c -> build_state c <> None) (dnf n))
      with
      | r -> r
      | exception Give_up -> false)

(* ------------------------------------------------------------------ *)
(* Normalisation                                                       *)
(* ------------------------------------------------------------------ *)

(* Structural simplification preserving three-valued semantics (not
   just TRUE-satisfaction): flattening, idempotence, constant folding,
   double negation, De Morgan, and negation pushdown through
   NULL-propagating comparisons. *)
let rec normalize e =
  match e with
  | Ast.Binop (Ast.And, _, _) -> (
      let cs = List.concat_map (fun c -> Ast.conjuncts (normalize c)) (Ast.conjuncts e) in
      if List.exists (fun c -> c = Ast.Bool_lit false) cs then Ast.Bool_lit false
      else
        let cs = List.filter (fun c -> c <> Ast.Bool_lit true) cs in
        let cs = dedupe cs in
        match Ast.conjoin cs with None -> Ast.Bool_lit true | Some e' -> e')
  | Ast.Binop (Ast.Or, _, _) -> (
      let ds = List.concat_map (fun d -> disjuncts_of (normalize d)) (disjuncts_of e) in
      if List.exists (fun d -> d = Ast.Bool_lit true) ds then Ast.Bool_lit true
      else
        let ds = List.filter (fun d -> d <> Ast.Bool_lit false) ds in
        let ds = dedupe ds in
        match ds with
        | [] -> Ast.Bool_lit false
        | d :: rest -> List.fold_left (fun acc x -> Ast.Binop (Ast.Or, acc, x)) d rest)
  | Ast.Unop (Ast.Not, a) -> (
      match normalize a with
      | Ast.Bool_lit b -> Ast.Bool_lit (not b)
      | Ast.Null_lit -> Ast.Null_lit
      | Ast.Unop (Ast.Not, inner) -> inner
      | Ast.Binop (Ast.And, x, y) ->
          normalize (Ast.Binop (Ast.Or, Ast.Unop (Ast.Not, x), Ast.Unop (Ast.Not, y)))
      | Ast.Binop (Ast.Or, x, y) ->
          normalize (Ast.Binop (Ast.And, Ast.Unop (Ast.Not, x), Ast.Unop (Ast.Not, y)))
      | Ast.Binop (op, x, y) when is_cmp op -> Ast.Binop (neg_cmp op, x, y)
      | Ast.Is_null (x, want) -> Ast.Is_null (x, not want)
      | a' -> Ast.Unop (Ast.Not, a')
  )
  | Ast.Binop (op, l, r) when is_cmp op -> (
      let l = normalize l and r = normalize r in
      match (const_of_expr top_env l, const_of_expr top_env r) with
      | Some a, Some b -> (
          match cmp_consts op a b with
          | C_bool b' -> Ast.Bool_lit b'
          | _ -> Ast.Null_lit)
      | _ -> Ast.Binop (op, l, r))
  | Ast.In_list (a, items) -> Ast.In_list (normalize a, List.map normalize items)
  | Ast.Between (a, lo, hi) -> Ast.Between (normalize a, normalize lo, normalize hi)
  | Ast.Is_null (a, want) -> (
      match const_of_expr top_env a with
      | Some c -> Ast.Bool_lit ((c = C_null) = want)
      | None -> Ast.Is_null (normalize a, want))
  | _ -> e

and disjuncts_of = function
  | Ast.Binop (Ast.Or, a, b) -> disjuncts_of a @ disjuncts_of b
  | e -> [ e ]

and dedupe es =
  List.fold_left (fun acc x -> if List.mem x acc then acc else x :: acc) [] es
  |> List.rev

(* Drop table qualifiers so single-table predicates agree on column
   keys regardless of how they were written. *)
let rec unqualify e =
  match e with
  | Ast.Col (Some _, n) -> Ast.Col (None, n)
  | Ast.Null_lit | Ast.Int_lit _ | Ast.Float_lit _ | Ast.Str_lit _ | Ast.Bool_lit _
  | Ast.Param _ | Ast.Col (None, _) ->
      e
  | Ast.Binop (op, a, b) -> Ast.Binop (op, unqualify a, unqualify b)
  | Ast.Unop (op, a) -> Ast.Unop (op, unqualify a)
  | Ast.Fn (f, args) -> Ast.Fn (f, List.map unqualify args)
  | Ast.Agg (f, d, arg) -> Ast.Agg (f, d, Option.map unqualify arg)
  | Ast.Case (branches, els) ->
      Ast.Case
        ( List.map (fun (c, v) -> (unqualify c, unqualify v)) branches,
          Option.map unqualify els )
  | Ast.In_list (a, es) -> Ast.In_list (unqualify a, List.map unqualify es)
  | Ast.Between (a, b, c) -> Ast.Between (unqualify a, unqualify b, unqualify c)
  | Ast.Is_null (a, w) -> Ast.Is_null (unqualify a, w)
  | Ast.Exists _ | Ast.Scalar_subquery _ -> e
