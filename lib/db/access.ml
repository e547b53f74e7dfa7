open Bullfrog_sql

(* Index keys and range bounds are compiled run-time expressions
   (constants or positional parameters) so that one compiled access path
   serves every parameter binding of a cached statement. *)
type path =
  | P_full
  | P_eq of Index.t * Expr.cexpr array
  | P_range of Index.t * Expr.cexpr array * Expr.cexpr option * Expr.cexpr option

type pred = {
  path : path;
  residual : Expr.cexpr option;
}

(* A literal or parameter usable as an index key / range bound. *)
let value_expr_of_ast (e : Ast.expr) =
  match Value.of_ast_literal e with
  | Some v -> Some (Expr.Const v)
  | None -> ( match e with Ast.Param i -> Some (Expr.Param (i - 1)) | _ -> None)

(* An equality conjunct [col = const-or-param] (either orientation). *)
let equality_binding table (e : Ast.expr) =
  match e with
  | Ast.Binop (Ast.Eq, Ast.Col (_, c), rhs) -> (
      match (Schema.col_index table.Heap.schema c, value_expr_of_ast rhs) with
      | Some i, Some v -> Some (i, v)
      | _ -> None)
  | Ast.Binop (Ast.Eq, lhs, Ast.Col (_, c)) -> (
      match (Schema.col_index table.Heap.schema c, value_expr_of_ast lhs) with
      | Some i, Some v -> Some (i, v)
      | _ -> None)
  | _ -> None

(* A range conjunct over a column: (col index, op-normalised-to-col-left,
   bound expr).  [col > 5] and [5 < col] both come out as (col, Gt, 5). *)
let range_binding table (e : Ast.expr) =
  let flip = function
    | Ast.Lt -> Ast.Gt
    | Ast.Le -> Ast.Ge
    | Ast.Gt -> Ast.Lt
    | Ast.Ge -> Ast.Le
    | op -> op
  in
  match e with
  | Ast.Binop ((Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge) as op, Ast.Col (_, c), rhs) -> (
      match (Schema.col_index table.Heap.schema c, value_expr_of_ast rhs) with
      | Some i, Some v -> Some (i, op, v)
      | _ -> None)
  | Ast.Binop ((Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge) as op, lhs, Ast.Col (_, c)) -> (
      match (Schema.col_index table.Heap.schema c, value_expr_of_ast lhs) with
      | Some i, Some v -> Some (i, flip op, v)
      | _ -> None)
  | _ -> None

let compile_pred table where =
  match where with
  | None -> { path = P_full; residual = None }
  | Some w ->
      let conjs = Ast.conjuncts w in
      let bindings = List.filter_map (equality_binding table) conjs in
      let binding_for col = List.assoc_opt col bindings in
      (* 1. Fully-pinned index (hash or ordered). *)
      let full_match =
        List.filter_map
          (fun idx ->
            let cols = Index.key_cols idx in
            let vals = Array.map binding_for cols in
            if Array.for_all Option.is_some vals then
              Some (idx, Array.map Option.get vals)
            else None)
          (Heap.indexes table)
        |> List.fold_left
             (fun acc (idx, key) ->
               match acc with
               | None -> Some (idx, key)
               | Some (best, _) ->
                   if
                     Array.length (Index.key_cols idx) > Array.length (Index.key_cols best)
                     || (Index.is_unique idx && not (Index.is_unique best))
                   then Some (idx, key)
                   else acc)
             None
      in
      let eq_path =
        Option.map
          (fun (idx, key) ->
            let consumed =
              List.filter
                (fun conj ->
                  match equality_binding table conj with
                  | Some (i, _) -> Array.exists (( = ) i) (Index.key_cols idx)
                  | None -> false)
                conjs
            in
            (P_eq (idx, Array.map Expr.prepare key), consumed, Array.length (Index.key_cols idx)))
          full_match
      in
      let range_path =
        match () with
        | () -> (
            (* 2. Ordered index with the longest pinned prefix. *)
            let candidate idx =
              if Index.kind idx <> Index.Ordered then None
              else begin
                let cols = Index.key_cols idx in
                let rec prefix_len i =
                  if i >= Array.length cols then i
                  else
                    match binding_for cols.(i) with
                    | Some _ -> prefix_len (i + 1)
                    | None -> i
                in
                let n = prefix_len 0 in
                if n = 0 && Array.length cols > 0 then
                  (* No pinned prefix: usable only if the first column has
                     range bounds. *)
                  let ranged =
                    List.exists
                      (fun c ->
                        match range_binding table c with
                        | Some (i, _, _) -> i = cols.(0)
                        | None -> false)
                      conjs
                  in
                  if ranged then Some (idx, 0) else None
                else if n > 0 && n < Array.length cols then Some (idx, n)
                else None
              end
            in
            let best =
              List.fold_left
                (fun acc idx ->
                  match candidate idx with
                  | None -> acc
                  | Some (idx, n) -> (
                      match acc with
                      | Some (_, n') when n' >= n -> acc
                      | _ -> Some (idx, n)))
                None (Heap.indexes table)
            in
            match best with
            | None -> None
            | Some (idx, n) ->
                let cols = Index.key_cols idx in
                let prefix = Array.init n (fun i -> Option.get (binding_for cols.(i))) in
                let next_col = cols.(n) in
                (* Bounds on the next key column.  Only [>=] tightens the
                   inclusive lower bound and [<] the exclusive upper bound
                   losslessly; [>] and [<=] are used as loose bounds and
                   kept in the residual filter.  Two constant bounds can be
                   compared and merged at plan time; a parameter bound can
                   only fill an empty slot, and when bounds cannot be
                   compared the conjunct stays in the residual. *)
                let lo = ref None and hi = ref None and consumed = ref [] in
                List.iter
                  (fun conj ->
                    match range_binding table conj with
                    | Some (i, op, b) when i = next_col -> (
                        match op with
                        | Ast.Ge -> (
                            match (!lo, b) with
                            | None, _ ->
                                lo := Some b;
                                consumed := conj :: !consumed
                            | Some (Expr.Const v'), Expr.Const v ->
                                if Value.compare v v' > 0 then lo := Some b;
                                consumed := conj :: !consumed
                            | Some _, _ -> () (* incomparable; residual only *))
                        | Ast.Gt -> if !lo = None then lo := Some b (* loose; keep conj *)
                        | Ast.Lt -> (
                            match (!hi, b) with
                            | None, _ ->
                                hi := Some b;
                                consumed := conj :: !consumed
                            | Some (Expr.Const v'), Expr.Const v ->
                                if Value.compare v v' < 0 then hi := Some b;
                                consumed := conj :: !consumed
                            | Some _, _ -> () (* incomparable; residual only *))
                        | Ast.Le -> () (* cannot express inclusively; residual only *)
                        | _ -> ())
                    | _ -> ())
                  conjs;
                let eq_consumed =
                  List.filter
                    (fun conj ->
                      match equality_binding table conj with
                      | Some (i, _) ->
                          Array.exists (( = ) i) (Array.sub cols 0 n)
                      | None -> false)
                    conjs
                in
                let prep = Expr.prepare in
                Some
                  ( P_range (idx, Array.map prep prefix, Option.map prep !lo, Option.map prep !hi),
                    eq_consumed @ !consumed,
                    n,
                    !lo <> None || !hi <> None ))
      in
      (* A bounded range over at least as long a pinned prefix narrows the
         fetch more than a shorter full-equality index. *)
      let path, consumed =
        match (eq_path, range_path) with
        | Some (p, c, _), None -> (p, c)
        | None, Some (p, c, _, _) -> (p, c)
        | None, None -> (P_full, [])
        | Some (pe, ce, eq_len), Some (pr, cr, prefix_len, bounded) ->
            if bounded && prefix_len >= eq_len then (pr, cr) else (pe, ce)
      in
      let residual_conjs = List.filter (fun c -> not (List.memq c consumed)) conjs in
      let residual =
        match Ast.conjoin residual_conjs with
        | None -> None
        | Some e ->
            Some (Expr.prepare (Expr.const_fold (Schema.compile_expr table.Heap.schema e)))
      in
      { path; residual }

let key_value params (e : Expr.cexpr) = e.Expr.ce_eval params [||]

(* [latest] reads every slot's newest version — uncommitted writes of
   every transaction included.  SQL reads never use it; BullFrog's
   interception does: a granule-candidate scan runs mid-client-transaction
   and must see the client's in-flight input rows (trigger semantics),
   exactly as the pre-MVCC heap did. *)

let fetch_tids ~keep ~latest (txn : Txn.t) table tids =
  let c = txn.Txn.counters in
  let fetch tid =
    if latest then Heap.get table tid
    else Heap.snapshot_get table ~ts:txn.Txn.snapshot ~reader:txn.Txn.id tid
  in
  let out = ref [] in
  Index.iter_sorted_tids
    (fun tid ->
      match fetch tid with
      | None -> ()
      | Some row ->
          c.Txn.rows_read <- c.Txn.rows_read + 1;
          if keep row then out := (tid, row) :: !out)
    tids;
  List.rev !out

(* The residual is staged once per call; only a residual test counts as
   a scan. *)
let staged_residual params (txn : Txn.t) pred =
  let c = txn.Txn.counters in
  match pred.residual with
  | None -> fun _ -> true
  | Some f ->
      let holds = (f.Expr.ce_pred params).Expr.holds in
      fun row ->
        c.Txn.rows_scanned <- c.Txn.rows_scanned + 1;
        holds row

let select_listed ?(params = [||]) ?(latest = false) txn table pred tids =
  fetch_tids ~keep:(staged_residual params txn pred) ~latest txn table tids

let select_tids ?(params = [||]) ?(latest = false) ?ranges (txn : Txn.t) table pred =
  let c = txn.Txn.counters in
  match pred.path with
  | P_eq (idx, key) ->
      c.Txn.index_probes <- c.Txn.index_probes + 1;
      let keep = staged_residual params txn pred in
      fetch_tids ~keep ~latest txn table (Index.find idx (Array.map (key_value params) key))
  | P_range (idx, prefix, lo, hi) ->
      c.Txn.index_probes <- c.Txn.index_probes + 1;
      let keep = staged_residual params txn pred in
      let prefix = Array.map (key_value params) prefix in
      let lo = Option.map (key_value params) lo in
      let hi = Option.map (key_value params) hi in
      let tids =
        Index.fold_prefix_range idx ~prefix ?lo ?hi ~init:[]
          ~f:(fun acc _key tids -> tids @ acc)
          ()
      in
      fetch_tids ~keep ~latest txn table tids
  | P_full ->
      (* the residual is tested inside the scan loop, with the counts of
         [staged_residual] and [fetch_tids]: a tested row is scanned, a
         kept one read *)
      let filter = Expr.bind_filter pred.residual params in
      let tested = pred.residual <> None in
      let count scanned kept =
        if tested then c.Txn.rows_scanned <- c.Txn.rows_scanned + scanned;
        c.Txn.rows_read <- c.Txn.rows_read + kept
      in
      let out = ref [] in
      let visit tid row = out := (tid, row) :: !out in
      let ts, reader =
        if latest then (max_int, Heap.latest) else (txn.Txn.snapshot, txn.Txn.id)
      in
      (match ranges with
      | None -> Heap.scan table ~ts ~reader ~filter ~count visit
      | Some next ->
          let n = Heap.tid_count table in
          let rec walk tid =
            if tid < n then
              match next tid with
              | None -> ()
              | Some (lo, hi) ->
                  Heap.scan ~lo ~hi table ~ts ~reader ~filter ~count visit;
                  walk (max hi (lo + 1))
          in
          walk 0);
      List.rev !out

let scan_pred ?params ?latest ?ranges txn table where =
  select_tids ?params ?latest ?ranges txn table (compile_pred table where)

let count_matching txn table where = List.length (scan_pred txn table where)
