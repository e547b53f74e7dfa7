type col_desc = { cd_qualifier : string option; cd_name : string }

type agg_spec = {
  agg_fn : Bullfrog_sql.Ast.agg_fn;
  agg_distinct : bool;
  agg_arg : Expr.cexpr option;
}

(* Physical plan nodes hold compiled expressions ([Expr.cexpr]): the
   closure is built once at plan time and reused for every row and —
   via the statement cache — every execution of the statement. *)
type t =
  | Seq_scan of { table : Heap.t; filter : Expr.cexpr option }
  | Index_scan of {
      table : Heap.t;
      index : Index.t;
      key : Expr.cexpr array;
      filter : Expr.cexpr option;
    }
  | Index_range of {
      table : Heap.t;
      index : Index.t;
      prefix : Expr.cexpr array;
      lo : Expr.cexpr option;
      hi : Expr.cexpr option;
      filter : Expr.cexpr option;
    }
  | Index_min of {
      table : Heap.t;
      index : Index.t;
      prefix : Expr.cexpr array;
      asc : bool;
    }
  | Nested_loop of { outer : t; inner : t; cond : Expr.cexpr option }
  | Index_nl_join of {
      outer : t;
      inner_table : Heap.t;
      index : Index.t;
      outer_keys : Expr.cexpr array;
      inner_filter : Expr.cexpr option;
      cond : Expr.cexpr option;
    }
  | Hash_join of {
      outer : t;
      inner : t;
      outer_keys : Expr.cexpr array;
      inner_keys : Expr.cexpr array;
      cond : Expr.cexpr option;
    }
  | Filter of t * Expr.cexpr
  | Project of t * Expr.cexpr array
  | Aggregate of { input : t; group : Expr.cexpr array; aggs : agg_spec array }
  | Sort of t * (Expr.cexpr * Bullfrog_sql.Ast.order_dir) array
  | Distinct of t
  | Limit of t * int
  | Values of Value.t array list
  | Empty of { empty_width : int; reason : string }
      (* plan lint proved the predicate unsatisfiable: no rows, no scan *)

let rec width = function
  | Seq_scan { table; _ } | Index_scan { table; _ } | Index_range { table; _ } ->
      Schema.arity table.Heap.schema
  | Index_min _ -> 1
  | Nested_loop { outer; inner; _ } | Hash_join { outer; inner; _ } ->
      width outer + width inner
  | Index_nl_join { outer; inner_table; _ } ->
      width outer + Schema.arity inner_table.Heap.schema
  | Filter (p, _) | Sort (p, _) | Distinct p | Limit (p, _) -> width p
  | Project (_, exprs) -> Array.length exprs
  | Aggregate { group; aggs; _ } -> Array.length group + Array.length aggs
  | Values rows -> ( match rows with [] -> 0 | r :: _ -> Array.length r)
  | Empty { empty_width; _ } -> empty_width

let rec rebind f plan =
  let go = rebind f in
  match plan with
  | Seq_scan s -> Seq_scan { s with table = f s.table }
  | Index_scan s -> Index_scan { s with table = f s.table }
  | Index_range s -> Index_range { s with table = f s.table }
  | Index_min s -> Index_min { s with table = f s.table }
  | Nested_loop j -> Nested_loop { j with outer = go j.outer; inner = go j.inner }
  | Index_nl_join j -> Index_nl_join { j with outer = go j.outer; inner_table = f j.inner_table }
  | Hash_join j -> Hash_join { j with outer = go j.outer; inner = go j.inner }
  | Filter (p, e) -> Filter (go p, e)
  | Project (p, es) -> Project (go p, es)
  | Aggregate a -> Aggregate { a with input = go a.input }
  | Sort (p, keys) -> Sort (go p, keys)
  | Distinct p -> Distinct (go p)
  | Limit (p, n) -> Limit (go p, n)
  | (Values _ | Empty _) as leaf -> leaf

let describe ?(annot = fun (_ : t) -> "") plan =
  let buf = Buffer.create 256 in
  let ce_string c = Expr.to_string c.Expr.ce_expr in
  let line indent s =
    Buffer.add_string buf (String.make (indent * 2) ' ');
    Buffer.add_string buf s;
    Buffer.add_char buf '\n'
  in
  let filter_line indent = function
    | None -> ()
    | Some f -> line (indent + 1) ("Filter: " ^ ce_string f)
  in
  let agg_name a =
    match a.agg_fn with
    | Bullfrog_sql.Ast.Count -> "count"
    | Sum -> "sum"
    | Avg -> "avg"
    | Min -> "min"
    | Max -> "max"
  in
  let rec go indent node =
    (* The node's header line carries its annotation (EXPLAIN ANALYZE
       appends actual row counts and timings there). *)
    let line0 s = line indent (s ^ annot node) in
    match node with
    | Seq_scan { table; filter } ->
        line0 (Printf.sprintf "Seq Scan on %s" table.Heap.name);
        filter_line indent filter
    | Index_scan { table; index; key; filter } ->
        line0
          (Printf.sprintf "Index Scan using %s on %s" (Index.name index) table.Heap.name);
        line (indent + 1)
          ("Index Cond: ("
          ^ String.concat ", " (Array.to_list (Array.map ce_string key))
          ^ ")");
        filter_line indent filter
    | Index_range { table; index; prefix; lo; hi; filter } ->
        line0
          (Printf.sprintf "Index Range Scan using %s on %s" (Index.name index)
             table.Heap.name);
        line (indent + 1)
          (Printf.sprintf "Index Cond: prefix (%s)%s%s"
             (String.concat ", " (Array.to_list (Array.map ce_string prefix)))
             (match lo with None -> "" | Some e -> " >= " ^ ce_string e)
             (match hi with None -> "" | Some e -> " < " ^ ce_string e));
        filter_line indent filter
    | Index_min { table; index; prefix; asc } ->
        line0
          (Printf.sprintf "Index %s using %s on %s (prefix: %s)"
             (if asc then "Min" else "Max")
             (Index.name index) table.Heap.name
             (String.concat ", " (Array.to_list (Array.map ce_string prefix))))
    | Index_nl_join { outer; inner_table; index; outer_keys; inner_filter; cond } ->
        line0
          (Printf.sprintf "Index Nested Loop with %s via %s" inner_table.Heap.name
             (Index.name index));
        line (indent + 1)
          ("Probe Keys: ("
          ^ String.concat ", " (Array.to_list (Array.map ce_string outer_keys))
          ^ ")");
        (match inner_filter with
        | None -> ()
        | Some f -> line (indent + 1) ("Inner Filter: " ^ ce_string f));
        (match cond with
        | None -> ()
        | Some c -> line (indent + 1) ("Join Filter: " ^ ce_string c));
        go (indent + 1) outer
    | Nested_loop { outer; inner; cond } ->
        line0 "Nested Loop";
        (match cond with
        | None -> ()
        | Some c -> line (indent + 1) ("Join Filter: " ^ ce_string c));
        go (indent + 1) outer;
        go (indent + 1) inner
    | Hash_join { outer; inner; outer_keys; inner_keys; cond } ->
        line0 "Hash Join";
        line (indent + 1)
          (Printf.sprintf "Hash Cond: (%s) = (%s)"
             (String.concat ", " (Array.to_list (Array.map ce_string outer_keys)))
             (String.concat ", " (Array.to_list (Array.map ce_string inner_keys))));
        (match cond with
        | None -> ()
        | Some c -> line (indent + 1) ("Join Filter: " ^ ce_string c));
        go (indent + 1) outer;
        go (indent + 1) inner
    | Filter (p, f) ->
        line0 ("Filter: " ^ ce_string f);
        go (indent + 1) p
    | Project (p, exprs) ->
        line0
          ("Project: "
          ^ String.concat ", " (Array.to_list (Array.map ce_string exprs)));
        go (indent + 1) p
    | Aggregate { input; group; aggs } ->
        let keys =
          if Array.length group = 0 then ""
          else
            " key: "
            ^ String.concat ", " (Array.to_list (Array.map ce_string group))
        in
        let fns =
          String.concat ", "
            (Array.to_list
               (Array.map
                  (fun a ->
                    Printf.sprintf "%s(%s%s)" (agg_name a)
                      (if a.agg_distinct then "DISTINCT " else "")
                      (match a.agg_arg with None -> "*" | Some e -> ce_string e))
                  aggs))
        in
        line0 (Printf.sprintf "Aggregate%s [%s]" keys fns);
        go (indent + 1) input
    | Sort (p, keys) ->
        line0
          ("Sort: "
          ^ String.concat ", "
              (Array.to_list
                 (Array.map
                    (fun (e, d) ->
                      ce_string e
                      ^ match d with Bullfrog_sql.Ast.Asc -> " ASC" | Desc -> " DESC")
                    keys)));
        go (indent + 1) p
    | Distinct p ->
        line0 "Unique";
        go (indent + 1) p
    | Limit (p, n) ->
        line0 (Printf.sprintf "Limit: %d" n);
        go (indent + 1) p
    | Values rows -> line0 (Printf.sprintf "Values (%d row(s))" (List.length rows))
    | Empty { reason; _ } -> line0 (Printf.sprintf "Empty Scan (%s)" reason)
  in
  go 0 plan;
  Buffer.contents buf
