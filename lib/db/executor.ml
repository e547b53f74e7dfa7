open Bullfrog_sql

type exec_ctx = {
  catalog : Catalog.t;
  redo : Redo_log.t;
}

type result =
  | Rows of string list * Value.t array list
  | Affected of int
  | Done of string
  | Explained of string

let err = Db_error.sql_error

(* ------------------------------------------------------------------ *)
(* Plan execution                                                      *)
(* ------------------------------------------------------------------ *)

module Key_tbl = Hashtbl.Make (struct
  type t = Value.t array

  let equal a b =
    Array.length a = Array.length b
    &&
    let rec loop i = i >= Array.length a || (Value.equal a.(i) b.(i) && loop (i + 1)) in
    loop 0

  let hash = Value.hash_key
end)

(* SUM, AVG, MIN and MAX allocate nothing per row fed.  SUM/AVG keep an
   int sum until the first [Float], then a float sum seeded with it in an
   all-float record, which OCaml stores unboxed (a float field of
   [agg_acc] would box every update).  MIN/MAX's [extreme] is [Null]
   until a value. *)
type agg_acc = {
  mutable count : int;
  mutable isum : int;
  fsum : float_sum;
  mutable sum_is_int : bool;
  mutable extreme : Value.t;
  distinct_seen : unit Key_tbl.t option;
}

and float_sum = { mutable fs : float }

let new_acc distinct =
  {
    count = 0;
    isum = 0;
    fsum = { fs = 0.0 };
    sum_is_int = true;
    extreme = Value.Null;
    distinct_seen = (if distinct then Some (Key_tbl.create 16) else None);
  }

let acc_feed params acc (spec : Plan.agg_spec) row =
  let v =
    match spec.Plan.agg_arg with
    | None -> Value.Bool true
    | Some e -> e.Expr.ce_eval params row
  in
  let consider =
    match (spec.Plan.agg_arg, v) with
    | Some _, Value.Null -> false (* aggregates ignore NULLs *)
    | _ -> true
  in
  if consider then begin
    let is_new =
      match acc.distinct_seen with
      | None -> true
      | Some tbl ->
          let k = [| v |] in
          if Key_tbl.mem tbl k then false
          else begin
            Key_tbl.replace tbl k ();
            true
          end
    in
    if is_new then begin
      acc.count <- acc.count + 1;
      (match v with
      | Value.Int i ->
          if acc.sum_is_int then acc.isum <- acc.isum + i
          else acc.fsum.fs <- acc.fsum.fs +. float_of_int i
      | Value.Float f ->
          if acc.sum_is_int then begin
            acc.fsum.fs <- float_of_int acc.isum;
            acc.sum_is_int <- false
          end;
          acc.fsum.fs <- acc.fsum.fs +. f
      | _ -> ());
      match spec.Plan.agg_fn with
      | (Ast.Min | Ast.Max) as fn -> (
          match acc.extreme with
          | Value.Null -> acc.extreme <- v
          | m ->
              let c = Value.compare v m in
              if (fn = Ast.Min && c < 0) || (fn = Ast.Max && c > 0) then acc.extreme <- v)
      | Ast.Count | Ast.Sum | Ast.Avg -> ()
    end
  end

let acc_result acc (spec : Plan.agg_spec) =
  match spec.Plan.agg_fn with
  | Ast.Count -> Value.Int acc.count
  | Ast.Sum ->
      if acc.count = 0 then Value.Null
      else if acc.sum_is_int then Value.Int acc.isum
      else Value.Float acc.fsum.fs
  | Ast.Avg ->
      if acc.count = 0 then Value.Null
      else
        let sum = if acc.sum_is_int then float_of_int acc.isum else acc.fsum.fs in
        Value.Float (sum /. float_of_int acc.count)
  | Ast.Min | Ast.Max -> acc.extreme

(* ------------------------------------------------------------------ *)
(* EXPLAIN ANALYZE profiling                                           *)
(* ------------------------------------------------------------------ *)

(* Per-node actuals, keyed by physical node identity ([==]): a plan tree
   is a few nodes, so an assq list beats hashing nodes that contain
   closures.  [pe_time] is inclusive — children are part of it, as in
   PostgreSQL's EXPLAIN ANALYZE. *)
type prof_entry = {
  mutable pe_loops : int;  (* executions of the node *)
  mutable pe_rows : int;  (* rows produced, summed over loops *)
  mutable pe_time : float;  (* inclusive wall time, seconds *)
}

type prof = { mutable pr_nodes : (Plan.t * prof_entry) list; pr_mutex : Mutex.t }

let new_prof () = { pr_nodes = []; pr_mutex = Mutex.create () }

(* Dynamically scoped: set only for the duration of one EXPLAIN ANALYZE
   execution, so the normal path pays a single ref read per node run.
   Concurrent statements on other threads would record into the same
   profile; recording is latched so that is merely noisy, not unsafe. *)
let prof_current : prof option ref = ref None

let prof_record pr node ~rows ~dt =
  Mutex.lock pr.pr_mutex;
  let e =
    match List.assq_opt node pr.pr_nodes with
    | Some e -> e
    | None ->
        let e = { pe_loops = 0; pe_rows = 0; pe_time = 0.0 } in
        pr.pr_nodes <- (node, e) :: pr.pr_nodes;
        e
  in
  e.pe_loops <- e.pe_loops + 1;
  e.pe_rows <- e.pe_rows + rows;
  e.pe_time <- e.pe_time +. dt;
  Mutex.unlock pr.pr_mutex

let prof_annot pr node =
  match List.assq_opt node pr.pr_nodes with
  | None -> " (never executed)"
  | Some e ->
      Printf.sprintf " (actual rows=%d loops=%d time=%.3fms)" e.pe_rows e.pe_loops
        (1000.0 *. e.pe_time)

(* Snapshot reads (DESIGN.md §4.2f): every point and scan operator
   resolves rows against the transaction's snapshot timestamp with no
   locks — a reader racing a writer (or a migration flip) sees the
   pre-commit versions until the commit publishes, then all of it.  The
   reader id makes the transaction's own uncommitted writes visible. *)
let snap_get (txn : Txn.t) table tid =
  Heap.snapshot_get table ~ts:txn.Txn.snapshot ~reader:txn.Txn.id tid

(* Every [Seq_scan] arm runs here: the filter is staged once for this
   execution and tested inside the scan loop, which counts each visible
   row as scanned and each kept one as read. *)
let scan_table ~params (txn : Txn.t) table filter f =
  let c = txn.Txn.counters in
  Heap.scan table ~ts:txn.Txn.snapshot ~reader:txn.Txn.id
    ~filter:(Expr.bind_filter filter params)
    ~count:(fun scanned kept ->
      c.Txn.rows_scanned <- c.Txn.rows_scanned + scanned;
      c.Txn.rows_read <- c.Txn.rows_read + kept)
    (fun _tid row -> f row)

(* Fetch [tids] in TID order at the snapshot, counting each visible row
   as read; [f] sees the rows [keep] (a bound filter) accepts. *)
let fetch_sorted (txn : Txn.t) table keep tids f =
  let c = txn.Txn.counters in
  Index.iter_sorted_tids
    (fun tid ->
      match snap_get txn table tid with
      | None -> ()
      | Some row ->
          c.Txn.rows_read <- c.Txn.rows_read + 1;
          if keep row then f row)
    tids

(* One index nested-loop probe: rows of [table] under [key] (a full key,
   or a prefix of an ordered index) that [keep] accepts.  A NULL key
   component matches nothing and costs no probe. *)
let probe_inner (txn : Txn.t) table index keep key f =
  if not (Array.exists Value.is_null key) then begin
    let c = txn.Txn.counters in
    c.Txn.index_probes <- c.Txn.index_probes + 1;
    let tids =
      if Array.length key = Array.length (Index.key_cols index) then Index.find index key
      else
        Index.fold_prefix_range index ~prefix:key ~init:[]
          ~f:(fun acc _k ts -> ts @ acc)
          ()
    in
    fetch_sorted txn table keep tids f
  end

let rec run_raw ?(params = [||]) (txn : Txn.t) (plan : Plan.t) : Value.t array list =
  let c = txn.Txn.counters in
  match plan with
  | Plan.Values rows -> rows
  | Plan.Empty _ -> []
  | Plan.Seq_scan { table; filter } ->
      let out = ref [] in
      scan_table ~params txn table filter (fun row -> out := row :: !out);
      List.rev !out
  | Plan.Index_scan { table; index; key; filter } ->
      c.Txn.index_probes <- c.Txn.index_probes + 1;
      let key = Array.map (fun e -> e.Expr.ce_eval params [||]) key in
      let out = ref [] in
      fetch_sorted txn table (Expr.bind_filter filter params).Expr.holds (Index.find index key)
        (fun row -> out := row :: !out);
      List.rev !out
  | Plan.Index_range { table; index; prefix; lo; hi; filter } ->
      c.Txn.index_probes <- c.Txn.index_probes + 1;
      let prefix = Array.map (fun e -> e.Expr.ce_eval params [||]) prefix in
      let lo = Option.map (fun e -> e.Expr.ce_eval params [||]) lo in
      let hi = Option.map (fun e -> e.Expr.ce_eval params [||]) hi in
      let tids =
        Index.fold_prefix_range index ~prefix ?lo ?hi ~init:[]
          ~f:(fun acc _k ts -> ts @ acc)
          ()
      in
      let out = ref [] in
      fetch_sorted txn table (Expr.bind_filter filter params).Expr.holds tids (fun row ->
          out := row :: !out);
      List.rev !out
  | Plan.Index_min { table; index; prefix; asc } ->
      c.Txn.index_probes <- c.Txn.index_probes + 1;
      c.Txn.rows_read <- c.Txn.rows_read + 1;
      let prefix = Array.map (fun e -> e.Expr.ce_eval params [||]) prefix in
      (* deferred de-indexing: skip keys visible only through entries of
         deleted rows this snapshot cannot see *)
      let keep tid = snap_get txn table tid <> None in
      let hit =
        if asc then Index.min_with_prefix ~keep index prefix
        else Index.max_with_prefix ~keep index prefix
      in
      let v =
        match hit with
        | Some (key, _) -> key.(Array.length key - 1)
        | None -> Value.Null
      in
      [ [| v |] ]
  | Plan.Index_nl_join { outer; inner_table; index; outer_keys; inner_filter; cond } ->
      let outer_rows = run ~params txn outer in
      let keep_inner = (Expr.bind_filter inner_filter params).Expr.holds in
      let keep = (Expr.bind_filter cond params).Expr.holds in
      let out = ref [] in
      List.iter
        (fun orow ->
          probe_inner txn inner_table index keep_inner
            (Array.map (fun e -> e.Expr.ce_eval params orow) outer_keys)
            (fun irow ->
              let row = Array.append orow irow in
              if keep row then out := row :: !out))
        outer_rows;
      List.rev !out
  | Plan.Nested_loop { outer; inner; cond } ->
      let outer_rows = run ~params txn outer in
      let inner_rows = run ~params txn inner in
      let keep = (Expr.bind_filter cond params).Expr.holds in
      let out = ref [] in
      List.iter
        (fun orow ->
          List.iter
            (fun irow ->
              let row = Array.append orow irow in
              if keep row then out := row :: !out)
            inner_rows)
        outer_rows;
      List.rev !out
  | Plan.Hash_join { outer; inner; outer_keys; inner_keys; cond } ->
      let inner_rows = run ~params txn inner in
      let tbl = Key_tbl.create (List.length inner_rows) in
      List.iter
        (fun irow ->
          let k = Array.map (fun e -> e.Expr.ce_eval params irow) inner_keys in
          if not (Array.exists Value.is_null k) then begin
            let existing = try Key_tbl.find tbl k with Not_found -> [] in
            Key_tbl.replace tbl k (irow :: existing)
          end)
        inner_rows;
      let outer_rows = run ~params txn outer in
      let keep = (Expr.bind_filter cond params).Expr.holds in
      let out = ref [] in
      List.iter
        (fun orow ->
          let k = Array.map (fun e -> e.Expr.ce_eval params orow) outer_keys in
          if not (Array.exists Value.is_null k) then begin
            c.Txn.index_probes <- c.Txn.index_probes + 1;
            match Key_tbl.find_opt tbl k with
            | None -> ()
            | Some irows ->
                List.iter
                  (fun irow ->
                    let row = Array.append orow irow in
                    if keep row then out := row :: !out)
                  (List.rev irows)
          end)
        outer_rows;
      List.rev !out
  | Plan.Filter (p, f) -> List.filter (f.Expr.ce_pred params).Expr.holds (run ~params txn p)
  | Plan.Project (p, exprs) ->
      List.map
        (fun row -> Array.map (fun e -> e.Expr.ce_eval params row) exprs)
        (run ~params txn p)
  | Plan.Aggregate { input; group = [||]; aggs } ->
      (* A global aggregate streams its input into one set of
         accumulators: no row list, no group key.  Under EXPLAIN ANALYZE
         the input goes through [run], which records its node. *)
      let accs = Array.map (fun s -> new_acc s.Plan.agg_distinct) aggs in
      let feed row =
        for i = 0 to Array.length aggs - 1 do
          acc_feed params accs.(i) aggs.(i) row
        done
      in
      (match !prof_current with
      | None -> iter_plan ~params txn input feed
      | Some _ -> List.iter feed (run ~params txn input));
      [ Array.mapi (fun i spec -> acc_result accs.(i) spec) aggs ]
  | Plan.Aggregate { input; group; aggs } ->
      let rows = run ~params txn input in
      let groups = Key_tbl.create 64 in
      let order = ref [] in
      List.iter
        (fun row ->
          let k = Array.map (fun e -> e.Expr.ce_eval params row) group in
          let accs =
            match Key_tbl.find_opt groups k with
            | Some accs -> accs
            | None ->
                let accs = Array.map (fun s -> new_acc s.Plan.agg_distinct) aggs in
                Key_tbl.replace groups k accs;
                order := k :: !order;
                accs
          in
          Array.iteri (fun i spec -> acc_feed params accs.(i) spec row) aggs)
        rows;
      let emit k accs =
        Array.append k (Array.mapi (fun i spec -> acc_result accs.(i) spec) aggs)
      in
      List.rev_map (fun k -> emit k (Key_tbl.find groups k)) !order
  | Plan.Sort (p, keys) ->
      let rows = run ~params txn p in
      let cmp a b =
        let rec go i =
          if i >= Array.length keys then 0
          else begin
            let e, dir = keys.(i) in
            let c = Value.compare (e.Expr.ce_eval params a) (e.Expr.ce_eval params b) in
            let c = match dir with Ast.Asc -> c | Ast.Desc -> -c in
            if c <> 0 then c else go (i + 1)
          end
        in
        go 0
      in
      List.stable_sort cmp rows
  | Plan.Distinct p ->
      let rows = run ~params txn p in
      let seen = Key_tbl.create 64 in
      List.filter
        (fun row ->
          if Key_tbl.mem seen row then false
          else begin
            Key_tbl.replace seen row ();
            true
          end)
        rows
  | Plan.Limit (p, n) -> run_limited ~params txn p n

(* LIMIT pushed through projections and into scans: stop fetching once n
   qualifying rows are produced (what a real executor's pipeline does;
   essential for LIMIT 1 point reads over wide index entries). *)
and run_limited_raw ?(params = [||]) (txn : Txn.t) (plan : Plan.t) n : Value.t array list =
  let c = txn.Txn.counters in
  let take k rows =
    let rec go k = function
      | [] -> []
      | _ when k = 0 -> []
      | x :: rest -> x :: go (k - 1) rest
    in
    go k rows
  in
  if n <= 0 then []
  else
    match plan with
    | Plan.Project (p, exprs) ->
        List.map
          (fun row -> Array.map (fun e -> e.Expr.ce_eval params row) exprs)
          (run_limited ~params txn p n)
    | Plan.Index_scan { table; index; key; filter } ->
        c.Txn.index_probes <- c.Txn.index_probes + 1;
        let key = Array.map (fun e -> e.Expr.ce_eval params [||]) key in
        let keep = (Expr.bind_filter filter params).Expr.holds in
        let out = ref [] and count = ref 0 in
        (* stop right after the n-th row: no further row is fetched or
           counted *)
        (try
           fetch_sorted txn table keep (Index.find index key) (fun row ->
               out := row :: !out;
               incr count;
               if !count >= n then raise Exit)
         with Exit -> ());
        List.rev !out
    | Plan.Seq_scan { table; filter } ->
        let out = ref [] and count = ref 0 in
        (try
           scan_table ~params txn table filter (fun row ->
               out := row :: !out;
               incr count;
               if !count >= n then raise Exit)
         with Exit -> ());
        List.rev !out
    | Plan.Filter (p, f) ->
        (* no early cut below a filter without a streaming executor *)
        take n (List.filter (f.Expr.ce_pred params).Expr.holds (run ~params txn p))
    | Plan.Limit (p, m) -> run_limited ~params txn p (min n m)
    | other -> take n (run ~params txn other)

(* Instrumented entry points.  The recursive calls above resolve here, so
   with a profile installed every node execution is recorded; without one
   the wrappers cost a ref read and a match. *)
and run ?(params = [||]) (txn : Txn.t) (plan : Plan.t) : Value.t array list =
  match !prof_current with
  | None -> run_raw ~params txn plan
  | Some pr ->
      let t0 = Unix.gettimeofday () in
      let rows = run_raw ~params txn plan in
      prof_record pr plan ~rows:(List.length rows) ~dt:(Unix.gettimeofday () -. t0);
      rows

and run_limited ?(params = [||]) (txn : Txn.t) (plan : Plan.t) n : Value.t array list =
  match !prof_current with
  | None -> run_limited_raw ~params txn plan n
  | Some pr ->
      let t0 = Unix.gettimeofday () in
      let rows = run_limited_raw ~params txn plan n in
      prof_record pr plan ~rows:(List.length rows) ~dt:(Unix.gettimeofday () -. t0);
      rows

(* Streaming runner: apply [f] to each output row without materialising
   the full result list.  Scans, filters, projections and the probe side
   of joins are pipelined; blocking operators (sort, aggregate, distinct,
   limit) and index reads fall back to {!run}.  Counter bumps and row
   order match {!run} exactly — only the peak allocation differs. *)
and iter_plan ?(params = [||]) (txn : Txn.t) (plan : Plan.t) (f : Value.t array -> unit)
    : unit =
  let c = txn.Txn.counters in
  match plan with
  | Plan.Values rows -> List.iter f rows
  | Plan.Empty _ -> ()
  | Plan.Seq_scan { table; filter } -> scan_table ~params txn table filter f
  | Plan.Filter (p, pred) ->
      let keep = (pred.Expr.ce_pred params).Expr.holds in
      iter_plan ~params txn p (fun row -> if keep row then f row)
  | Plan.Project (p, exprs) ->
      iter_plan ~params txn p (fun row ->
          f (Array.map (fun e -> e.Expr.ce_eval params row) exprs))
  | Plan.Index_nl_join { outer; inner_table; index; outer_keys; inner_filter; cond } ->
      let keep_inner = (Expr.bind_filter inner_filter params).Expr.holds in
      let keep = (Expr.bind_filter cond params).Expr.holds in
      iter_plan ~params txn outer (fun orow ->
          probe_inner txn inner_table index keep_inner
            (Array.map (fun e -> e.Expr.ce_eval params orow) outer_keys)
            (fun irow ->
              let row = Array.append orow irow in
              if keep row then f row))
  | Plan.Nested_loop { outer; inner; cond } ->
      let inner_rows = run ~params txn inner in
      let keep = (Expr.bind_filter cond params).Expr.holds in
      iter_plan ~params txn outer (fun orow ->
          List.iter
            (fun irow ->
              let row = Array.append orow irow in
              if keep row then f row)
            inner_rows)
  | Plan.Hash_join { outer; inner; outer_keys; inner_keys; cond } ->
      let inner_rows = run ~params txn inner in
      let tbl = Key_tbl.create (List.length inner_rows) in
      List.iter
        (fun irow ->
          let k = Array.map (fun e -> e.Expr.ce_eval params irow) inner_keys in
          if not (Array.exists Value.is_null k) then begin
            let existing = try Key_tbl.find tbl k with Not_found -> [] in
            Key_tbl.replace tbl k (irow :: existing)
          end)
        inner_rows;
      let keep = (Expr.bind_filter cond params).Expr.holds in
      iter_plan ~params txn outer (fun orow ->
          let k = Array.map (fun e -> e.Expr.ce_eval params orow) outer_keys in
          if not (Array.exists Value.is_null k) then begin
            c.Txn.index_probes <- c.Txn.index_probes + 1;
            match Key_tbl.find_opt tbl k with
            | None -> ()
            | Some irows ->
                List.iter
                  (fun irow ->
                    let row = Array.append orow irow in
                    if keep row then f row)
                  (List.rev irows)
          end)
  | Plan.Index_scan _ | Plan.Index_range _ | Plan.Index_min _ | Plan.Aggregate _
  | Plan.Sort _ | Plan.Distinct _ | Plan.Limit _ ->
      List.iter f (run ~params txn plan)

let rec planner_ctx ?(params = [||]) ctx txn : Planner.ctx =
  {
    Planner.catalog = ctx.catalog;
    run_subquery =
      (fun q ->
        let planned = Planner.plan_select (planner_ctx ~params ctx txn) q in
        run ~params txn planned.Planner.plan);
  }

let run_select ?(params = [||]) ctx txn (s : Ast.select) =
  let planned = Planner.plan_select (planner_ctx ~params ctx txn) s in
  let names =
    Array.to_list (Array.map (fun (d : Plan.col_desc) -> d.Plan.cd_name) planned.Planner.output)
  in
  Rows (names, run ~params txn planned.Planner.plan)

(* ------------------------------------------------------------------ *)
(* Constraint enforcement                                              *)
(* ------------------------------------------------------------------ *)

let coercion_failed (table : Heap.t) i msg =
  err "column %S of %s: %s" table.Heap.schema.Schema.columns.(i).Schema.name table.Heap.name msg

let coerce_col (table : Heap.t) i v =
  try Value.coerce_exn table.Heap.schema.Schema.columns.(i).Schema.ty v
  with Value.Coercion_error msg -> coercion_failed table i msg

(* A fresh, coerced copy of a row from outside the compiled write paths. *)
let coerce_row (table : Heap.t) row =
  let n = Schema.arity table.Heap.schema in
  if Array.length row <> n then
    err "table %s expects %d columns, got %d" table.Heap.name n (Array.length row);
  let row = Array.copy row in
  for i = 0 to n - 1 do
    row.(i) <- coerce_col table i row.(i)
  done;
  row

(* What a compiled INSERT or UPDATE does to each column of the row it
   writes.  A constant is coerced once, when the statement compiles; a
   failed coercion is kept and raised when a row gets to it, in column
   order, exactly where coercing the row would have raised it. *)
type col_coercion =
  | Keep  (* a constant coerced at compile time, or a column the write leaves alone *)
  | Coerce  (* a value computed per row: coerced in place *)
  | Fails of string  (* a constant that does not coerce: the reason *)

let const_coercion (table : Heap.t) i v =
  match Value.coerce table.Heap.schema.Schema.columns.(i).Schema.ty v with
  | Ok v -> (Keep, v)
  | Error msg -> (Fails msg, v)

let coerce_planned (table : Heap.t) plan row =
  for i = 0 to Array.length plan - 1 do
    match Array.unsafe_get plan i with
    | Keep -> ()
    | Coerce -> row.(i) <- coerce_col table i row.(i)
    | Fails msg -> coercion_failed table i msg
  done

let check_not_null (table : Heap.t) row =
  Array.iteri
    (fun i v ->
      let col = table.Heap.schema.Schema.columns.(i) in
      if col.Schema.not_null && Value.is_null v then
        Db_error.constraint_violation
          "null value in column %S of relation %S violates not-null constraint"
          col.Schema.name table.Heap.name)
    row

let check_checks (txn : Txn.t) (table : Heap.t) row =
  List.iter
    (fun c ->
      match c with
      | Schema.Check (name, _, compiled) -> (
          txn.Txn.counters.Txn.constraint_checks <-
            txn.Txn.counters.Txn.constraint_checks + 1;
          match compiled row with
          | Value.Bool false ->
              Db_error.constraint_violation
                "new row for relation %S violates check constraint %S" table.Heap.name
                name
          | Value.Bool true | Value.Null -> ()
          | v ->
              err "check constraint %S evaluated to %s" name (Value.type_name v))
      | Schema.Unique _ | Schema.Foreign_key _ -> ())
    table.Heap.schema.Schema.constraints

let check_fk_for_row ctx (txn : Txn.t) (table : Heap.t) row =
  List.iter
    (fun c ->
      match c with
      | Schema.Foreign_key fk -> (
          let key = Array.map (fun i -> row.(i)) fk.Schema.fk_cols in
          if Array.exists Value.is_null key then ()
          else begin
            txn.Txn.counters.Txn.constraint_checks <-
              txn.Txn.counters.Txn.constraint_checks + 1;
            let parent = Catalog.find_table_exn ctx.catalog fk.Schema.fk_ref_table in
            let ref_cols =
              if Array.length fk.Schema.fk_ref_cols > 0 then
                Array.map (Schema.col_index_exn parent.Heap.schema) fk.Schema.fk_ref_cols
              else
                match parent.Heap.schema.Schema.primary_key with
                | Some pk -> pk
                | None ->
                    err "foreign key %S: referenced table %s has no primary key"
                      fk.Schema.fk_name parent.Heap.name
            in
            let reorder icols n =
              (* key components in the index's column order (first n) *)
              Array.init n (fun i ->
                  let ic = icols.(i) in
                  let rec pos j = if ref_cols.(j) = ic then key.(j) else pos (j + 1) in
                  pos 0)
            in
            let exact_index =
              match Heap.unique_index_on parent ref_cols with
              | Some idx -> Some idx
              | None -> Heap.index_covering parent ref_cols
            in
            let found =
              match exact_index with
              | Some idx ->
                  txn.Txn.counters.Txn.index_probes <-
                    txn.Txn.counters.Txn.index_probes + 1;
                  (* entries of deleted parents linger until GC; only a
                     live parent row satisfies the FK *)
                  List.exists
                    (fun tid -> Heap.get parent tid <> None)
                    (Index.find idx (reorder (Index.key_cols idx) (Array.length ref_cols)))
              | None -> (
                  (* an ordered index whose key prefix covers the referenced
                     columns answers existence with one probe *)
                  let prefix_index =
                    List.find_opt
                      (fun idx ->
                        Index.kind idx = Index.Ordered
                        && Array.length (Index.key_cols idx) >= Array.length ref_cols
                        &&
                        let icols = Index.key_cols idx in
                        let sub = Array.sub icols 0 (Array.length ref_cols) in
                        List.sort Stdlib.compare (Array.to_list sub)
                        = List.sort Stdlib.compare (Array.to_list ref_cols))
                      (Heap.indexes parent)
                  in
                  match prefix_index with
                  | Some idx ->
                      txn.Txn.counters.Txn.index_probes <-
                        txn.Txn.counters.Txn.index_probes + 1;
                      Index.min_with_prefix
                        ~keep:(fun tid -> Heap.get parent tid <> None)
                        idx
                        (reorder (Index.key_cols idx) (Array.length ref_cols))
                      <> None
                  | None ->
                      Heap.fold_live parent ~init:false ~f:(fun acc _tid prow ->
                          acc
                          ||
                          let rec all j =
                            j >= Array.length ref_cols
                            || (Value.equal prow.(ref_cols.(j)) key.(j) && all (j + 1))
                          in
                          all 0))
            in
            if not found then
              Db_error.constraint_violation
                "insert or update on table %S violates foreign key constraint %S: key (%s) is not present in %S"
                table.Heap.name fk.Schema.fk_name
                (String.concat ", " (Array.to_list (Array.map Value.to_string key)))
                parent.Heap.name
          end)
      | Schema.Check _ | Schema.Unique _ -> ())
    table.Heap.schema.Schema.constraints

(* [row] is fresh and coerced. *)
let insert_coerced ctx txn (table : Heap.t) ~on_conflict_do_nothing row =
  check_not_null table row;
  check_checks txn table row;
  check_fk_for_row ctx txn table row;
  match Heap.insert ~writer:txn.Txn.id table row with
  | tid ->
      Txn.record_insert txn table tid;
      txn.Txn.counters.Txn.rows_written <- txn.Txn.counters.Txn.rows_written + 1;
      Some tid
  | exception Db_error.Constraint_violation _ when on_conflict_do_nothing -> None

let insert_row ctx txn (table : Heap.t) ?(on_conflict_do_nothing = false) row =
  insert_coerced ctx txn table ~on_conflict_do_nothing (coerce_row table row)

(* Updates and deletes of existing rows are where write-write conflicts
   live, so they take the row's exclusive lock (2PL — held to commit) —
   inserts allocate fresh TIDs no concurrent transaction can address, so
   they skip the lock manager entirely, and readers never touch it.
   [row] is coerced already: its assigned columns by the compiled
   UPDATE, the rest as they were stored. *)
let update_row ctx txn (table : Heap.t) tid row =
  check_not_null table row;
  check_checks txn table row;
  check_fk_for_row ctx txn table row;
  Txn.lock_row txn table tid;
  let old = Heap.update ~writer:txn.Txn.id table tid row in
  Txn.record_update txn table tid old;
  txn.Txn.counters.Txn.rows_written <- txn.Txn.counters.Txn.rows_written + 1

let delete_row _ctx txn (table : Heap.t) tid =
  Txn.lock_row txn table tid;
  let old = Heap.delete ~writer:txn.Txn.id table tid in
  Txn.record_delete txn table tid old;
  txn.Txn.counters.Txn.rows_written <- txn.Txn.counters.Txn.rows_written + 1

(* ------------------------------------------------------------------ *)
(* DDL helpers                                                         *)
(* ------------------------------------------------------------------ *)

let auto_indexes ctx (table : Heap.t) =
  List.iter
    (fun c ->
      match c with
      | Schema.Unique (name, cols) ->
          let idx = Index.create ~name ~key_cols:cols ~unique:true () in
          Heap.add_index table idx;
          Catalog.register_index ctx.catalog ~table:table.Heap.name idx
      | Schema.Check _ | Schema.Foreign_key _ -> ())
    table.Heap.schema.Schema.constraints

let infer_type (values : Value.t list) =
  let rec first = function
    | [] -> Ast.T_text
    | Value.Null :: rest -> first rest
    | Value.Int _ :: _ -> Ast.T_int
    | Value.Float _ :: _ -> Ast.T_float
    | Value.Str _ :: _ -> Ast.T_text
    | Value.Bool _ :: _ -> Ast.T_bool
    | Value.Date _ :: _ -> Ast.T_date
    | Value.Timestamp _ :: _ -> Ast.T_timestamp
  in
  first values

(* Catalog changes are logged at execution time (they apply immediately
   and survive a rollback of the enclosing transaction, so commit time
   would be wrong), tagged with the epoch they produced.  Replay re-runs
   the SQL text against the fresh catalog before applying data writes. *)
let log_ddl ctx (stmt : Ast.stmt) =
  Redo_log.append_ddl ctx.redo ~epoch:(Catalog.epoch ctx.catalog)
    (Pretty.stmt_to_string stmt)

let create_table_as ctx txn name (q : Ast.select) =
  let planned = Planner.plan_select (planner_ctx ctx txn) q in
  let rows = run txn planned.Planner.plan in
  let names =
    Array.map (fun (d : Plan.col_desc) -> d.Plan.cd_name) planned.Planner.output
  in
  let columns =
    Array.mapi
      (fun i n ->
        let col_values = List.map (fun row -> row.(i)) rows in
        {
          Schema.name = n;
          ty = infer_type col_values;
          not_null = false;
          default = None;
        })
      names
  in
  let table = Catalog.create_table ctx.catalog name (Schema.make columns) in
  (* The SELECT result must not replay (its rows are logged as ordinary
     committed inserts), so log a plain CREATE TABLE of the inferred
     schema rather than the CREATE TABLE AS text. *)
  Redo_log.append_ddl ctx.redo ~epoch:(Catalog.epoch ctx.catalog)
    (Schema.to_create_sql table.Heap.name table.Heap.schema);
  List.iter (fun row -> ignore (insert_row ctx txn table row : int option)) rows;
  List.length rows

let alter_table ctx txn table_name (action : Ast.alter_action) =
  let table = Catalog.find_table_exn ctx.catalog table_name in
  let schema = table.Heap.schema in
  match action with
  | Ast.Rename_to new_name ->
      Catalog.rename_table ctx.catalog table_name new_name;
      Done "ALTER TABLE"
  | Ast.Rename_column (old_name, new_name) ->
      let i = Schema.col_index_exn schema old_name in
      schema.Schema.columns.(i) <-
        { (schema.Schema.columns.(i)) with Schema.name = new_name };
      Done "ALTER TABLE"
  | Ast.Add_column def ->
      let default =
        match def.Ast.col_default with
        | None -> Value.Null
        | Some e -> (
            match Value.of_ast_literal e with
            | Some v -> v
            | None -> err "DEFAULT must be a literal")
      in
      if def.Ast.col_not_null && Value.is_null default && Heap.live_count table > 0 then
        Db_error.constraint_violation
          "column %S of relation %S contains null values (NOT NULL without DEFAULT)"
          def.Ast.col_name table.Heap.name;
      let new_col =
        {
          Schema.name = def.Ast.col_name;
          ty = def.Ast.col_type;
          not_null = def.Ast.col_not_null;
          default = (match def.Ast.col_default with None -> None | Some _ -> Some default);
        }
      in
      let new_schema =
        {
          schema with
          Schema.columns = Array.append schema.Schema.columns [| new_col |];
        }
      in
      table.Heap.schema <- new_schema;
      (* Widen every live row; TIDs and existing index entries are
         unaffected because the new column is appended.  The rewrite
         replaces each row inside its current version — no new versions,
         and chains are cut so no old-arity row can surface through a
         snapshot (column DDL truncates version history, matching the
         catalog epoch bump that invalidates every cached plan). *)
      let widened = ref [] in
      Heap.iter_live table (fun tid row ->
          if Array.length row < Schema.arity new_schema then widened := (tid, row) :: !widened);
      List.iter
        (fun (tid, row) ->
          Heap.rewrite_in_place table tid (Array.append row [| default |]))
        !widened;
      Done "ALTER TABLE"
  | Ast.Drop_column col_name ->
      let i = Schema.col_index_exn schema col_name in
      (* Refuse when an index or constraint still uses the column. *)
      List.iter
        (fun idx ->
          if Array.exists (fun k -> k = i) (Index.key_cols idx) then
            err "cannot drop column %S: index %S depends on it" col_name (Index.name idx))
        (Heap.indexes table);
      List.iter
        (fun c ->
          let uses =
            match c with
            | Schema.Unique (_, cols) -> Array.exists (fun k -> k = i) cols
            | Schema.Foreign_key fk -> Array.exists (fun k -> k = i) fk.Schema.fk_cols
            | Schema.Check (_, ast, _) ->
                List.exists
                  (fun (_, c) -> String.lowercase_ascii c = String.lowercase_ascii col_name)
                  (Ast.columns_of_expr ast)
          in
          if uses then
            err "cannot drop column %S: constraint %S depends on it" col_name
              (Schema.constraint_name c))
        schema.Schema.constraints;
      let remove_at : 'a. 'a array -> 'a array =
       fun arr ->
        Array.init
          (Array.length arr - 1)
          (fun j -> if j < i then arr.(j) else arr.(j + 1))
      in
      let shift_cols cols = Array.map (fun k -> if k > i then k - 1 else k) cols in
      let new_schema =
        {
          Schema.columns = remove_at schema.Schema.columns;
          constraints =
            List.map
              (fun c ->
                match c with
                | Schema.Unique (n, cols) -> Schema.Unique (n, shift_cols cols)
                | Schema.Foreign_key fk ->
                    Schema.Foreign_key { fk with Schema.fk_cols = shift_cols fk.Schema.fk_cols }
                | Schema.Check _ -> c)
              schema.Schema.constraints;
          primary_key = Option.map shift_cols schema.Schema.primary_key;
        }
      in
      (* Recompile CHECK constraints against the new layout. *)
      let new_schema =
        {
          new_schema with
          Schema.constraints =
            List.map
              (fun c ->
                match c with
                | Schema.Check (n, ast, _) ->
                    Schema.Check (n, ast, Schema.compile_check new_schema ast)
                | Schema.Unique _ | Schema.Foreign_key _ -> c)
              new_schema.Schema.constraints;
        }
      in
      (* Rewrite rows in place and rebuild every index under the new
         layout (key column positions above [i] shift down by one). *)
      table.Heap.schema <- new_schema;
      let rewrites = ref [] in
      Heap.iter_live table (fun tid row -> rewrites := (tid, row) :: !rewrites);
      List.iter
        (fun (tid, row) -> Heap.rewrite_in_place table tid (remove_at row))
        !rewrites;
      (* pending old-layout rows must not be de-indexed against the
         rebuilt (shifted-column) indexes later *)
      Heap.flush_pending table;
      let old_indexes = Heap.indexes table in
      table.Heap.indexes <- [];
      List.iter
        (fun idx ->
          let idx' =
            Index.create ~kind:(Index.kind idx) ~name:(Index.name idx)
              ~key_cols:(shift_cols (Index.key_cols idx))
              ~unique:(Index.is_unique idx) ()
          in
          Heap.add_index table idx')
        old_indexes;
      Done "ALTER TABLE"
  | Ast.Add_constraint (cname, tc) -> (
      let fresh kind =
        Printf.sprintf "%s_%s_%d" table.Heap.name kind
          (List.length schema.Schema.constraints + 1)
      in
      match tc with
      | Ast.C_check e ->
          let name = Option.value cname ~default:(fresh "check") in
          let compiled = Schema.compile_check schema e in
          Heap.iter_live table (fun _tid row ->
              match compiled row with
              | Value.Bool false ->
                  Db_error.constraint_violation
                    "check constraint %S of relation %S is violated by some row" name
                    table.Heap.name
              | _ -> ());
          schema.Schema.constraints <-
            schema.Schema.constraints @ [ Schema.Check (name, e, compiled) ];
          Done "ALTER TABLE"
      | Ast.C_unique cols ->
          let name = Option.value cname ~default:(fresh "key") in
          let key_cols =
            Array.of_list (List.map (Schema.col_index_exn schema) cols)
          in
          let idx = Index.create ~name ~key_cols ~unique:true () in
          Heap.add_index table idx;
          Catalog.register_index ctx.catalog ~table:table.Heap.name idx;
          schema.Schema.constraints <-
            schema.Schema.constraints @ [ Schema.Unique (name, key_cols) ];
          Done "ALTER TABLE"
      | Ast.C_primary_key cols ->
          if schema.Schema.primary_key <> None then
            err "table %S already has a primary key" table.Heap.name;
          let name = Option.value cname ~default:(table.Heap.name ^ "_pkey") in
          let key_cols = Array.of_list (List.map (Schema.col_index_exn schema) cols) in
          let idx = Index.create ~name ~key_cols ~unique:true () in
          Heap.add_index table idx;
          Catalog.register_index ctx.catalog ~table:table.Heap.name idx;
          schema.Schema.primary_key <- Some key_cols;
          schema.Schema.constraints <-
            schema.Schema.constraints @ [ Schema.Unique (name, key_cols) ];
          Done "ALTER TABLE"
      | Ast.C_foreign_key (local, ref_table, ref_cols) ->
          let name = Option.value cname ~default:(fresh "fkey") in
          let fk =
            {
              Schema.fk_name = name;
              fk_cols = Array.of_list (List.map (Schema.col_index_exn schema) local);
              fk_ref_table = String.lowercase_ascii ref_table;
              fk_ref_cols = Array.of_list ref_cols;
            }
          in
          let probe = { schema with Schema.constraints = [ Schema.Foreign_key fk ] } in
          let saved = table.Heap.schema in
          table.Heap.schema <- probe;
          (try Heap.iter_live table (fun _tid row -> check_fk_for_row ctx txn table row)
           with e ->
             table.Heap.schema <- saved;
             raise e);
          table.Heap.schema <- saved;
          schema.Schema.constraints <-
            schema.Schema.constraints @ [ Schema.Foreign_key fk ];
          Done "ALTER TABLE")
  | Ast.Drop_constraint name ->
      let found = ref false in
      schema.Schema.constraints <-
        List.filter
          (fun c ->
            if Schema.constraint_name c = name then begin
              found := true;
              (match c with
              | Schema.Unique (n, _) ->
                  ignore (Heap.drop_index table n : bool);
                  if schema.Schema.primary_key <> None && n = table.Heap.name ^ "_pkey"
                  then schema.Schema.primary_key <- None
              | Schema.Check _ | Schema.Foreign_key _ -> ());
              false
            end
            else true)
          schema.Schema.constraints;
      if not !found then
        err "constraint %S of relation %S does not exist" name table.Heap.name;
      Done "ALTER TABLE"

(* ------------------------------------------------------------------ *)
(* DML compilation                                                     *)
(* ------------------------------------------------------------------ *)

type write = Value.t array -> Txn.t -> result

(* A cached closure re-executes with no name resolution and no
   access-path choice.  [params] and [txn] serve only the uncorrelated
   subqueries evaluated here, at compile time. *)
let compile_write ?(params = [||]) ctx txn (stmt : Ast.stmt) : write =
  match stmt with
  | Ast.Insert { table; columns; source; on_conflict_do_nothing; on_conflict_target } ->
      let heap = Catalog.find_table_exn ctx.catalog table in
      let schema = heap.Heap.schema in
      (* A conflict target must name a uniqueness guarantee: a unique
         index over exactly those columns, or the table's primary key. *)
      (match on_conflict_target with
      | None -> ()
      | Some cols ->
          let idxs = List.map (Schema.col_index_exn schema) cols in
          let arr = Array.of_list idxs in
          let is_pk =
            match schema.Schema.primary_key with
            | Some pk ->
                List.sort compare (Array.to_list pk)
                = List.sort compare (Array.to_list arr)
            | None -> false
          in
          if (not is_pk) && Heap.unique_index_on heap arr = None then
            err
              "ON CONFLICT (%s): no unique index or primary key on these columns \
               of %s"
              (String.concat ", " cols) table);
      let arity = Schema.arity schema in
      let positions =
        match columns with
        | None -> Array.init arity (fun i -> i)
        | Some cols -> Array.of_list (List.map (Schema.col_index_exn schema) cols)
      in
      (* A row starts as the coerced defaults; each row then fills its
         target columns. *)
      let defaults =
        Array.mapi
          (fun i (c : Schema.column) ->
            const_coercion heap i (Option.value c.Schema.default ~default:Value.Null))
          schema.Schema.columns
      in
      let template = Array.map snd defaults and default_plan = Array.map fst defaults in
      let shape_error n =
        err "INSERT has %d expressions but %d target columns" n (Array.length positions)
      in
      (* Each source row becomes a fresh row, in two passes as before:
         every row's expressions are evaluated first, then each row is
         coerced and inserted in turn.  [(row, plan, n)] carries the
         row, its coercion plan and its expression count. *)
      let source_rows : Value.t array -> Txn.t -> (Value.t array * col_coercion array * int) list =
        match source with
        | Ast.Values rows ->
            (* A compile error is deferred to the expression's turn, so a
               row raises the same error as when each expression was
               compiled and evaluated in order.  A literal is coerced
               here, once; the other expressions are evaluated per row
               ([pos] -1: the value is dropped, because the row has the
               wrong length or a later expression sets the same
               column). *)
            let pctx = planner_ctx ~params ctx txn in
            let compile e =
              match Expr.compile_env (Planner.compile_const pctx e) with
              | f -> f
              | exception ((Db_error.Sql_error _ | Expr.Eval_error _) as ex) ->
                  fun _ _ -> raise ex
            in
            let last = Array.make arity (-1) in
            Array.iteri (fun j pos -> last.(pos) <- j) positions;
            let compile_row exprs =
              let row = Array.copy template and plan = Array.copy default_plan in
              let fits = List.length exprs = Array.length positions in
              let dyn =
                List.filter_map Fun.id
                  (List.mapi
                     (fun j e ->
                       let pos =
                         if fits && last.(positions.(j)) = j then positions.(j) else -1
                       in
                       match Value.of_ast_literal e with
                       | Some v ->
                           if pos >= 0 then begin
                             let c, v = const_coercion heap pos v in
                             row.(pos) <- v;
                             plan.(pos) <- c
                           end;
                           None
                       | None ->
                           if pos >= 0 then plan.(pos) <- Coerce;
                           Some (pos, compile e))
                     exprs)
              in
              (row, plan, List.length exprs, Array.of_list dyn)
            in
            let rows = List.map compile_row rows in
            fun params _txn ->
              List.map
                (fun (template, plan, n, dyn) ->
                  let row = Array.copy template in
                  Array.iter
                    (fun (pos, f) ->
                      let v = f params [||] in
                      if pos >= 0 then row.(pos) <- v)
                    dyn;
                  (row, plan, n))
                rows
        | Ast.Query q -> (
            let plan = Array.copy default_plan in
            Array.iter (fun pos -> plan.(pos) <- Coerce) positions;
            fun params txn ->
              match run_select ~params ctx txn q with
              | Rows (_, rows) ->
                  List.map
                    (fun values ->
                      let n = Array.length values in
                      let row = Array.copy template in
                      if n = Array.length positions then
                        Array.iteri (fun j pos -> row.(pos) <- values.(j)) positions;
                      (row, plan, n))
                    rows
              | Affected _ | Done _ | Explained _ -> assert false)
      in
      fun params txn ->
        let inserted = ref 0 in
        List.iter
          (fun (row, plan, n) ->
            if n <> Array.length positions then shape_error n;
            coerce_planned heap plan row;
            match insert_coerced ctx txn heap ~on_conflict_do_nothing row with
            | Some _ -> incr inserted
            | None -> ())
          (source_rows params txn);
        Affected !inserted
  | Ast.Update { table; sets; where } ->
      let heap = Catalog.find_table_exn ctx.catalog table in
      let schema = heap.Heap.schema in
      (* A literal is coerced here, once; the last assignment to a
         column decides how it is coerced, and the columns no
         assignment names are left as stored. *)
      let plan = Array.make (Schema.arity schema) Keep in
      let assignments =
        List.map
          (fun (c, e) ->
            let i = Schema.col_index_exn schema c in
            match Value.of_ast_literal e with
            | Some v ->
                let c, v = const_coercion heap i v in
                plan.(i) <- c;
                (i, fun _ _ -> v)
            | None ->
                plan.(i) <- Coerce;
                (i, Expr.compile_env (Schema.compile_expr schema e)))
          sets
      in
      let pred = Access.compile_pred heap where in
      fun params txn ->
        let targets = Access.select_tids ~params txn heap pred in
        List.iter
          (fun (tid, row) ->
            let row' = Array.copy row in
            List.iter (fun (i, f) -> row'.(i) <- f params row) assignments;
            coerce_planned heap plan row';
            update_row ctx txn heap tid row')
          targets;
        Affected (List.length targets)
  | Ast.Delete { table; where } ->
      let heap = Catalog.find_table_exn ctx.catalog table in
      let pred = Access.compile_pred heap where in
      fun params txn ->
        let targets = Access.select_tids ~params txn heap pred in
        List.iter (fun (tid, _row) -> delete_row ctx txn heap tid) targets;
        Affected (List.length targets)
  | _ -> invalid_arg "Executor.compile_write: not an INSERT, UPDATE or DELETE"

(* ------------------------------------------------------------------ *)
(* Statement dispatch                                                  *)
(* ------------------------------------------------------------------ *)

let exec_stmt ?(params = [||]) ctx txn (stmt : Ast.stmt) : result =
  (* Statement boundary: advance the snapshot to the published clock
     (read-committed; no-op for pinned transactions), so this statement
     sees every commit that published before it started — including a
     lazy-migration granule this very transaction just pulled in. *)
  Txn.refresh_snapshot txn;
  match stmt with
  | Ast.Select_stmt s -> run_select ~params ctx txn s
  | Ast.Explain { analyze; stmt = inner } -> (
      match inner with
      | Ast.Select_stmt s ->
          let planned = Planner.plan_select (planner_ctx ~params ctx txn) s in
          if not analyze then Explained (Plan.describe planned.Planner.plan)
          else begin
            (* ANALYZE: execute the plan with the profiler installed and
               render actual per-node rows/loops/time next to the plan. *)
            let pr = new_prof () in
            let saved = !prof_current in
            prof_current := Some pr;
            let t0 = Unix.gettimeofday () in
            let n =
              Fun.protect
                ~finally:(fun () -> prof_current := saved)
                (fun () -> List.length (run ~params txn planned.Planner.plan))
            in
            let dt = Unix.gettimeofday () -. t0 in
            Explained
              (Plan.describe ~annot:(prof_annot pr) planned.Planner.plan
              ^ Printf.sprintf "Execution: %d row(s) in %.3f ms\n" n (1000.0 *. dt))
          end
      | _ -> Explained "(only SELECT statements can be explained)")
  | Ast.Explain_migration _ ->
      (* The analyzer needs the migration machinery; the BullFrog layer
         intercepts this statement before it reaches the executor. *)
      Explained "(EXPLAIN MIGRATION requires a BullFrog session)"
  | Ast.Create_table { name; columns; constraints; if_not_exists } ->
      if if_not_exists && Catalog.exists ctx.catalog name then Done "CREATE TABLE"
      else begin
        let schema = Schema.of_ast (String.lowercase_ascii name) columns constraints in
        let table = Catalog.create_table ctx.catalog name schema in
        auto_indexes ctx table;
        log_ddl ctx stmt;
        Done "CREATE TABLE"
      end
  | Ast.Create_table_as { name; query } ->
      let n = create_table_as ctx txn name query in
      Done (Printf.sprintf "SELECT %d" n)
  | Ast.Create_view { name; query } ->
      Catalog.create_view ctx.catalog name query;
      log_ddl ctx stmt;
      Done "CREATE VIEW"
  | Ast.Create_index { name; table; columns; unique; using } ->
      let heap = Catalog.find_table_exn ctx.catalog table in
      let key_cols =
        Array.of_list (List.map (Schema.col_index_exn heap.Heap.schema) columns)
      in
      let kind =
        match using with
        | None | Some "hash" -> Index.Hash
        | Some "ordered" | Some "btree" -> Index.Ordered
        | Some other -> err "unknown index method %S" other
      in
      let idx = Index.create ~kind ~name:(String.lowercase_ascii name) ~key_cols ~unique () in
      Heap.add_index heap idx;
      Catalog.register_index ctx.catalog ~table:heap.Heap.name idx;
      log_ddl ctx stmt;
      Done "CREATE INDEX"
  | Ast.Drop { kind; name; if_exists } -> (
      match kind with
      | Ast.Drop_index ->
          if if_exists && Catalog.index_owner ctx.catalog name = None then Done "DROP INDEX"
          else begin
            Catalog.drop_index ctx.catalog name;
            log_ddl ctx stmt;
            Done "DROP INDEX"
          end
      | Ast.Drop_table | Ast.Drop_view ->
          if if_exists && not (Catalog.exists ctx.catalog name) then Done "DROP"
          else begin
            Catalog.drop ctx.catalog name;
            log_ddl ctx stmt;
            Done (match kind with Ast.Drop_table -> "DROP TABLE" | _ -> "DROP VIEW")
          end)
  | Ast.Alter_table { table; action } ->
      let r = alter_table ctx txn table action in
      (* ALTER TABLE mutates the heap schema in place without going
         through a catalog mutator, so bump the epoch here. *)
      Catalog.bump_epoch ctx.catalog;
      log_ddl ctx stmt;
      r
  | Ast.Insert _ | Ast.Update _ | Ast.Delete _ -> compile_write ~params ctx txn stmt params txn
  | Ast.Begin_txn | Ast.Commit_txn | Ast.Rollback_txn ->
      err "transaction control statements are handled by the session layer"
