open Bullfrog_db
open Bullfrog_sql
module Lazy_db = Bullfrog_core.Lazy_db
module Migrate_exec = Bullfrog_core.Migrate_exec
module Migration = Bullfrog_core.Migration
module Fault = Bullfrog_core.Fault
module Counters = Obs.Counters

let sql_error fmt = Printf.ksprintf (fun s -> raise (Db_error.Sql_error s)) fmt

(* ------------------------------------------------------------------ *)
(* counters                                                            *)

let c_stmts = Counters.make "shard.stmts"
let c_single = Counters.make "shard.routed_single"
let c_multi = Counters.make "shard.routed_multi"
let c_ddl_bcast = Counters.make "shard.ddl_broadcasts"
let c_selects = Counters.make "shard.selects"
let c_selects_single = Counters.make "shard.selects_single"
let c_scatters = Counters.make "shard.scatters"
let c_2pc_commits = Counters.make "shard.2pc_commits"
let c_2pc_aborts = Counters.make "shard.2pc_aborts"
let c_rows_moved = Counters.make "shard.rows_moved"
let c_flips = Counters.make "shard.flips"

(* ------------------------------------------------------------------ *)
(* state                                                               *)

type shard = {
  sh_id : int;
  sh_db : Database.t;
  sh_lazy : Lazy_db.t;
}

type migration_state = {
  mig_spec : Migration.t;
  mig_rts : Migrate_exec.t array;  (* one independent runtime per shard *)
  mig_outputs : string list;
  mig_watermarks : (string, int array) Hashtbl.t;
      (* per output table, the TID up to which each shard's heap has been
         scanned by the row mover *)
}

type t = {
  shards : shard array;
  coord_log : Redo_log.t;
      (* coordinator 2PC decision log; each shard logs its own migration
         lifecycle *)
  mutable parts : (string * Partition.t) list;
  mutable next_gid : int;
  epoch : int Atomic.t;
      (* cluster schema epoch: published with a single store only after
         every shard has acked a flip — readers see either the whole
         cluster pre-flip or the whole cluster post-flip *)
  latch : Mutex.t;  (* serialises statements and migration driving *)
  mutable migration : migration_state option;
  prov : string;  (* this cluster's Obs stats-provider name *)
}

let lc = String.lowercase_ascii

(* Forward reference: the provider thunk registered in [create] needs
   the migration gauges defined at the bottom of this file. *)
let stats_of : (t -> Obs.stat list) ref = ref (fun _ -> [])

(* Per-instance provider names so concurrently-live clusters (tests,
   recovery) do not clobber each other's registration. *)
let next_cluster_id = Atomic.make 0

let create ?(shards = 4) () =
  if shards < 1 then invalid_arg "Cluster.create: shards must be >= 1";
  let t =
    {
      shards =
        Array.init shards (fun i ->
            let db = Database.create () in
            { sh_id = i; sh_db = db; sh_lazy = Lazy_db.create db });
      coord_log = Redo_log.create ();
      parts = [];
      next_gid = 0;
      epoch = Atomic.make 0;
      latch = Mutex.create ();
      migration = None;
      prov =
        Printf.sprintf "cluster:%d" (Atomic.fetch_and_add next_cluster_id 1);
    }
  in
  Obs.register_stats t.prov (fun () -> !stats_of t);
  t

let close t = Obs.unregister_stats t.prov

let shard_count t = Array.length t.shards
let shard_db t i = t.shards.(i).sh_db
let epoch t = Atomic.get t.epoch
let partition_of t name = List.assoc_opt (lc name) t.parts

let set_partition t name part =
  t.parts <- (lc name, part) :: List.remove_assoc (lc name) t.parts

let all_ids t = List.init (shard_count t) (fun i -> i)

let with_latch t f =
  Mutex.lock t.latch;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.latch) f

let default_partition t name =
  match Catalog.find_table t.shards.(0).sh_db.Database.catalog (lc name) with
  | None -> None
  | Some heap ->
      let schema = heap.Heap.schema in
      if Array.length schema.Schema.columns = 0 then None
      else
        let idx =
          match schema.Schema.primary_key with
          | Some a when Array.length a > 0 -> a.(0)
          | _ -> 0
        in
        Some
          (Partition.hash
             ~column:schema.Schema.columns.(idx).Schema.name
             ~shards:(shard_count t))

(* ------------------------------------------------------------------ *)
(* AST helpers                                                         *)

let where_has_subquery = function None -> false | Some e -> Ast.expr_has_subquery e

let rec take n = function
  | [] -> []
  | _ when n <= 0 -> []
  | x :: rest -> x :: take (n - 1) rest

(* ------------------------------------------------------------------ *)
(* per-shard execution and scatter/gather                              *)

(* One client statement on its way through the shards.  Every shard runs
   the client's own text on the path [Lazy_db.exec] takes: the shard's
   statement cache and interception entry ({!Lazy_db.intercept}), then
   [Database.exec_prepared_in] with the call's parameters, which reuses
   the shard's cached plan. *)
type request = {
  rq_sql : string;
  rq_params : Value.t array option;
  rq_preps : Database.prepared option array;  (* per shard, once intercepted *)
}

let prepared t rq s =
  match rq.rq_preps.(s) with
  | Some p -> p
  | None ->
      let p = Lazy_db.intercept t.shards.(s).sh_lazy ?params:rq.rq_params rq.rq_sql in
      rq.rq_preps.(s) <- Some p;
      p

let run_in t rq s txn =
  Database.exec_prepared_in t.shards.(s).sh_db txn ?params:rq.rq_params (prepared t rq s)

let exec_on t rq s = Database.with_txn t.shards.(s).sh_db (run_in t rq s)

(* Scatter [f] over the given shards in order on the calling thread and
   gather the results in shard order.  Every shard runs; the first error
   in shard order is re-raised once all have.  Each shard runs under a
   "shard-N" span, so a scattered scan shows up as N children of the
   routing span.  No thread per shard: OCaml threads share one runtime
   lock, so the shards would run one at a time anyway. *)
let scatter ids f =
  let shard_span s g =
    if Obs.Trace.enabled () then
      Obs.Trace.with_span ~cat:"cluster" (Printf.sprintf "shard-%d" s) g
    else g ()
  in
  if List.compare_length_with ids 1 > 0 then Counters.bump c_scatters;
  List.map (fun s -> (s, try Ok (shard_span s (fun () -> f s)) with e -> Error e))
    ids
  |> List.map (fun (s, r) -> match r with Ok v -> (s, v) | Error e -> raise e)

(* ------------------------------------------------------------------ *)
(* two-phase commit                                                    *)

let fresh_gid t =
  let n = t.next_gid in
  t.next_gid <- n + 1;
  Printf.sprintf "gid-%06d" n

(* Coordinator-driven 2PC over the participating shards' own redo logs:
   execute each shard's share in an open transaction, append a durable
   E_prepare per shard, log the coordinator's decision, then make every
   shard's writes visible with ONE {!Mvcc.commit} publish (the stamp
   callback stamps all participants, so the distributed transaction
   appears atomically to snapshot readers), and finally append each
   shard-local decision marker.  Crash points bracket every durability
   boundary; an in-doubt shard resolves from the coordinator log at
   recovery, presumed abort. *)
let two_pc t (work : (int * (Txn.t -> Executor.result)) list) =
  let gid = fresh_gid t in
  Obs.Trace.with_span ~cat:"cluster" "2pc"
    ~args:
      [ ("gid", gid); ("shards", string_of_int (List.length work)) ]
  @@ fun () ->
  let parts =
    List.map
      (fun (s, f) ->
        let sh = t.shards.(s) in
        (sh, Database.begin_txn sh.sh_db, f))
      work
  in
  let results =
    try List.map (fun (_, txn, f) -> f txn) parts
    with
    | Fault.Crash _ as c -> raise c
    | e ->
        (* nothing prepared yet: plain rollback on every shard *)
        List.iter
          (fun (sh, txn, _) -> if Txn.active txn then Database.abort sh.sh_db txn)
          parts;
        Counters.bump c_2pc_aborts;
        raise e
  in
  (try
     List.iter
       (fun (sh, txn, _) ->
         ignore (Database.prepare_2pc sh.sh_db txn ~gid : Redo_log.record);
         Fault.point Fault.p_2pc_prepare)
       parts
   with
   | Fault.Crash _ as c -> raise c
   | e ->
       Redo_log.append_decision t.coord_log ~gid ~commit:false ~ts:0;
       Obs.Flight.notef ~cat:"2pc" "%s aborted at prepare: %s" gid
         (Printexc.to_string e);
       List.iter
         (fun (sh, txn, _) ->
           if Txn.active txn then Database.resolve_2pc sh.sh_db txn ~gid ~commit:None)
         parts;
       Counters.bump c_2pc_aborts;
       raise e);
  Redo_log.append_decision t.coord_log ~gid ~commit:true ~ts:0;
  Obs.Flight.notef ~cat:"2pc" "%s decided commit (%d shard(s))" gid
    (List.length parts);
  Fault.point Fault.p_2pc_decision;
  let ts =
    Mvcc.commit ~stamp:(fun ts ->
        List.iter (fun (_, txn, _) -> Database.stamp_prepared txn ~ts) parts)
  in
  List.iter
    (fun (sh, txn, _) ->
      Database.resolve_2pc sh.sh_db txn ~gid ~commit:(Some ts);
      Fault.point Fault.p_2pc_ack)
    parts;
  Counters.bump c_2pc_commits;
  results

let sum_affected results =
  Executor.Affected
    (List.fold_left
       (fun acc r -> match r with Executor.Affected n -> acc + n | _ -> acc)
       0 results)

(* ------------------------------------------------------------------ *)
(* migration row movement                                              *)

(* Migrated rows whose NEW-schema home shard (by the output table's
   partition) differs from the shard that produced them move — the hard
   case where the migration changes the partition key.  One call moves
   every such row it finds on shard [s] in ONE 2PC: the deletes on [s],
   the inserts grouped per home shard.  The watermarks advance only once
   that 2PC commits, so a failed move is found again by the next call. *)
let move_misplaced t m s =
  let scanned = ref [] and moves = ref [] in
  List.iter
    (fun out ->
      match (partition_of t out, Catalog.find_table t.shards.(s).sh_db.Database.catalog out) with
      | Some part, Some heap ->
          let wms = Hashtbl.find m.mig_watermarks out in
          let n = Heap.tid_count heap in
          for tid = wms.(s) to n - 1 do
            match Heap.get heap tid with
            | None -> ()
            | Some row -> (
                match Partition.shard_of_row part heap.Heap.schema row with
                | Some home when home <> s -> moves := (out, home, tid, row) :: !moves
                | Some _ | None -> ())
          done;
          scanned := (wms, n) :: !scanned
      | _ -> ())
    m.mig_outputs;
  let moves = List.rev !moves in
  if moves <> [] then begin
    let ctx i = Database.exec_ctx t.shards.(i).sh_db in
    let heap i out = Catalog.find_table_exn t.shards.(i).sh_db.Database.catalog out in
    let deletes txn =
      List.iter (fun (out, _, tid, _) -> Executor.delete_row (ctx s) txn (heap s out) tid) moves;
      Executor.Affected (List.length moves)
    in
    let inserts home txn =
      let mine = List.filter (fun (_, h, _, _) -> h = home) moves in
      List.iter
        (fun (out, _, _, row) ->
          ignore (Executor.insert_row (ctx home) txn (heap home out) row : int option))
        mine;
      Executor.Affected (List.length mine)
    in
    let homes = List.sort_uniq Int.compare (List.map (fun (_, h, _, _) -> h) moves) in
    ignore
      (two_pc t ((s, deletes) :: List.map (fun h -> (h, inserts h)) homes)
        : Executor.result list);
    Counters.add c_rows_moved (List.length moves)
  end;
  List.iter (fun (wms, n) -> wms.(s) <- n) !scanned

(* Mid-migration every shard intercepts the statement, in shard order:
   rollback purges run on all of them, while an input's lazy candidate
   scan runs only on the shards [Partition.route] picks for the input's
   candidate WHERE with the call's parameters.  A shard that scanned
   then moves the rows it migrated off their new home shard. *)
let intercept_shards t m rq =
  Array.iteri
    (fun s sh ->
      let scanned = ref false in
      let route table where =
        let here =
          match partition_of t table with
          | Some p -> List.mem s (Partition.route ?params:rq.rq_params p where)
          | None -> true
        in
        if here then scanned := true;
        here
      in
      rq.rq_preps.(s) <- Some (Lazy_db.intercept sh.sh_lazy ?params:rq.rq_params ~route rq.rq_sql);
      if !scanned then move_misplaced t m s)
    t.shards

(* ------------------------------------------------------------------ *)
(* SELECT merge                                                        *)

let count_star_only (sel : Ast.select) =
  (not sel.Ast.distinct)
  && sel.Ast.group_by = []
  && sel.Ast.having = None
  &&
  match sel.Ast.projections with
  | [ Ast.Proj_expr (Ast.Agg (Ast.Count, false, None), _) ] -> true
  | _ -> false

let select_has_agg (sel : Ast.select) =
  sel.Ast.group_by <> []
  || sel.Ast.having <> None
  || List.exists
       (function
         | Ast.Proj_expr (e, _) -> Ast.contains_agg e
         | Ast.Proj_star | Ast.Proj_table_star _ -> false)
       sel.Ast.projections

let resort header order rows =
  let pos_of e =
    match e with
    | Ast.Col (_, n) ->
        let n = lc n in
        let rec go i = function
          | [] -> None
          | c :: rest -> if lc c = n then Some i else go (i + 1) rest
        in
        go 0 header
    | Ast.Int_lit i when i >= 1 && i <= List.length header -> Some (i - 1)
    | _ -> None
  in
  let keys =
    List.map
      (fun (e, dir) ->
        match pos_of e with
        | Some i -> (i, dir)
        | None ->
            sql_error "cluster: cannot merge ORDER BY over a non-output expression")
      order
  in
  let cmp a b =
    let rec go = function
      | [] -> 0
      | (i, dir) :: rest ->
          let c = Value.compare a.(i) b.(i) in
          let c = match dir with Ast.Asc -> c | Ast.Desc -> -c in
          if c <> 0 then c else go rest
    in
    go keys
  in
  List.stable_sort cmp rows

let merge_select sel (results : (int * Executor.result) list) =
  let parts =
    List.map
      (fun (_, r) ->
        match r with
        | Executor.Rows (cols, rows) -> (cols, rows)
        | _ -> sql_error "cluster: unexpected non-row result from shard")
      results
  in
  let header = match parts with (h, _) :: _ -> h | [] -> [] in
  if count_star_only sel then
    let total =
      List.fold_left
        (fun acc (_, rows) ->
          match rows with
          | [ [| Value.Int n |] ] -> acc + n
          | _ -> sql_error "cluster: malformed COUNT(*) result")
        0 parts
    in
    Executor.Rows (header, [ [| Value.Int total |] ])
  else if select_has_agg sel then
    sql_error "cluster: cross-shard aggregates other than COUNT(*) are unsupported"
  else
    let rows = List.concat_map snd parts in
    let rows = if sel.Ast.distinct then List.sort_uniq compare rows else rows in
    let rows =
      if sel.Ast.order_by = [] then rows else resort header sel.Ast.order_by rows
    in
    let rows = match sel.Ast.limit with Some n -> take n rows | None -> rows in
    Executor.Rows (header, rows)

(* ------------------------------------------------------------------ *)
(* statement routing                                                   *)

let broadcast t rq =
  Counters.bump c_ddl_bcast;
  match List.map (exec_on t rq) (all_ids t) with
  | r :: _ -> r
  | [] -> assert false

let route_write t rq part where =
  if where_has_subquery where then
    sql_error "cluster: subqueries in WHERE are unsupported";
  match Partition.route ?params:rq.rq_params part where with
  | [] -> Executor.Affected 0
  | [ s ] ->
      Counters.bump c_single;
      exec_on t rq s
  | cs ->
      Counters.bump c_multi;
      sum_affected (two_pc t (List.map (fun s -> (s, run_in t rq s)) cs))

let exec_select t rq sel =
  Counters.bump c_selects;
  if
    where_has_subquery sel.Ast.where
    || where_has_subquery sel.Ast.having
    || List.exists
         (function
           | Ast.Proj_expr (e, _) -> Ast.expr_has_subquery e
           | Ast.Proj_star | Ast.Proj_table_star _ -> false)
         sel.Ast.projections
  then sql_error "cluster: subqueries are unsupported";
  match sel.Ast.from with
  | [] ->
      Counters.bump c_selects_single;
      exec_on t rq 0
  | [ Ast.From_table (tbl, _) ] -> (
      let cands =
        match partition_of t tbl with
        | Some p -> Partition.route ?params:rq.rq_params p sel.Ast.where
        | None -> all_ids t
      in
      match cands with
      | [] ->
          (* provably no matching rows anywhere; shard 0 supplies the header *)
          Counters.bump c_selects_single;
          exec_on t rq 0
      | [ s ] ->
          Counters.bump c_selects_single;
          exec_on t rq s
      | cs -> merge_select sel (scatter cs (exec_on t rq)))
  | _ ->
      sql_error
        "cluster: cross-shard joins and FROM subqueries are unsupported (single-table statements only)"

let route_note t ?params stmt =
  let note tbl where =
    match partition_of t tbl with
    | Some p ->
        let cands = Partition.route ?params p where in
        Printf.sprintf "route: %s via %s -> shards [%s]" tbl (Partition.to_string p)
          (String.concat ";" (List.map string_of_int cands))
    | None -> Printf.sprintf "route: %s unpartitioned -> broadcast" tbl
  in
  match stmt with
  | Ast.Select_stmt { Ast.from = [ Ast.From_table (tbl, _) ]; where; _ } ->
      note (lc tbl) where
  | Ast.Update { table; where; _ } -> note (lc table) where
  | Ast.Delete { table; where } -> note (lc table) where
  | Ast.Insert { table; _ } ->
      Printf.sprintf "route: %s by partition key per row" (lc table)
  | _ -> "route: broadcast"

let exec_routed t rq stmt =
  match stmt with
  | Ast.Begin_txn | Ast.Commit_txn | Ast.Rollback_txn ->
      sql_error "cluster: explicit transactions are unsupported (auto-commit only)"
  | Ast.Create_table_as _ ->
      sql_error "cluster: CREATE TABLE AS is unsupported (use a migration)"
  | Ast.Create_table { name; _ } ->
      let r = broadcast t rq in
      (match default_partition t name with
      | Some p when partition_of t name = None -> set_partition t name p
      | _ -> ());
      r
  | Ast.Drop { kind = Ast.Drop_table; name; _ } ->
      let r = broadcast t rq in
      t.parts <- List.remove_assoc (lc name) t.parts;
      r
  | Ast.Alter_table { table; action = Ast.Rename_to nn } ->
      let r = broadcast t rq in
      (match partition_of t table with
      | Some p ->
          t.parts <- (lc nn, p) :: List.remove_assoc (lc table) t.parts
      | None -> ());
      r
  | Ast.Create_view _ | Ast.Create_index _ | Ast.Drop _ | Ast.Alter_table _ ->
      broadcast t rq
  | Ast.Explain_migration _ -> exec_on t rq 0
  | Ast.Explain { stmt = inner; _ } -> (
      let line = route_note t ?params:rq.rq_params inner in
      match exec_on t rq 0 with
      | Executor.Explained s -> Executor.Explained (line ^ "\n" ^ s)
      | other -> other)
  | Ast.Insert ({ table; columns; source = Ast.Values rows; _ } as r) -> (
      let tbl = lc table in
      let part =
        match partition_of t tbl with
        | Some p -> p
        | None -> sql_error "cluster: no partition spec for table %s" tbl
      in
      let schema =
        match Catalog.find_table t.shards.(0).sh_db.Database.catalog tbl with
        | Some h -> h.Heap.schema
        | None -> sql_error "cluster: unknown table %s" tbl
      in
      let slot =
        let pcol = Partition.column part in
        match columns with
        | Some cols ->
            let rec idx i = function
              | [] -> None
              | c :: rest -> if lc c = pcol then Some i else idx (i + 1) rest
            in
            idx 0 cols
        | None -> Schema.col_index schema pcol
      in
      let slot =
        match slot with
        | Some i -> i
        | None ->
            sql_error "cluster: INSERT into %s must supply partition column %s" tbl
              (Partition.column part)
      in
      let home_of row_exprs =
        match List.nth_opt row_exprs slot with
        | None -> sql_error "cluster: INSERT row arity below partition column"
        | Some e -> (
            let key =
              match (e, rq.rq_params) with
              | Ast.Param i, Some ps -> Some ps.(i - 1)
              | e, _ -> Value.of_ast_literal e
            in
            match key with
            | Some v -> Partition.shard_of_value part v
            | None -> sql_error "cluster: partition key of %s must be a literal" tbl)
      in
      let groups =
        List.fold_left
          (fun acc row ->
            let s = home_of row in
            match List.assoc_opt s acc with
            | Some rs -> (s, row :: rs) :: List.remove_assoc s acc
            | None -> (s, [ row ]) :: acc)
          [] rows
        |> List.map (fun (s, rs) -> (s, List.rev rs))
        |> List.sort compare
      in
      match groups with
      | [] -> Executor.Affected 0
      | [ (s, _) ] ->
          Counters.bump c_single;
          exec_on t rq s
      | _ ->
          (* each home shard gets its own rows: the one statement the
             cluster rewrites, so it runs as an AST *)
          Counters.bump c_multi;
          sum_affected
            (two_pc t
               (List.map
                  (fun (s, rs) ->
                    ( s,
                      fun txn ->
                        Executor.exec_stmt ?params:rq.rq_params
                          (Database.exec_ctx t.shards.(s).sh_db)
                          txn
                          (Ast.Insert { r with source = Ast.Values rs }) ))
                  groups)))
  | Ast.Insert _ -> sql_error "cluster: INSERT ... SELECT is unsupported"
  | Ast.Update { table; sets; where } ->
      let tbl = lc table in
      let part =
        match partition_of t tbl with
        | Some p -> p
        | None -> sql_error "cluster: no partition spec for table %s" tbl
      in
      if List.exists (fun (c, _) -> lc c = Partition.column part) sets then
        sql_error "cluster: updating the partition column is unsupported";
      route_write t rq part where
  | Ast.Delete { table; where } ->
      let tbl = lc table in
      let part =
        match partition_of t tbl with
        | Some p -> p
        | None -> sql_error "cluster: no partition spec for table %s" tbl
      in
      route_write t rq part where
  | Ast.Select_stmt sel -> exec_select t rq sel

(* Shard 0's interception speaks for the statement's rejection and its
   parameter count on every shard: the shards hold the same schema and
   migration runtime.  Mid-migration all shards intercept first; the
   statement then runs on the shards it routes to. *)
let exec t ?params sql =
  with_latch t (fun () ->
      Counters.bump c_stmts;
      let rq = { rq_sql = sql; rq_params = params; rq_preps = Array.make (shard_count t) None } in
      let body () =
        (match t.migration with Some m -> intercept_shards t m rq | None -> ());
        let p0 = prepared t rq 0 in
        Database.check_params p0 params;
        exec_routed t rq (Database.prepared_stmt p0)
      in
      if Obs.Trace.enabled () then
        (* the routing decision is the span's payload: a slow statement's
           trace says on its face which shards it fanned out to *)
        let p0 = Database.prepare t.shards.(0).sh_db sql in
        let decision =
          match Database.check_params p0 params with
          | () -> route_note t ?params (Database.prepared_stmt p0)
          | exception Db_error.Sql_error msg -> msg
        in
        Obs.Trace.with_span ~cat:"cluster" "route" ~args:[ ("decision", decision) ] body
      else body ())

(* Each statement of the script goes through [exec] as its own text. *)
let exec_script t sql =
  List.map (fun stmt -> exec t (Pretty.stmt_to_string stmt)) (Parser.parse sql)

let query t ?params sql =
  match exec t ?params sql with
  | Executor.Rows (_, rows) -> rows
  | _ -> sql_error "cluster: statement returned no rows"

let query_one t ?params sql =
  match query t ?params sql with
  | row :: _ -> row
  | [] -> sql_error "cluster: query_one on empty result"

let explain t sql =
  route_note t (Database.prepared_stmt (Database.prepare t.shards.(0).sh_db sql))
  ^ "\n" ^ Database.explain t.shards.(0).sh_db sql

let vacuum ?budget t =
  Array.fold_left (fun acc sh -> acc + Database.vacuum ?budget sh.sh_db) 0 t.shards

let frontend t =
  {
    Frontend.f_name = Printf.sprintf "cluster:%d" (shard_count t);
    f_exec = (fun ?params sql -> exec t ?params sql);
    f_query = (fun ?params sql -> query t ?params sql);
    f_explain = (fun sql -> explain t sql);
  }

(* ------------------------------------------------------------------ *)
(* cluster-wide migration                                              *)

(* An n:1 aggregate is only sound per-shard when every group lives
   wholly on one shard, i.e. the group key covers the input's partition
   column; otherwise each shard would emit a silent partial aggregate
   for the straddling groups. *)
let check_aggregate_partition t mig =
  List.iter
    (fun (tbl, cols) ->
      match partition_of t tbl with
      | None -> ()
      | Some p ->
          let pc = lc (Partition.column p) in
          if not (List.mem pc (List.map lc cols)) then
            sql_error
              "cluster: aggregate migration groups %s by (%s) but the table is \
               partitioned by %s — groups straddle shards and per-shard \
               aggregates would be wrong; group by the partition column or \
               repartition the input first"
              tbl (String.concat ", " cols) pc)
    (Bullfrog_core.Mig_lint.aggregate_group_keys t.shards.(0).sh_db.Database.catalog mig)

let spec_outputs (mig : Migration.t) =
  List.sort_uniq compare
    (List.concat_map
       (fun st -> List.map (fun o -> lc o.Migration.out_name) st.Migration.outputs)
       mig.Migration.statements)

(* The coordinator's record of an active migration.  Row-mover
   watermarks start at each output heap's current top when the rows below
   it are already home ([from_tops]), or at 0 after a restart: the mover
   then rescans every output heap, which is idempotent (moving is a 2PC
   delete+insert keyed by the row's home shard; already-home rows are
   skipped). *)
let migration_record t ~from_tops spec rts =
  let outputs = spec_outputs spec in
  let wms = Hashtbl.create 8 in
  List.iter
    (fun out ->
      Hashtbl.replace wms out
        (Array.map
           (fun sh ->
             match Catalog.find_table sh.sh_db.Database.catalog out with
             | Some h when from_tops -> Heap.tid_count h
             | Some _ | None -> 0)
           t.shards))
    outputs;
  { mig_spec = spec; mig_rts = rts; mig_outputs = outputs; mig_watermarks = wms }

(* Each shard logs its own Start record.  A crash between two shards'
   switches leaves the later ones unswitched; [recover] starts them, so
   the outputs get their partitions (read from shard 0's catalog) as
   soon as shard 0 has switched. *)
let start_migration ?(partitions = []) t mig =
  with_latch t (fun () ->
      if t.migration <> None then sql_error "cluster: a migration is already active";
      check_aggregate_partition t mig;
      let partitions = List.map (fun (k, v) -> (lc k, v)) partitions in
      let rts =
        Array.mapi
          (fun s sh ->
            let rt = Lazy_db.start_migration sh.sh_lazy mig in
            if s = 0 then
              List.iter
                (fun out ->
                  match List.assoc_opt out partitions with
                  | Some p -> set_partition t out p
                  | None -> (
                      match default_partition t out with
                      | Some p when partition_of t out = None -> set_partition t out p
                      | _ -> ()))
                (spec_outputs mig);
            Fault.point Fault.p_cluster_start;
            rt)
          t.shards
      in
      t.migration <- Some (migration_record t ~from_tops:true mig rts);
      (* the cluster-wide flip: one store, after every shard acked *)
      Atomic.incr t.epoch;
      Obs.Flight.notef ~cat:"cluster" "migration %s started (epoch %d)"
        mig.Migration.name (Atomic.get t.epoch);
      Counters.bump c_flips)

let background_step t ~batch =
  with_latch t (fun () ->
      match t.migration with
      | None -> 0
      | Some m ->
          let total = ref 0 in
          Array.iteri
            (fun s sh ->
              (* through Lazy_db so rollback purges drain with the batch *)
              let n = Lazy_db.background_step sh.sh_lazy ~batch in
              if n > 0 then move_misplaced t m s;
              total := !total + n)
            t.shards;
          !total)

let active_migration t = Option.map (fun m -> m.mig_spec) t.migration

(* Unmigrated-granule backlog summed across shards — the debt gauge the
   wire server's circuit breaker samples. *)
let migration_debt t =
  Array.fold_left
    (fun acc sh -> acc + Lazy_db.migration_debt sh.sh_lazy)
    0 t.shards

let migration_complete t =
  match t.migration with
  | None -> true
  | Some _ ->
      (* per-shard completeness includes rollback purge drainage *)
      Array.for_all (fun sh -> Lazy_db.migration_complete sh.sh_lazy) t.shards

let migration_progress t =
  match t.migration with
  | None -> 1.0
  | Some m ->
      let sum = Array.fold_left (fun acc rt -> acc +. Migrate_exec.progress rt) 0.0 m.mig_rts in
      sum /. float_of_int (Array.length m.mig_rts)

let forget_partitions t drops =
  t.parts <- List.filter (fun (k, _) -> not (List.mem k drops)) t.parts

(* Every shard must be complete before any drops the spec's [drop_old].
   Each shard logs its own Finalize record before its drops and End
   after them; a crash between shards recovers by finishing the drops on
   the rest (see [recover]).  The partition specs go first: they are
   coordinator memory, which a crash keeps. *)
let finalize t =
  with_latch t (fun () ->
      match t.migration with
      | None -> ()
      | Some m ->
          Array.iteri (fun s _ -> move_misplaced t m s) t.shards;
          Array.iter (fun sh -> Lazy_db.check_finalizable sh.sh_lazy) t.shards;
          forget_partitions t m.mig_spec.Migration.drop_old;
          Array.iter
            (fun sh ->
              Lazy_db.finalize sh.sh_lazy;
              Fault.point Fault.p_cluster_finalize)
            t.shards;
          Obs.Flight.notef ~cat:"cluster" "migration %s finalized"
            m.mig_spec.Migration.name;
          t.migration <- None)

(* Cluster-wide mid-flight rollback (§4.2j): flip every shard to the
   derived backward migration under the latch, then publish one epoch
   store — readers see either the whole cluster migrating forward or the
   whole cluster rolling back, like the original flip.  Each shard logs
   its own Rollback record.  A migration that dropped nothing rolls back
   by dropping its outputs (identical specs and lint verdicts, so the
   shards agree), behind each shard's own Finalize and End records. *)
let rollback_migration t =
  with_latch t (fun () ->
      match t.migration with
      | None -> sql_error "cluster: no migration is active; nothing to roll back"
      | Some m ->
          let brts =
            Array.map
              (fun sh ->
                let b = Lazy_db.rollback_migration sh.sh_lazy in
                if Option.is_none b then begin
                  forget_partitions t m.mig_outputs;
                  Fault.point Fault.p_cluster_rollback
                end;
                b)
              t.shards
          in
          (match brts.(0) with
          | None -> t.migration <- None
          | Some brt ->
              (* Watermarks start at the current heap tops: the surviving
                 old rows never moved (they are already home), only
                 reconstructed rows appended above need the row mover. *)
              t.migration <-
                Some
                  (migration_record t ~from_tops:true brt.Migrate_exec.spec
                     (Array.map Option.get brts)));
          Atomic.incr t.epoch;
          Obs.Flight.notef ~cat:"cluster" "migration %s rolled back (epoch %d)"
            m.mig_spec.Migration.name (Atomic.get t.epoch);
          Counters.bump c_flips)

(* ------------------------------------------------------------------ *)
(* recovery                                                            *)

(* How far a shard got with a migration, by its last record: 0 = not
   started, then Start, Rollback, Finalize, End. *)
let phase steps =
  match List.rev steps with
  | [] -> 0
  | Redo_log.M_start _ :: _ -> 1
  | Redo_log.M_rollback _ :: _ -> 2
  | Redo_log.M_finalize _ :: _ -> 3
  | Redo_log.M_end :: _ -> 4

let recover old =
  let coord_log = Redo_log.deserialize (Redo_log.serialize old.coord_log) in
  let decisions = Redo_log.decisions coord_log in
  let resolve gid = List.exists (fun (g, c, _) -> g = gid && c) decisions in
  let dbs =
    Array.map
      (fun sh ->
        Database.replay ~resolve
          (Redo_log.deserialize (Redo_log.serialize sh.sh_db.Database.redo)))
      old.shards
  in
  (* Lifecycle steps run shard by shard, so a crash between two shards
     leaves the later ones one step behind.  Every shard is driven to the
     furthest phase any shard reached for the newest migration: the
     laggards start, roll back, or take the leader's Finalize record and
     finish its drops. *)
  let logged = Array.map (fun db -> Redo_log.lifecycle db.Database.redo) dbs in
  let newest =
    Array.fold_left
      (fun acc -> function Some (id, _) -> max acc id | None -> acc)
      0 logged
  in
  let steps =
    Array.map (function Some (id, steps) when id = newest -> steps | _ -> []) logged
  in
  let phases = Array.map phase steps in
  let target = Array.fold_left max 0 phases in
  let lead = steps.(Option.get (Array.find_index (( = ) target) phases)) in
  let shards =
    Array.mapi
      (fun s db ->
        let behind = phases.(s) < target in
        if behind && target >= 3 then begin
          if phases.(s) = 0 then
            sql_error "cluster recovery: shard %d never started migration %d" s newest;
          Redo_log.append_lifecycle db.Database.redo ~mig_id:newest
            (List.find (function Redo_log.M_finalize _ -> true | _ -> false) lead)
        end;
        let ld = Lazy_db.recover db in
        if behind && target <= 2 then begin
          (if phases.(s) = 0 then
             match lead with
             | Redo_log.M_start st :: _ ->
                 let rt = Lazy_db.start_migration ld (Migration.deserialize st.ms_spec) in
                 if rt.Migrate_exec.mig_id <> newest then
                   sql_error "cluster recovery: shard %d numbered migration %d as %d" s
                     newest rt.Migrate_exec.mig_id
             | _ -> assert false (* [Redo_log.lifecycle] opens with the start *));
          if target = 2 then
            ignore (Lazy_db.rollback_migration ld : Migrate_exec.t option)
        end;
        { sh_id = s; sh_db = db; sh_lazy = ld })
      dbs
  in
  let t =
    {
      shards;
      coord_log;
      parts = old.parts;
      next_gid = old.next_gid;
      epoch = Atomic.make (Atomic.get old.epoch);
      latch = Mutex.create ();
      migration = None;
      prov =
        Printf.sprintf "cluster:%d" (Atomic.fetch_and_add next_cluster_id 1);
    }
  in
  (* the recovered cluster replaces the crashed one: its stats provider
     goes too, so sweeps that recover in a loop do not leak providers *)
  close old;
  Obs.register_stats t.prov (fun () -> !stats_of t);
  Obs.Flight.notef ~cat:"cluster" "recovered %d shard(s), epoch %d"
    (Array.length shards) (Atomic.get t.epoch);
  if target = 1 || target = 2 then begin
    let rts = Array.map (fun sh -> Option.get (Lazy_db.active sh.sh_lazy)) shards in
    t.migration <-
      Some (migration_record t ~from_tops:false rts.(0).Migrate_exec.spec rts);
    (* a flip that some shard had not taken completes here *)
    if Array.exists (fun p -> p < target) phases then Atomic.incr t.epoch
  end;
  t

(* ------------------------------------------------------------------ *)
(* coordinator-merged observability                                    *)

(* Shard-labeled gauges merged at the coordinator: one coordinator stat
   (epoch, debt, progress) plus one stat per shard under
   "<prov>/shardN", so a STATS scrape attributes backfill progress to
   the shard that owes it.  Reads the same latch-free gauges the
   breaker samples — safe off the statement path. *)
let shard_stats t =
  let coord =
    {
      Obs.st_source = t.prov;
      st_name = "coordinator";
      st_fields =
        [
          ("shards", float_of_int (shard_count t));
          ("epoch", float_of_int (Atomic.get t.epoch));
          ("migration_active", if t.migration = None then 0.0 else 1.0);
          ("migration_debt", float_of_int (migration_debt t));
          ("backfill_progress", migration_progress t);
        ];
    }
  in
  let per_shard =
    Array.to_list
      (Array.map
         (fun sh ->
           {
             Obs.st_source = Printf.sprintf "%s/shard%d" t.prov sh.sh_id;
             st_name = "migration";
             st_fields =
               [
                 ("debt", float_of_int (Lazy_db.migration_debt sh.sh_lazy));
                 ("backfill_progress", Lazy_db.progress sh.sh_lazy);
               ];
           })
         t.shards)
  in
  coord :: per_shard

let () = stats_of := shard_stats

let obs_snapshot t =
  { Obs.snap_counters = Obs.Counters.snapshot (); snap_stats = shard_stats t }
