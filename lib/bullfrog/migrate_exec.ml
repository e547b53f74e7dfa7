open Bullfrog_sql
open Bullfrog_db

type mode = Tracked | On_conflict

(* n:n join tracking granularity, paper SS3.6: option 3 proper tracks the
   combination of tuples from the two inputs (pairs); the coarse variant
   treats a join-key equivalence class as the granule. *)
type nn_granularity = Nn_pair | Nn_join_key

type granule = G_tid of int | G_key of Value.t array

type rt_tracker =
  | RT_bitmap of Bitmap_tracker.t
  | RT_hash of Hash_tracker.t * int array
  | RT_none

type rt_input = {
  ri_alias : string;
  ri_heap : Heap.t;
  ri_plan : Classify.input_plan;
  ri_tracker : rt_tracker;
  ri_tracker_uid : int;
  ri_probe : Probe_map.t;
  mutable ri_bg_cursor : int;
  mutable ri_bg_done : bool;
}

type pair_output = {
  po_heap : Heap.t;
  po_projs : Expr.cexpr array;  (* over a_row @ b_row *)
  po_where : Expr.cexpr option;
}

type pair_rt = {
  pr_uid : int;
  pr_tracker : Hash_tracker.t;  (* keyed by [| Int a_tid; Int b_tid |] *)
  pr_a : rt_input;
  pr_b : rt_input;
  pr_a_key : int array;  (* join columns on each side *)
  pr_b_key : int array;
  pr_outputs : pair_output list;
  mutable pr_bg_cursor : int;  (* background scan position on the a side *)
  mutable pr_bg_done : bool;
}

(* A statement's population queries, planned once per catalog epoch over
   a shadow catalog: each narrowed input table (the tracked ones, for a
   migration transaction) is an empty placeholder heap with no indexes,
   every other input its real heap.  A call rebinds the placeholders to
   heaps holding its rows ([Plan.rebind]) instead of building a catalog
   and planning again. *)
type population = {
  pp_epoch : int;
  pp_narrowed : string list;  (* sorted: the tables read from per-call rows *)
  pp_slots : (string * Heap.t) list;  (* narrowed table -> placeholder *)
  pp_plans : (Heap.t * Plan.t) list;  (* output heap, its population plan *)
}

type rt_stmt = {
  rs_name : string;
  rs_outputs : (Heap.t * Ast.select) list;
  rs_inputs : rt_input list;
  rs_pair : pair_rt option;  (* Some = pair-granularity n:n (SS3.6 option 3) *)
  rs_population : population list Atomic.t;
}

type cand_pred = { cp_where : Ast.expr option; cp_pred : Access.pred }

type granule_event =
  | Ev_migrated of int * granule  (** tracker uid, granule — committed *)
  | Ev_already of int * granule  (** candidate found already migrated *)

type t = {
  mig_id : int;
  spec : Migration.t;
  stmts : rt_stmt list;
  db : Database.t;
  mode : mode;
  overwrite : bool;
  page_size : int;
  mutable abort_inject : (unit -> bool) option;
  mutable listener : (granule_event -> unit) option;
  (* Live telemetry: committed granules attributed to the lazy path vs
     background batches, contention tallies, and a bounded list of
     (wallclock, migrated-so-far) samples feeding the ETA estimate.
     Maintained unconditionally — a few integer stores per batch — so
     progress reporting works without enabling Obs counters. *)
  mutable tele_lazy : int;
  mutable tele_bg : int;
  mutable tele_already : int;
  mutable tele_skip_waits : int;
  mutable tele_aborts : int;
  mutable tele_samples : (float * int) list;  (* newest first *)
  lint : Mig_lint.t option;  (* install-time analyzer verdict, if it ran *)
}

type report = {
  mutable r_txns : int;
  mutable r_granules_migrated : int;
  mutable r_rows_migrated : int;
  mutable r_input_rows : int;
  mutable r_granules_already : int;
  mutable r_skip_waits : int;
  mutable r_aborts : int;
}

let new_report () =
  {
    r_txns = 0;
    r_granules_migrated = 0;
    r_rows_migrated = 0;
    r_input_rows = 0;
    r_granules_already = 0;
    r_skip_waits = 0;
    r_aborts = 0;
  }

let merge_report ~into r =
  into.r_txns <- into.r_txns + r.r_txns;
  into.r_granules_migrated <- into.r_granules_migrated + r.r_granules_migrated;
  into.r_rows_migrated <- into.r_rows_migrated + r.r_rows_migrated;
  into.r_input_rows <- into.r_input_rows + r.r_input_rows;
  into.r_granules_already <- into.r_granules_already + r.r_granules_already;
  into.r_skip_waits <- into.r_skip_waits + r.r_skip_waits;
  into.r_aborts <- into.r_aborts + r.r_aborts

(* ------------------------------------------------------------------ *)
(* Output schema inference                                             *)
(* ------------------------------------------------------------------ *)

(* Static type of a projection expression over the input tables; used to
   create output tables before any data exists. *)
let rec type_of_expr lookup (e : Ast.expr) : Ast.sql_type =
  match e with
  | Ast.Null_lit -> Ast.T_text
  | Ast.Int_lit _ -> Ast.T_int
  | Ast.Float_lit _ -> Ast.T_float
  | Ast.Str_lit _ -> Ast.T_text
  | Ast.Bool_lit _ -> Ast.T_bool
  | Ast.Param _ -> Ast.T_text
  | Ast.Col (q, c) -> lookup q c
  | Ast.Binop ((Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Mod), a, b) -> (
      match (type_of_expr lookup a, type_of_expr lookup b) with
      | Ast.T_int, Ast.T_int -> Ast.T_int
      | Ast.T_timestamp, _ -> Ast.T_timestamp
      | Ast.T_date, _ -> Ast.T_date
      | _ -> Ast.T_float)
  | Ast.Binop (Ast.Concat, _, _) -> Ast.T_text
  | Ast.Binop (_, _, _) -> Ast.T_bool
  | Ast.Unop (Ast.Not, _) -> Ast.T_bool
  | Ast.Unop (Ast.Neg, a) -> type_of_expr lookup a
  | Ast.Fn (name, _) when String.length name > 8 && String.sub name 0 8 = "extract_" ->
      Ast.T_int
  | Ast.Fn (("lower" | "upper" | "substr" | "substring"), _) -> Ast.T_text
  | Ast.Fn (("length" | "mod"), _) -> Ast.T_int
  | Ast.Fn (("abs" | "round" | "floor" | "ceil" | "ceiling"), args) -> (
      match args with a :: _ -> type_of_expr lookup a | [] -> Ast.T_float)
  | Ast.Fn ("coalesce", args) -> (
      match args with a :: _ -> type_of_expr lookup a | [] -> Ast.T_text)
  | Ast.Fn (_, _) -> Ast.T_text
  | Ast.Agg (Ast.Count, _, _) -> Ast.T_int
  | Ast.Agg (Ast.Avg, _, _) -> Ast.T_float
  | Ast.Agg ((Ast.Sum | Ast.Min | Ast.Max), _, arg) -> (
      match arg with Some a -> type_of_expr lookup a | None -> Ast.T_int)
  | Ast.Case (branches, els) -> (
      match (branches, els) with
      | (_, v) :: _, _ -> type_of_expr lookup v
      | [], Some v -> type_of_expr lookup v
      | [], None -> Ast.T_text)
  | Ast.In_list _ | Ast.Between _ | Ast.Is_null _ | Ast.Exists _ -> Ast.T_bool
  | Ast.Scalar_subquery _ -> Ast.T_text

let infer_output_schema catalog (population : Ast.select) =
  let inputs = Migration.input_tables_of_select catalog population in
  let schemas =
    List.map
      (fun (alias, table) -> (alias, (Catalog.find_table_exn catalog table).Heap.schema))
      inputs
  in
  let lookup q c =
    let candidates =
      match q with
      | Some q ->
          let q = String.lowercase_ascii q in
          List.filter (fun (a, _) -> a = q) schemas
      | None -> schemas
    in
    let rec first = function
      | [] -> Ast.T_text
      | (_, schema) :: rest -> (
          match Schema.col_index schema c with
          | Some i -> schema.Schema.columns.(i).Schema.ty
          | None -> first rest)
    in
    first candidates
  in
  let pctx = { Planner.catalog; run_subquery = (fun _ -> []) } in
  let expanded = Planner.expand_select pctx population in
  let names = Planner.output_names expanded in
  let types =
    List.map
      (fun p ->
        match p with
        | Ast.Proj_expr (e, _) -> type_of_expr lookup e
        | Ast.Proj_star | Ast.Proj_table_star _ -> assert false)
      expanded.Ast.projections
  in
  Array.of_list
    (List.map2
       (fun name ty -> { Schema.name; ty; not_null = false; default = None })
       names types)

(* ------------------------------------------------------------------ *)
(* Installation (the logical switch)                                   *)
(* ------------------------------------------------------------------ *)

let install ?(mode = Tracked) ?(overwrite = false) ?(page_size = 1) ?(nn = Nn_pair)
    ?(fk_join = `Tuple) ?lint ?(resume = false) ~mig_id db (spec : Migration.t) =
  (* Installation is the logical switch (§3.2) — rare and cold, so the
     span is unconditional. *)
  Obs.Trace.with_span ~cat:"migration" "install"
    ~args:[ ("migration", spec.Migration.name) ]
  @@ fun () ->
  let catalog = db.Database.catalog in
  (* Reject output-name collisions before touching the catalog: a spec
     whose second output collides with an existing table must not leave
     the first output's DDL behind.  (On resume the outputs are supposed
     to exist — they survived the restart.) *)
  if not resume then
    List.iter
      (fun (stmt : Migration.statement) ->
        List.iter
          (fun (o : Migration.output) ->
            if Catalog.exists catalog o.Migration.out_name then
              Db_error.sql_error
                "migration %S: output table %S already exists in the catalog"
                spec.Migration.name o.Migration.out_name)
          stmt.Migration.outputs)
      spec.Migration.statements;
  (* [drop_old] is what finalize drops: a name that is not one of the
     spec's inputs (a typo for an unrelated table, or one of its own
     outputs) would lose that table's data, so reject it up front. *)
  if not resume then begin
    let reads (o : Migration.output) =
      List.map snd (Migration.input_tables_of_select catalog o.Migration.out_population)
    in
    let inputs =
      List.concat_map (fun st -> List.concat_map reads st.Migration.outputs)
        spec.Migration.statements
    in
    List.iter
      (fun d ->
        if not (List.mem d inputs) then
          Db_error.sql_error "migration %S: drop_old table %S is not one of its inputs"
            spec.Migration.name d)
      spec.Migration.drop_old
  end;
  let ctx = Database.exec_ctx db in
  let uid_counter = ref 0 in
  let fresh_uid () =
    incr uid_counter;
    !uid_counter
  in
  let stmts =
    List.map
      (fun (stmt : Migration.statement) ->
        (* Create the empty output tables with constraints and indexes. *)
        let outputs =
          List.map
            (fun (o : Migration.output) ->
              if not resume then begin
                (match o.Migration.out_create with
                | Some ddl ->
                    Database.with_txn db (fun txn ->
                        ignore (Executor.exec_stmt ctx txn ddl : Executor.result))
                | None ->
                    let columns = infer_output_schema catalog o.Migration.out_population in
                    let heap =
                      Catalog.create_table catalog o.Migration.out_name
                        (Schema.make columns)
                    in
                    (* This path bypasses the executor, so log the DDL here:
                       the output table must exist when the redo log is
                       replayed into a fresh catalog. *)
                    Redo_log.append_ddl db.Database.redo
                      ~epoch:(Catalog.epoch catalog)
                      (Schema.to_create_sql heap.Heap.name heap.Heap.schema));
                List.iter
                  (fun ddl ->
                    Database.with_txn db (fun txn ->
                        ignore (Executor.exec_stmt ctx txn ddl : Executor.result)))
                  o.Migration.out_indexes
              end;
              (* on resume the outputs (and their data) survived the
                 restart via redo replay — just look them up *)
              let heap = Catalog.find_table_exn catalog o.Migration.out_name in
              (heap, o.Migration.out_population))
            stmt.Migration.outputs
        in
        let plans = Classify.classify_statement ~fk_join catalog stmt in
        let nn_inputs =
          List.filter (fun p -> p.Classify.ip_category = Classify.Many_to_many) plans
        in
        let pair_mode = nn = Nn_pair && List.length nn_inputs >= 2 in
        (* In the coarse n:n variant, the two sides share one hash tracker:
           a granule is the join-key class spanning both. *)
        let shared_hash =
          if (not pair_mode) && List.length nn_inputs >= 2 then
            Some (Hash_tracker.create (), fresh_uid ())
          else None
        in
        let inputs =
          List.map
            (fun (plan : Classify.input_plan) ->
              let heap = Catalog.find_table_exn catalog plan.Classify.ip_table in
              let tracker, uid =
                match plan.Classify.ip_tracking with
                | Classify.T_none -> (RT_none, 0)
                | Classify.T_hash _
                  when pair_mode && plan.Classify.ip_category = Classify.Many_to_many ->
                    (* pair-tracked sides carry no per-input tracker *)
                    (RT_none, 0)
                | Classify.T_bitmap ->
                    ( RT_bitmap
                        (Bitmap_tracker.create ~page_size
                           ~size:(Heap.tid_count heap) ()),
                      fresh_uid () )
                | Classify.T_hash cols ->
                    let idxs =
                      Array.of_list
                        (List.map (Schema.col_index_exn heap.Heap.schema) cols)
                    in
                    let ht, uid =
                      match
                        (plan.Classify.ip_category, shared_hash)
                      with
                      | Classify.Many_to_many, Some (shared, uid) -> (shared, uid)
                      | _ -> (Hash_tracker.create (), fresh_uid ())
                    in
                    (RT_hash (ht, idxs), uid)
              in
              {
                ri_alias = plan.Classify.ip_alias;
                ri_heap = heap;
                ri_plan = plan;
                ri_tracker = tracker;
                ri_tracker_uid = uid;
                ri_probe = Probe_map.create ();
                ri_bg_cursor = 0;
                ri_bg_done = false;
              })
            plans
        in
        let rs_pair =
          if not pair_mode then None
          else begin
            (* SS3.6 option 3: granule = combination of the two inputs'
               tuples.  Compile the populations once against the pair
               layout (a_row @ b_row) so migrating a pair is a projection,
               not a planned join. *)
            let side plan =
              let heap = Catalog.find_table_exn catalog plan.Classify.ip_table in
              let cols =
                match plan.Classify.ip_tracking with
                | Classify.T_hash cs ->
                    Array.of_list (List.map (Schema.col_index_exn heap.Heap.schema) cs)
                | Classify.T_bitmap | Classify.T_none ->
                    Db_error.sql_error "pair tracking requires hash-classified inputs"
              in
              let input =
                {
                  ri_alias = plan.Classify.ip_alias;
                  ri_heap = heap;
                  ri_plan = plan;
                  ri_tracker = RT_none;
                  ri_tracker_uid = 0;
                  ri_probe = Probe_map.create ();
                  ri_bg_cursor = 0;
                  ri_bg_done = false;
                }
              in
              (input, cols)
            in
            match nn_inputs with
            | [ pa; pb ] ->
                let (a, a_key) = side pa and (b, b_key) = side pb in
                let descs =
                  Array.append
                    (Array.map
                       (fun n -> { Plan.cd_qualifier = Some a.ri_alias; cd_name = n })
                       (Schema.col_names a.ri_heap.Heap.schema))
                    (Array.map
                       (fun n -> { Plan.cd_qualifier = Some b.ri_alias; cd_name = n })
                       (Schema.col_names b.ri_heap.Heap.schema))
                in
                let pctx = { Planner.catalog; run_subquery = (fun _ -> []) } in
                let pair_outputs =
                  List.map
                    (fun (heap, population) ->
                      let expanded = Planner.expand_select pctx population in
                      let projs =
                        Array.of_list
                          (List.map
                             (fun proj ->
                               match proj with
                               | Ast.Proj_expr (e, _) ->
                                   Expr.prepare
                                     (Planner.compile_with_descs pctx descs e)
                               | Ast.Proj_star | Ast.Proj_table_star _ -> assert false)
                             expanded.Ast.projections)
                      in
                      let po_where =
                        Option.map
                          (fun e ->
                            Expr.prepare
                              (Planner.compile_with_descs pctx descs e))
                          expanded.Ast.where
                      in
                      { po_heap = heap; po_projs = projs; po_where })
                    outputs
                in
                Some
                  {
                    pr_uid = fresh_uid ();
                    pr_tracker = Hash_tracker.create ();
                    pr_a = a;
                    pr_b = b;
                    pr_a_key = a_key;
                    pr_b_key = b_key;
                    pr_outputs = pair_outputs;
                    pr_bg_cursor = 0;
                    pr_bg_done = false;
                  }
            | _ -> None
          end
        in
        {
          rs_name = stmt.Migration.stmt_name;
          rs_outputs = outputs;
          rs_inputs = inputs;
          rs_pair;
          rs_population = Atomic.make [];
        })
      spec.Migration.statements
  in
  {
    mig_id;
    spec;
    stmts;
    db;
    mode;
    overwrite;
    page_size;
    abort_inject = None;
    listener = None;
    tele_lazy = 0;
    tele_bg = 0;
    tele_already = 0;
    tele_skip_waits = 0;
    tele_aborts = 0;
    tele_samples = [];
    lint;
  }

(* ------------------------------------------------------------------ *)
(* Granule <-> rows                                                    *)
(* ------------------------------------------------------------------ *)

let granule_of_row (input : rt_input) tid row =
  match input.ri_tracker with
  | RT_bitmap bt -> G_tid (Bitmap_tracker.granule_of_tid bt tid)
  | RT_hash (_, key_cols) -> G_key (Array.map (fun i -> row.(i)) key_cols)
  | RT_none -> invalid_arg "granule_of_row: untracked input"

(* Fetch all rows of a key group, preferring a covering index. *)
let rows_by_key heap key_cols key_vals =
  match Heap.index_covering heap key_cols with
  | Some idx ->
      let icols = Index.key_cols idx in
      let key =
        Array.map
          (fun ic ->
            let rec pos j =
              if j >= Array.length key_cols then
                invalid_arg "rows_by_key: index column mismatch"
              else if key_cols.(j) = ic then key_vals.(j)
              else pos (j + 1)
            in
            pos 0)
          icols
      in
      List.filter_map
        (fun tid ->
          match Heap.get heap tid with Some row -> Some (tid, row) | None -> None)
        (List.sort Stdlib.compare (Index.find idx key))
  | None ->
      let out = ref [] in
      Heap.iter_live heap (fun tid row ->
          let rec all j =
            j >= Array.length key_cols
            || (Value.equal row.(key_cols.(j)) key_vals.(j) && all (j + 1))
          in
          if all 0 then out := (tid, row) :: !out);
      List.rev !out

let rows_for_granule _t (input : rt_input) granule =
  match (granule, input.ri_tracker) with
  | G_tid g, RT_bitmap bt ->
      let ps = Bitmap_tracker.page_size bt in
      let lo = g * ps and hi = min (((g + 1) * ps) - 1) (Heap.tid_count input.ri_heap - 1) in
      let out = ref [] in
      for tid = hi downto lo do
        match Heap.get input.ri_heap tid with
        | Some row -> out := (tid, row) :: !out
        | None -> ()
      done;
      !out
  | G_key key, RT_hash (_, key_cols) -> rows_by_key input.ri_heap key_cols key
  | G_tid _, (RT_hash _ | RT_none) | G_key _, (RT_bitmap _ | RT_none) ->
      invalid_arg "rows_for_granule: granule kind does not match tracker"

let redo_granule = function
  | G_tid g -> Redo_log.G_tid g
  | G_key k -> Redo_log.G_group k

let granule_migrated (input : rt_input) granule =
  match (input.ri_tracker, granule) with
  | RT_bitmap bt, G_tid g -> Bitmap_tracker.is_migrated bt g
  | RT_hash (ht, _), G_key k -> Hash_tracker.is_migrated ht k
  | _ -> invalid_arg "granule_migrated: granule kind mismatch"

let granule_in_progress (input : rt_input) granule =
  match (input.ri_tracker, granule) with
  | RT_bitmap bt, G_tid g -> Bitmap_tracker.is_in_progress bt g
  | RT_hash (ht, _), G_key k -> Hash_tracker.state_of ht k = Some Hash_tracker.In_progress
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Tracker operations                                                  *)
(* ------------------------------------------------------------------ *)

(* Split [items] by tracker, groups in order of first appearance and
   items in input order within each group. *)
let by_tracker (items : (rt_input * 'a) list) : (rt_input * 'a list) list =
  let groups : (int, rt_input * 'a list ref) Hashtbl.t = Hashtbl.create 4 in
  let order = ref [] in
  List.iter
    (fun (input, x) ->
      match Hashtbl.find_opt groups input.ri_tracker_uid with
      | Some (_, l) -> l := x :: !l
      | None ->
          Hashtbl.replace groups input.ri_tracker_uid (input, ref [ x ]);
          order := input.ri_tracker_uid :: !order)
    items;
  List.rev_map
    (fun uid ->
      let input, l = Hashtbl.find groups uid in
      (input, List.rev !l))
    !order

let tids_of = List.map (function G_tid g -> g | G_key _ -> invalid_arg "granule kind mismatch")

let keys_of = List.map (function G_key k -> k | G_tid _ -> invalid_arg "granule kind mismatch")

(* Tracked mode: Algorithm 1's acquisition.  Each tracker group is
   acquired with one call (one latch per chunk/partition touched); the
   decisions come back in candidate order, so classification and listener
   events match granule-at-a-time acquisition.  ON CONFLICT mode keeps no
   lock state: acquisition is a migrated check that takes no latch. *)
let acquire_candidates t (cands : (rt_input * granule) list) :
    (rt_input * granule * Tracker.decision) list =
  match t.mode with
  | On_conflict ->
      List.map
        (fun (input, g) ->
          ( input,
            g,
            if granule_migrated input g then Tracker.Already_migrated else Tracker.Migrate ))
        cands
  | Tracked ->
      let decided = Hashtbl.create 4 in
      List.iter
        (fun (input, gs) ->
          let decisions =
            match input.ri_tracker with
            | RT_bitmap bt -> Bitmap_tracker.try_acquire bt (tids_of gs)
            | RT_hash (ht, _) -> Hash_tracker.try_acquire ht (keys_of gs)
            | RT_none -> invalid_arg "acquire_candidates: untracked input"
          in
          Hashtbl.replace decided input.ri_tracker_uid (ref decisions))
        (by_tracker cands);
      List.map
        (fun (input, g) ->
          let ds = Hashtbl.find decided input.ri_tracker_uid in
          match !ds with
          | d :: rest ->
              ds := rest;
              (input, g, d)
          | [] -> assert false)
        cands

(* Register the commit/abort flips of a migration transaction's WIP list.
   Tracked mode flips each tracker group with one call at transaction end
   (each chunk/partition latch taken once); ON CONFLICT mode has no lock
   state to reset, and its force-migrate is idempotent. *)
let register_tracker_flips t txn (wip : (rt_input * granule) list) =
  match t.mode with
  | On_conflict ->
      List.iter
        (fun (input, g) ->
          Txn.on_commit txn (fun () ->
              match (input.ri_tracker, g) with
              | RT_bitmap bt, G_tid g -> Bitmap_tracker.force_migrated bt g
              | RT_hash (ht, _), G_key k -> Hash_tracker.force_migrated ht k
              | _ -> invalid_arg "register_tracker_flips: granule kind mismatch"))
        wip
  | Tracked ->
      List.iter
        (fun (input, gs) ->
          match input.ri_tracker with
          | RT_bitmap bt ->
              let gs = tids_of gs in
              Txn.on_commit txn (fun () ->
                  Bitmap_tracker.mark_migrated bt gs;
                  (* after this group's flip, before any later group's: a
                     crash here leaves the commit torn — data and log
                     durable, tracker flips partial *)
                  Fault.point Fault.p_flip_batched);
              Txn.on_abort txn (fun () -> Bitmap_tracker.mark_aborted bt gs)
          | RT_hash (ht, _) ->
              let keys = keys_of gs in
              Txn.on_commit txn (fun () ->
                  Hash_tracker.mark_migrated ht keys;
                  Fault.point Fault.p_flip_batched);
              Txn.on_abort txn (fun () -> Hash_tracker.mark_aborted ht keys)
          | RT_none -> invalid_arg "register_tracker_flips: untracked input")
        (by_tracker wip)
let granule_equal a b =
  match (a, b) with
  | G_tid x, G_tid y -> x = y
  | G_key x, G_key y ->
      Array.length x = Array.length y
      &&
      let rec loop i = i >= Array.length x || (Value.equal x.(i) y.(i) && loop (i + 1)) in
      loop 0
  | G_tid _, G_key _ | G_key _, G_tid _ -> false

let granule_hash = function
  | G_tid g -> g * 0x9E3779B1 land max_int
  | G_key k -> Value.hash_key k land max_int

(* Hash sets of granules: candidate collection over large scans must not
   be quadratic. *)
module Gset = struct
  module H = Hashtbl.Make (struct
    type t = granule

    let equal = granule_equal

    let hash = granule_hash
  end)

  type t = unit H.t

  let create () = H.create 64

  let mem = H.mem

  let add s g = H.replace s g ()

  let iter f s = H.iter (fun g () -> f g) s
end

(* ------------------------------------------------------------------ *)
(* The migration transaction (Algorithm 1 body)                        *)
(* ------------------------------------------------------------------ *)

(* Rollback (backward) migrations run with [overwrite]: the output is an
   *old* table whose un-purged stale rows may collide with the backward
   insert on a unique key.  The reconstructed row is authoritative —
   delete every live conflicting row, then insert plainly. *)
let delete_unique_conflicts ctx txn (heap : Heap.t) row =
  List.iter
    (fun idx ->
      if Index.is_unique idx then
        match Index.key_of_row idx row with
        | None -> ()
        | Some key ->
            List.iter
              (fun tid ->
                match Heap.get heap tid with
                | Some _ -> Executor.delete_row ctx txn heap tid
                | None -> ())
              (Index.find idx key))
    heap.Heap.indexes

let c_population_plans = Obs.Counters.make "core.migrate.population_plans"

(* Builds are rare (once per statement per catalog epoch); one latch keeps
   racing first transactions from planning twice. *)
let population_latch = Mutex.create ()

let plan_population ~epoch ~narrowed stmt =
  let shadow = Catalog.create () in
  let slots =
    List.fold_left
      (fun slots input ->
        let name = input.ri_heap.Heap.name in
        if (not (List.mem name narrowed)) || List.mem_assoc name slots then slots
        else begin
          let ph = Heap.create ~tbl_id:(-1) ~name input.ri_heap.Heap.schema in
          Catalog.add_table shadow ph;
          slots @ [ (name, ph) ]
        end)
      [] stmt.rs_inputs
  in
  (* The other inputs are read in full (the PKIT side of a migration
     transaction, §3.6). *)
  List.iter
    (fun input ->
      if Catalog.find_table shadow input.ri_heap.Heap.name = None then
        Catalog.add_table shadow input.ri_heap)
    stmt.rs_inputs;
  let pctx = { Planner.catalog = shadow; run_subquery = (fun _ -> []) } in
  let plans =
    List.map
      (fun (out_heap, population) ->
        (out_heap, (Planner.plan_select pctx population).Planner.plan))
      stmt.rs_outputs
  in
  Obs.Counters.add c_population_plans (List.length plans);
  { pp_epoch = epoch; pp_narrowed = narrowed; pp_slots = slots; pp_plans = plans }

let population t stmt ~narrowed =
  let epoch = Catalog.epoch t.db.Database.catalog in
  let current pops =
    List.find_opt (fun p -> p.pp_epoch = epoch && p.pp_narrowed = narrowed) pops
  in
  match current (Atomic.get stmt.rs_population) with
  | Some pop -> pop
  | None ->
      Mutex.protect population_latch (fun () ->
          let pops = Atomic.get stmt.rs_population in
          match current pops with
          | Some pop -> pop
          | None ->
              let pop = plan_population ~epoch ~narrowed stmt in
              Atomic.set stmt.rs_population
                (pop :: List.filter (fun p -> p.pp_narrowed <> narrowed) pops);
              pop)

let run_population t txn stmt (rows : (string * (int * Heap.row) list) list) f =
  let pop = population t stmt ~narrowed:(List.sort_uniq String.compare (List.map fst rows)) in
  let subst =
    List.map
      (fun (name, ph) ->
        let temp = Heap.create ~tbl_id:(-1) ~name ph.Heap.schema in
        List.iter (fun (_, row) -> ignore (Heap.insert temp row : int)) (List.assoc name rows);
        (ph, temp))
      pop.pp_slots
  in
  let bind h = match List.assq_opt h subst with Some h' -> h' | None -> h in
  List.iter
    (fun (out_heap, plan) -> f out_heap (Executor.run txn (Plan.rebind bind plan)))
    pop.pp_plans

(* Physically migrate the WIP granules inside one transaction: bind each
   tracked input to a temporary table holding exactly the granules' rows,
   run every output's population plan over it, and insert the results
   into the output tables. *)
let run_migration_txn t (report : report) stmt (wip : (rt_input * granule) list) =
  if wip = [] then ()
  else begin
    report.r_txns <- report.r_txns + 1;
    let txn_body () =
      Database.with_txn t.db (fun txn ->
        let rows =
          List.fold_left
            (fun acc input ->
              match input.ri_tracker with
              | RT_none -> acc
              | RT_bitmap _ | RT_hash _ ->
                  let mine_set = Gset.create () in
                  let mine =
                    List.filter_map
                      (fun (i, g) ->
                        if i.ri_tracker_uid = input.ri_tracker_uid && not (Gset.mem mine_set g)
                        then begin
                          Gset.add mine_set g;
                          Some g
                        end
                        else None)
                      wip
                  in
                  let rows =
                    List.concat_map (fun g -> rows_for_granule t input g) mine
                  in
                  (* Deduplicate rows by tid (overlapping granules). *)
                  let seen = Hashtbl.create 64 in
                  let rows =
                    List.filter
                      (fun (tid, _) ->
                        if Hashtbl.mem seen tid then false
                        else begin
                          Hashtbl.add seen tid ();
                          true
                        end)
                      rows
                  in
                  report.r_input_rows <- report.r_input_rows + List.length rows;
                  (* Same table tracked twice in one statement: merge rows. *)
                  let name = input.ri_heap.Heap.name in
                  let prev = Option.value ~default:[] (List.assoc_opt name acc) in
                  (name, prev @ rows) :: List.remove_assoc name acc)
            [] stmt.rs_inputs
        in
        let ctx = Database.exec_ctx t.db in
        run_population t txn stmt rows (fun out_heap rows ->
            List.iter
              (fun row ->
                if t.overwrite then delete_unique_conflicts ctx txn out_heap row;
                match
                  Executor.insert_row ctx txn out_heap
                    ~on_conflict_do_nothing:(t.mode = On_conflict) row
                with
                | Some _ ->
                    report.r_rows_migrated <- report.r_rows_migrated + 1;
                    txn.Txn.counters.Txn.rows_migrated <-
                      txn.Txn.counters.Txn.rows_migrated + 1
                | None -> ())
              rows);
        (* Status flips happen strictly at transaction end (§3.2/§3.5).
           Redo marks stay per-granule; the tracker flips go one call per
           tracker, so commit takes each chunk/partition latch once. *)
        List.iter
          (fun (input, g) ->
            Database.add_migration_mark t.db txn
              {
                Redo_log.mig_id = t.mig_id;
                mig_table = input.ri_heap.Heap.name;
                granule = redo_granule g;
              })
          wip;
        (* marks recorded but the txn not yet committed: a crash here
           loses data, log entry and tracker state together *)
        Fault.point Fault.p_mark_commit;
        register_tracker_flips t txn wip;
        match t.abort_inject with
        | Some f when f () -> Db_error.txn_abort "injected migration abort"
        | Some _ | None -> ())
    in
    (* Migration transactions are not per-request-hot, but a high-QPS
       workload can run many: skip the closure hand-off when disabled. *)
    if not (Obs.Trace.enabled ()) then txn_body ()
    else
      Obs.Trace.with_span ~cat:"migration" "mig-txn"
        ~args:[ ("granules", string_of_int (List.length wip)) ]
        txn_body
  end

(* ------------------------------------------------------------------ *)
(* Algorithm 1: the per-request loop                                   *)
(* ------------------------------------------------------------------ *)

let max_skip_rounds = 100_000

let migrate_granules t report stmt (candidates : (rt_input * granule) list) =
  let rec attempt round candidates =
    if round > max_skip_rounds then
      failwith "Migrate_exec: SKIP loop did not converge (possible lost lock)";
    let wip = ref [] and skip = ref [] in
    let seen : (int, Gset.t) Hashtbl.t = Hashtbl.create 8 in
    let seen_before input g =
      let set =
        match Hashtbl.find_opt seen input.ri_tracker_uid with
        | Some set -> set
        | None ->
            let set = Gset.create () in
            Hashtbl.replace seen input.ri_tracker_uid set;
            set
      in
      if Gset.mem set g then true
      else begin
        Gset.add set g;
        false
      end
    in
    let fresh = ref [] in
    List.iter
      (fun ((input, g) as c) ->
        if not (seen_before input g) then fresh := c :: !fresh)
      candidates;
    List.iter
      (fun (input, g, decision) ->
        match decision with
        | Tracker.Migrate -> wip := (input, g) :: !wip
        | Tracker.Skip -> skip := (input, g) :: !skip
        | Tracker.Already_migrated ->
            report.r_granules_already <- report.r_granules_already + 1;
            (match t.listener with
            | Some f -> f (Ev_already (input.ri_tracker_uid, g))
            | None -> ()))
      (acquire_candidates t (List.rev !fresh));
    let wip = List.rev !wip and skip = List.rev !skip in
    (match run_migration_txn t report stmt wip with
    | () ->
        report.r_granules_migrated <- report.r_granules_migrated + List.length wip;
        (match t.listener with
        | Some f ->
            List.iter (fun (input, g) -> f (Ev_migrated (input.ri_tracker_uid, g))) wip
        | None -> ())
    | exception Db_error.Txn_abort _ ->
        (* Data rolled back, trackers reset by the abort hooks; retry the
           whole set (§3.5: another worker — here, this one — takes over). *)
        report.r_aborts <- report.r_aborts + 1;
        attempt (round + 1) candidates);
    if skip <> [] then begin
      (* Re-check skipped granules: wait for the competing worker to commit
         or abort (Fig. 2).  In the single-threaded harness this only runs
         in tests that exercise real threads. *)
      report.r_skip_waits <- report.r_skip_waits + List.length skip;
      let rec wait round_w pending =
        if round_w > max_skip_rounds then
          failwith "Migrate_exec: skipped granule never resolved";
        let unresolved =
          List.filter (fun (i, g) -> not (granule_migrated i g)) pending
        in
        if unresolved = [] then ()
        else begin
          let retryable =
            List.filter (fun (i, g) -> not (granule_in_progress i g)) unresolved
          in
          if retryable <> [] then attempt (round + 1) retryable
          else begin
            Thread.yield ();
            wait (round_w + 1) unresolved
          end
        end
      in
      wait 0 skip
    end
  in
  attempt 0 candidates

(* ------------------------------------------------------------------ *)
(* Pair-granularity n:n migration (SS3.6 option 3)                      *)
(* ------------------------------------------------------------------ *)

let pair_key ta tb = [| Value.Int ta; Value.Int tb |]

(* Migrate a set of acquired pairs in one transaction: fetch both tuples,
   evaluate each output's compiled projection over the concatenated row,
   insert. *)
let run_pair_txn t (report : report) pr (wip : Value.t array list) =
  if wip = [] then ()
  else begin
    let outputs =
      List.map (fun po -> (po, (Expr.bind_filter po.po_where [||]).Expr.holds)) pr.pr_outputs
    in
    report.r_txns <- report.r_txns + 1;
    Database.with_txn t.db (fun txn ->
        let ctx = Database.exec_ctx t.db in
        List.iter
          (fun key ->
            let ta = match key.(0) with Value.Int i -> i | _ -> assert false in
            let tb = match key.(1) with Value.Int i -> i | _ -> assert false in
            (match (Heap.get pr.pr_a.ri_heap ta, Heap.get pr.pr_b.ri_heap tb) with
            | Some ra, Some rb ->
                report.r_input_rows <- report.r_input_rows + 2;
                let row = Array.append ra rb in
                List.iter
                  (fun (po, keep) ->
                    if keep row then begin
                      let out =
                        Array.map (fun e -> e.Expr.ce_eval [||] row) po.po_projs
                      in
                      if t.overwrite then
                        delete_unique_conflicts ctx txn po.po_heap out;
                      match
                        Executor.insert_row ctx txn po.po_heap
                          ~on_conflict_do_nothing:(t.mode = On_conflict) out
                      with
                      | Some _ ->
                          report.r_rows_migrated <- report.r_rows_migrated + 1;
                          txn.Txn.counters.Txn.rows_migrated <-
                            txn.Txn.counters.Txn.rows_migrated + 1
                      | None -> ()
                    end)
                  outputs
            | _ -> () (* a side was deleted; the pair no longer exists *));
            Database.add_migration_mark t.db txn
              {
                Redo_log.mig_id = t.mig_id;
                mig_table = pr.pr_a.ri_heap.Heap.name;
                granule = Redo_log.G_group key;
              })
          wip;
        Fault.point Fault.p_pair_commit;
        (* One flip per commit: the pair tracker's partition latches are
           taken once per transaction, not once per pair.  ON CONFLICT mode
           has no lock state to reset. *)
        (match t.mode with
        | Tracked ->
            Txn.on_commit txn (fun () ->
                Hash_tracker.mark_migrated pr.pr_tracker wip;
                Fault.point Fault.p_pair_flip);
            Txn.on_abort txn (fun () -> Hash_tracker.mark_aborted pr.pr_tracker wip)
        | On_conflict ->
            List.iter
              (fun key ->
                Txn.on_commit txn (fun () -> Hash_tracker.force_migrated pr.pr_tracker key))
              wip);
        match t.abort_inject with
        | Some f when f () -> Db_error.txn_abort "injected migration abort"
        | Some _ | None -> ())
  end

(* Algorithm 1 over the pair tracker. *)
let migrate_pairs t report pr (candidates : Value.t array list) =
  let rec attempt round candidates =
    if round > max_skip_rounds then
      failwith "Migrate_exec: pair SKIP loop did not converge";
    let wip = ref [] and skip = ref [] in
    let decisions =
      match t.mode with
      | Tracked ->
          (* one partition-latch acquisition per call; a duplicate
             resolves first-wins, the rest skip *)
          Hash_tracker.try_acquire pr.pr_tracker candidates
      | On_conflict ->
          List.map
            (fun key ->
              if Hash_tracker.is_migrated pr.pr_tracker key then Tracker.Already_migrated
              else Tracker.Migrate)
            candidates
    in
    List.iter2
      (fun key decision ->
        match decision with
        | Tracker.Migrate -> wip := key :: !wip
        | Tracker.Skip -> skip := key :: !skip
        | Tracker.Already_migrated ->
            report.r_granules_already <- report.r_granules_already + 1;
            (match t.listener with
            | Some f -> f (Ev_already (pr.pr_uid, G_key key))
            | None -> ()))
      candidates decisions;
    let wip = List.rev !wip and skip = List.rev !skip in
    (match run_pair_txn t report pr wip with
    | () ->
        report.r_granules_migrated <- report.r_granules_migrated + List.length wip;
        (match t.listener with
        | Some f -> List.iter (fun key -> f (Ev_migrated (pr.pr_uid, G_key key))) wip
        | None -> ())
    | exception Db_error.Txn_abort _ ->
        report.r_aborts <- report.r_aborts + 1;
        attempt (round + 1) candidates);
    if skip <> [] then begin
      report.r_skip_waits <- report.r_skip_waits + List.length skip;
      let rec wait round_w pending =
        if round_w > max_skip_rounds then
          failwith "Migrate_exec: skipped pair never resolved";
        let unresolved =
          List.filter (fun k -> not (Hash_tracker.is_migrated pr.pr_tracker k)) pending
        in
        if unresolved = [] then ()
        else begin
          let retryable =
            List.filter
              (fun k ->
                Hash_tracker.state_of pr.pr_tracker k <> Some Hash_tracker.In_progress)
              unresolved
          in
          if retryable <> [] then attempt (round + 1) retryable
          else begin
            Thread.yield ();
            wait (round_w + 1) unresolved
          end
        end
      in
      wait 0 skip
    end
  in
  if candidates <> [] then attempt 0 candidates

let pair_join_key cols row = Array.map (fun i -> row.(i)) cols

let cand_pred heap where = { cp_where = where; cp_pred = Access.compile_pred heap where }

(* Candidate pairs for a request: rows matching each side's extracted
   predicate, joined on the join key; an unconstrained side contributes
   every row of the constrained side's key classes. *)
let pair_candidates ?params t report pr (preds : (string * cand_pred) list) =
  let pa = List.assoc_opt pr.pr_a.ri_heap.Heap.name preds in
  let pb = List.assoc_opt pr.pr_b.ri_heap.Heap.name preds in
  if pa = None && pb = None then []
  else begin
    let scan input (cp : cand_pred) =
      let txn = Database.begin_txn t.db in
      let rows = Access.select_tids ?params ~latest:true txn input.ri_heap cp.cp_pred in
      Database.commit t.db txn;
      report.r_input_rows <- report.r_input_rows + List.length rows;
      rows
    in
    let cons p = match p with Some ({ cp_where = Some _; _ } as cp) -> Some cp | _ -> None in
    let by_key_cache : (Value.t array, (int * Heap.row) list) Hashtbl.t =
      Hashtbl.create 64
    in
    let other_rows input key_cols key =
      match Hashtbl.find_opt by_key_cache key with
      | Some rows -> rows
      | None ->
          let rows = rows_by_key input.ri_heap key_cols key in
          report.r_input_rows <- report.r_input_rows + List.length rows;
          Hashtbl.replace by_key_cache key rows;
          rows
    in
    match (cons pa, cons pb) with
    | Some p, Some q ->
        let rows_a = scan pr.pr_a p and rows_b = scan pr.pr_b q in
        let b_by_key : (Value.t array, int list) Hashtbl.t = Hashtbl.create 64 in
        List.iter
          (fun (tb, rb) ->
            let k = pair_join_key pr.pr_b_key rb in
            let cur = try Hashtbl.find b_by_key k with Not_found -> [] in
            Hashtbl.replace b_by_key k (tb :: cur))
          rows_b;
        List.concat_map
          (fun (ta, ra) ->
            let k = pair_join_key pr.pr_a_key ra in
            match Hashtbl.find_opt b_by_key k with
            | None -> []
            | Some tbs -> List.map (fun tb -> pair_key ta tb) tbs)
          rows_a
    | Some p, None ->
        let rows_a = scan pr.pr_a p in
        List.concat_map
          (fun (ta, ra) ->
            let k = pair_join_key pr.pr_a_key ra in
            List.map (fun (tb, _) -> pair_key ta tb) (other_rows pr.pr_b pr.pr_b_key k))
          rows_a
    | None, Some q ->
        let rows_b = scan pr.pr_b q in
        List.concat_map
          (fun (tb, rb) ->
            let k = pair_join_key pr.pr_b_key rb in
            List.map (fun (ta, _) -> pair_key ta tb) (other_rows pr.pr_a pr.pr_a_key k))
          rows_b
    | None, None ->
        (* whole join potentially relevant (SS2.4 worst case) *)
        let rows_a = scan pr.pr_a (cand_pred pr.pr_a.ri_heap None) in
        List.concat_map
          (fun (ta, ra) ->
            let k = pair_join_key pr.pr_a_key ra in
            List.map (fun (tb, _) -> pair_key ta tb) (other_rows pr.pr_b pr.pr_b_key k))
          rows_a
  end

let c_granules_lazy = Obs.Counters.make "core.migrate.granules_lazy"

let c_granules_bg = Obs.Counters.make "core.migrate.granules_bg"

(* Rate samples: (wallclock, granules committed so far by this runtime),
   newest first, enough history to smooth over bursty batches without
   remembering the whole run. *)
let tele_sample_cap = 32

let rec take n = function
  | [] -> []
  | x :: tl -> if n <= 0 then [] else x :: take (n - 1) tl

let note_sample t =
  let migrated = t.tele_lazy + t.tele_bg in
  t.tele_samples <-
    (Unix.gettimeofday (), migrated) :: take (tele_sample_cap - 1) t.tele_samples

(* Algorithm 1's candidate scan over one input.  A bitmap-tracked
   sequential scan visits only the TID ranges whose granules are not yet
   migrated (free or in progress): a migrated granule could only answer
   [Already_migrated], so skipping it changes no decision, and a complete
   bitmap costs one word walk.  Index paths and hash-tracked inputs
   fetch every match. *)
let candidate_rows ?probe ?params db heap tracker (cp : cand_pred) =
  let txn = Database.begin_txn db in
  let compiled = cp.cp_pred in
  let rows =
    match tracker with
    | RT_hash _ | RT_none -> Access.select_tids ?params ~latest:true txn heap compiled
    | RT_bitmap bt -> (
        let probed =
          match (probe, compiled.Access.path) with
          | Some map, Access.P_full ->
              Probe_map.candidates ?params map txn heap bt
                ~epoch:(Catalog.epoch db.Database.catalog)
                cp.cp_where compiled
          | _ -> None
        in
        match probed with
        | Some rows -> rows
        | None ->
            Access.select_tids ?params ~latest:true
              ~ranges:(Bitmap_tracker.pending_tids bt) txn heap compiled)
  in
  Database.commit db txn;
  rows

(* An input no statement may write while the migration runs: tracked by
   TID (a bitmap granule is a TID range fixed at the switch) and not also
   an output.  [Lazy_db]'s interception entry rejects writes to these, and
   the probe map relies on exactly that. *)
let read_only_table t name =
  let name = String.lowercase_ascii name in
  let tid_tracked input =
    input.ri_heap.Heap.name = name
    && match input.ri_tracker with RT_bitmap _ -> true | RT_hash _ | RT_none -> false
  in
  List.exists (fun stmt -> List.exists tid_tracked stmt.rs_inputs) t.stmts
  && not
       (List.exists
          (fun (stmt : Migration.statement) ->
            List.exists
              (fun (o : Migration.output) -> String.lowercase_ascii o.Migration.out_name = name)
              stmt.Migration.outputs)
          t.spec.Migration.statements)

let input_candidates ?params t input cp =
  let probe =
    if read_only_table t input.ri_heap.Heap.name then Some input.ri_probe else None
  in
  candidate_rows ?probe ?params t.db input.ri_heap input.ri_tracker cp

(* Each predicate compiled against the input heap of its table; tables
   no statement reads are dropped (no candidate scan would visit them). *)
let compile_preds t (preds : (string * Ast.expr option) list) =
  let input_heap name =
    List.find_map
      (fun stmt ->
        let inputs =
          match stmt.rs_pair with
          | Some pr -> pr.pr_a :: pr.pr_b :: stmt.rs_inputs
          | None -> stmt.rs_inputs
        in
        List.find_map
          (fun i -> if i.ri_heap.Heap.name = name then Some i.ri_heap else None)
          inputs)
      t.stmts
  in
  List.filter_map
    (fun (name, where) ->
      Option.map (fun heap -> (name, cand_pred heap where)) (input_heap name))
    preds

let migrate_for_preds_inner ?(stmt_filter = fun (_ : rt_stmt) -> true) ?params t report
    (preds : (string * cand_pred) list) =
  (* Candidate granules are gathered per statement and per tracker group:
     inputs sharing a tracker (the two sides of an n:n join) share one
     granule key space, and a key class is relevant only when {e every}
     predicate-constrained side has a matching row in it (inner-join
     semantics); a side the request does not constrain is the universe. *)
  let scan_keys (input, cp) =
    let rows = input_candidates ?params t input cp in
    report.r_input_rows <- report.r_input_rows + List.length rows;
    let set = Gset.create () in
    List.iter (fun (tid, row) -> Gset.add set (granule_of_row input tid row)) rows;
    set
  in
  List.iter
    (fun stmt ->
      if not (stmt_filter stmt) then ()
      else
      match stmt.rs_pair with
      | Some pr ->
          let cands = pair_candidates ?params t report pr preds in
          migrate_pairs t report pr cands
      | None ->
      let groups : (int, rt_input list) Hashtbl.t = Hashtbl.create 4 in
      List.iter
        (fun input ->
          if input.ri_tracker <> RT_none then begin
            let cur =
              match Hashtbl.find_opt groups input.ri_tracker_uid with
              | Some l -> l
              | None -> []
            in
            Hashtbl.replace groups input.ri_tracker_uid (cur @ [ input ])
          end)
        stmt.rs_inputs;
      let candidates = ref [] in
      Hashtbl.iter
        (fun _uid members ->
          let touched =
            List.filter_map
              (fun input ->
                match List.assoc_opt input.ri_heap.Heap.name preds with
                | None -> None
                | Some p -> Some (input, p))
              members
          in
          if touched <> [] then begin
            let constrained = List.filter (fun (_, cp) -> cp.cp_where <> None) touched in
            match constrained with
            | [] ->
                (* Every touched side is unconstrained: the whole key space
                   is potentially relevant (paper §2.4); one scan of the
                   smallest side enumerates it. *)
                let input =
                  List.fold_left
                    (fun best (i, _) ->
                      if Heap.live_count i.ri_heap < Heap.live_count best.ri_heap then i
                      else best)
                    (fst (List.hd touched))
                    (List.tl touched)
                in
                Gset.iter
                  (fun g -> candidates := (input, g) :: !candidates)
                  (scan_keys (input, cand_pred input.ri_heap None))
            | (input0, _) :: _ ->
                let sets = List.map scan_keys constrained in
                (match sets with
                | [] -> ()
                | set0 :: rest ->
                    Gset.iter
                      (fun g ->
                        if List.for_all (fun s -> Gset.mem s g) rest then
                          candidates := (input0, g) :: !candidates)
                      set0)
          end)
        groups;
      if !candidates <> [] then migrate_granules t report stmt (List.rev !candidates))
    t.stmts

(* Wrapper attributing this call's report deltas to the lazy path. *)
let migrate_for_preds ?stmt_filter ?params t report preds =
  let m0 = report.r_granules_migrated
  and a0 = report.r_granules_already
  and w0 = report.r_skip_waits
  and b0 = report.r_aborts in
  let run () = migrate_for_preds_inner ?stmt_filter ?params t report preds in
  (if not (Obs.Trace.enabled ()) then run ()
   else Obs.Trace.with_span ~cat:"migration" "lazy-migrate" run);
  let dm = report.r_granules_migrated - m0 in
  t.tele_already <- t.tele_already + (report.r_granules_already - a0);
  t.tele_skip_waits <- t.tele_skip_waits + (report.r_skip_waits - w0);
  t.tele_aborts <- t.tele_aborts + (report.r_aborts - b0);
  if dm > 0 then begin
    t.tele_lazy <- t.tele_lazy + dm;
    Obs.Counters.add c_granules_lazy dm;
    note_sample t
  end

(* ------------------------------------------------------------------ *)
(* Background migration (§2.2)                                         *)
(* ------------------------------------------------------------------ *)

let background_step_inner t report ~batch =
  let migrated = ref 0 in
  let budget () = batch - !migrated in
  List.iter
    (fun stmt ->
      (match stmt.rs_pair with
      | Some pr when (not pr.pr_bg_done) && budget () > 0 ->
          (* Scan the a side in TID order; every pair is reachable from it. *)
          let collected = ref [] in
          let n = ref 0 in
          let tid = ref pr.pr_bg_cursor in
          let total = Heap.tid_count pr.pr_a.ri_heap in
          while !n < budget () && !tid < total do
            (match Heap.get pr.pr_a.ri_heap !tid with
            | None -> ()
            | Some ra ->
                let k = pair_join_key pr.pr_a_key ra in
                List.iter
                  (fun (tb, _) ->
                    let key = pair_key !tid tb in
                    match Hash_tracker.state_of pr.pr_tracker key with
                    | None | Some Hash_tracker.Aborted ->
                        collected := key :: !collected;
                        incr n
                    | Some Hash_tracker.Migrated | Some Hash_tracker.In_progress -> ())
                  (rows_by_key pr.pr_b.ri_heap pr.pr_b_key k));
            incr tid
          done;
          pr.pr_bg_cursor <- !tid;
          if !tid >= total then pr.pr_bg_done <- true;
          if !collected <> [] then begin
            let before = report.r_granules_migrated in
            migrate_pairs t report pr (List.rev !collected);
            migrated := !migrated + (report.r_granules_migrated - before);
            (* between committed batches, outside any transaction *)
            Fault.point Fault.p_bg_batch
          end
      | Some _ | None -> ());
      List.iter
        (fun input ->
          if (not input.ri_bg_done) && budget () > 0 then
            match input.ri_tracker with
            | RT_none -> input.ri_bg_done <- true
            | RT_bitmap bt ->
                (* Collect whole runs from the word-level cursor: one scan
                   per run instead of one per granule. *)
                let collected = ref [] in
                let cursor = ref input.ri_bg_cursor in
                let n = ref 0 in
                let continue_ = ref true in
                while !continue_ && !n < budget () do
                  match
                    Bitmap_tracker.next_unmigrated_run bt ~from:!cursor
                      ~max_len:(budget () - !n)
                  with
                  | None ->
                      (* Wrap once to catch granules below the cursor. *)
                      if !cursor > 0 then cursor := 0 else continue_ := false
                  | Some (start, len) ->
                      let take = min len (budget () - !n) in
                      for g = start to start + take - 1 do
                        collected := (input, G_tid g) :: !collected
                      done;
                      n := !n + take;
                      cursor := start + take
                done;
                input.ri_bg_cursor <- !cursor;
                if !collected <> [] then begin
                  let before = report.r_granules_migrated in
                  migrate_granules t report stmt (List.rev !collected);
                  migrated := !migrated + (report.r_granules_migrated - before);
                  Fault.point Fault.p_bg_batch
                end;
                if Bitmap_tracker.complete bt then begin
                  input.ri_bg_done <- true;
                  Probe_map.clear input.ri_probe
                end
            | RT_hash (ht, key_cols) ->
                let collected = ref [] in
                let collected_set = Gset.create () in
                let n = ref 0 in
                let tid = ref input.ri_bg_cursor in
                let total = Heap.tid_count input.ri_heap in
                while !n < budget () && !tid < total do
                  (match Heap.get input.ri_heap !tid with
                  | None -> ()
                  | Some row ->
                      let key = Array.map (fun i -> row.(i)) key_cols in
                      let fresh =
                        match Hash_tracker.state_of ht key with
                        | None | Some Hash_tracker.Aborted -> true
                        | Some Hash_tracker.Migrated | Some Hash_tracker.In_progress ->
                            false
                      in
                      if fresh && not (Gset.mem collected_set (G_key key)) then begin
                        Gset.add collected_set (G_key key);
                        collected := (input, G_key key) :: !collected;
                        incr n
                      end);
                  incr tid
                done;
                input.ri_bg_cursor <- !tid;
                if !tid >= total then input.ri_bg_done <- true;
                if !collected <> [] then begin
                  let before = report.r_granules_migrated in
                  migrate_granules t report stmt (List.rev !collected);
                  migrated := !migrated + (report.r_granules_migrated - before);
                  Fault.point Fault.p_bg_batch
                end)
        stmt.rs_inputs)
    t.stmts;
  !migrated

let background_step t report ~batch =
  let a0 = report.r_granules_already
  and w0 = report.r_skip_waits
  and b0 = report.r_aborts in
  let run () = background_step_inner t report ~batch in
  let n =
    if not (Obs.Trace.enabled ()) then run ()
    else
      Obs.Trace.with_span ~cat:"migration" "bg-batch"
        ~args:[ ("batch", string_of_int batch) ]
        run
  in
  t.tele_already <- t.tele_already + (report.r_granules_already - a0);
  t.tele_skip_waits <- t.tele_skip_waits + (report.r_skip_waits - w0);
  t.tele_aborts <- t.tele_aborts + (report.r_aborts - b0);
  if n > 0 then begin
    t.tele_bg <- t.tele_bg + n;
    Obs.Counters.add c_granules_bg n;
    note_sample t
  end;
  n

(* ------------------------------------------------------------------ *)
(* Progress                                                            *)
(* ------------------------------------------------------------------ *)

let tracked_inputs t =
  List.concat_map
    (fun stmt -> List.filter (fun i -> i.ri_tracker <> RT_none) stmt.rs_inputs)
    t.stmts

let complete t =
  List.for_all
    (fun input ->
      match input.ri_tracker with
      | RT_bitmap bt -> Bitmap_tracker.complete bt
      | RT_hash _ -> input.ri_bg_done
      | RT_none -> true)
    (tracked_inputs t)
  && List.for_all
       (fun stmt -> match stmt.rs_pair with Some pr -> pr.pr_bg_done | None -> true)
       t.stmts

let verify_pairs_complete t =
  List.for_all
    (fun stmt ->
      match stmt.rs_pair with
      | None -> true
      | Some pr ->
          let ok = ref true in
          Heap.iter_live pr.pr_a.ri_heap (fun ta ra ->
              let k = pair_join_key pr.pr_a_key ra in
              List.iter
                (fun (tb, _) ->
                  if not (Hash_tracker.is_migrated pr.pr_tracker (pair_key ta tb)) then
                    ok := false)
                (rows_by_key pr.pr_b.ri_heap pr.pr_b_key k));
          !ok)
    t.stmts

let verify_complete t =
  verify_pairs_complete t
  && List.for_all
    (fun input ->
      match input.ri_tracker with
      | RT_bitmap bt ->
          let ok = ref true in
          Heap.iter_live input.ri_heap (fun tid _ ->
              if not (Bitmap_tracker.is_migrated bt (Bitmap_tracker.granule_of_tid bt tid))
              then ok := false);
          !ok
      | RT_hash (ht, key_cols) ->
          let ok = ref true in
          Heap.iter_live input.ri_heap (fun _ row ->
              let key = Array.map (fun i -> row.(i)) key_cols in
              if not (Hash_tracker.is_migrated ht key) then ok := false);
          !ok
      | RT_none -> true)
    (tracked_inputs t)

let progress t =
  let pair_fractions =
    List.filter_map
      (fun stmt ->
        match stmt.rs_pair with
        | None -> None
        | Some pr ->
            if pr.pr_bg_done then Some 1.0
            else begin
              let total = Heap.tid_count pr.pr_a.ri_heap in
              Some
                (if total = 0 then 1.0
                 else float_of_int pr.pr_bg_cursor /. float_of_int total)
            end)
      t.stmts
  in
  let inputs = tracked_inputs t in
  if inputs = [] && pair_fractions = [] then 1.0
  else if inputs = [] then
    List.fold_left ( +. ) 0.0 pair_fractions /. float_of_int (List.length pair_fractions)
  else begin
    let fractions =
      List.map
        (fun input ->
          match input.ri_tracker with
          | RT_bitmap bt ->
              let s = Bitmap_tracker.stats bt in
              if s.Tracker.total = 0 then 1.0
              else float_of_int s.Tracker.migrated /. float_of_int s.Tracker.total
          | RT_hash _ ->
              if input.ri_bg_done then 1.0
              else begin
                let total = Heap.tid_count input.ri_heap in
                if total = 0 then 1.0
                else float_of_int input.ri_bg_cursor /. float_of_int total
              end
          | RT_none -> 1.0)
        inputs
    in
    let all = fractions @ pair_fractions in
    List.fold_left ( +. ) 0.0 all /. float_of_int (List.length all)
  end

(* ------------------------------------------------------------------ *)
(* Live telemetry (\progress, harness timelines)                       *)
(* ------------------------------------------------------------------ *)

type progress_report = {
  pg_fraction : float;
  pg_granules_migrated : int;
  pg_granules_total : int;
  pg_lazy : int;
  pg_bg : int;
  pg_already : int;
  pg_skip_waits : int;
  pg_aborts : int;
  pg_rate : float;
  pg_eta : float option;
}

(* Tracker-level granule counts, deduplicated by tracker uid (the two
   sides of a shared-tracker join report the same structure). *)
let granule_counts t =
  let seen = Hashtbl.create 8 in
  let migrated = ref 0 and total = ref 0 in
  let add uid (s : Tracker.stats) =
    if not (Hashtbl.mem seen uid) then begin
      Hashtbl.replace seen uid ();
      migrated := !migrated + s.Tracker.migrated;
      total := !total + s.Tracker.total
    end
  in
  List.iter
    (fun stmt ->
      (match stmt.rs_pair with
      | Some pr -> add pr.pr_uid (Hash_tracker.stats pr.pr_tracker)
      | None -> ());
      List.iter
        (fun input ->
          match input.ri_tracker with
          | RT_bitmap bt -> add input.ri_tracker_uid (Bitmap_tracker.stats bt)
          | RT_hash (ht, _) -> add input.ri_tracker_uid (Hash_tracker.stats ht)
          | RT_none -> ())
        stmt.rs_inputs)
    t.stmts;
  (!migrated, !total)

(* Granules/second over the retained sample window (oldest to newest). *)
let recent_rate t =
  match t.tele_samples with
  | [] | [ _ ] -> 0.0
  | (t1, m1) :: rest ->
      let t0, m0 = List.nth rest (List.length rest - 1) in
      if t1 -. t0 <= 0.0 then 0.0 else float_of_int (m1 - m0) /. (t1 -. t0)

let progress_report t =
  let migrated, total = granule_counts t in
  let rate = recent_rate t in
  let eta =
    if complete t then Some 0.0
    else if rate > 0.0 && total > migrated then
      Some (float_of_int (total - migrated) /. rate)
    else None
  in
  {
    pg_fraction = progress t;
    pg_granules_migrated = migrated;
    pg_granules_total = total;
    pg_lazy = t.tele_lazy;
    pg_bg = t.tele_bg;
    pg_already = t.tele_already;
    pg_skip_waits = t.tele_skip_waits;
    pg_aborts = t.tele_aborts;
    pg_rate = rate;
    pg_eta = eta;
  }

let format_progress pg =
  let eta =
    match pg.pg_eta with
    | Some s when s <= 0.0 -> "done"
    | Some s -> Printf.sprintf "%.1fs" s
    | None -> "n/a"
  in
  Printf.sprintf
    "migrated %.1f%% (%d/%d granules) | lazy %d bg %d | already %d waits %d aborts %d | \
     rate %.0f granules/s | eta %s"
    (100.0 *. pg.pg_fraction)
    pg.pg_granules_migrated pg.pg_granules_total pg.pg_lazy pg.pg_bg pg.pg_already
    pg.pg_skip_waits pg.pg_aborts pg.pg_rate eta
