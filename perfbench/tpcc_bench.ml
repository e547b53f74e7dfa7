(* tpcc-split: a single-node Lazy_db driven by one thread through the
   standard TPC-C mix, flipped mid-run to the paper's customer split
   (customer -> public/private, 1:n, bitmap-tracked, input dropped).

   One load thread owns the engine: it runs the transactions, a
   vacuum every [vacuum_every] transactions and, once flipped, a
   background step every [bg_every] transactions.  Nothing else runs in
   the process, so no thread waits on the OCaml runtime lock. *)

open Bullfrog_db
open Bullfrog_core
open Bullfrog_tpcc

let scale = Tpcc_schema.small

let warmup_txns = 500

let steady_txns = 10_000

(* Upper bound on migrating-phase inputs; the phase ends when the
   migration completes, which the background cadence below reaches well
   inside it. *)
let mig_pool_txns = 12_000

let vacuum_every = 250

(* Background migration: a step of [bg_batch] granules every [bg_every]
   transactions. *)
let bg_every = 10

let bg_batch = 10

let scn = Tpcc_migrations.Split

type inputs = {
  warmup : Tpcc_txns.input array;
  steady : Tpcc_txns.input array;
  mig : Tpcc_txns.input array;
}

(* The mix is dealt from a shuffled deck of 100 cards (TPC-C §5.2.4.2):
   every 100 transactions hold exactly 45/43/4/4/4, so no seed shifts
   the mix's median across the gap between the fast kinds (Payment,
   OrderStatus: 47%) and the slow ones.  Each card is filled by
   [Tpcc_txns.generate], redrawn until it yields the card's kind. *)
let deck =
  Array.concat
    (List.map
       (fun (k, n) -> Array.make n k)
       [ ("NewOrder", 45); ("Payment", 43); ("Delivery", 4); ("OrderStatus", 4); ("StockLevel", 4) ])

let gen_inputs seed =
  let rng = Rng.create seed in
  let cfg = { Tpcc_txns.scale; hot_customers = None } in
  let cards = Array.copy deck in
  let rec draw kind =
    let input = Tpcc_txns.generate rng cfg in
    if Tpcc_txns.input_kind input = kind then input else draw kind
  in
  let g n =
    Array.init n (fun i ->
        if i mod Array.length cards = 0 then Rng.shuffle rng cards;
        draw cards.(i mod Array.length cards))
  in
  let warmup = g warmup_txns in
  let steady = g steady_txns in
  let mig = g mig_pool_txns in
  { warmup; steady; mig }

let kinds = [ "NewOrder"; "Payment"; "Delivery"; "OrderStatus"; "StockLevel" ]

let kind_span = List.map (fun k -> (k, "tpcc." ^ k)) kinds

let now = Stats.now

let first_error = ref None

let note_error e =
  if !first_error = None then first_error := Some (Printexc.to_string e)

(* One transaction: begin, the TPC-C body through [Lazy_db.exec_in]
   statement by statement, commit.  Returns whether it committed. *)
let run_txn ldb ops report ~req input =
  let db = Lazy_db.db ldb in
  let sp = Spans.open_ (List.assoc (Tpcc_txns.input_kind input) kind_span) ~req in
  let txn = Database.begin_txn db in
  let exec ?params sql =
    if not !Spans.enabled then Lazy_db.exec_in ldb txn ~report ?params sql
    else begin
      let before = report.Migrate_exec.r_granules_migrated in
      let s = Spans.open_ "lazy_db.stmt" ~req in
      match Lazy_db.exec_in ldb txn ~report ?params sql with
      | r ->
          Spans.close s
            ~name:
              (if report.Migrate_exec.r_granules_migrated > before then
                 "lazy_db.migrating_stmt"
               else "lazy_db.stmt");
          r
      | exception e ->
          Spans.close s;
          raise e
    end
  in
  let ok =
    match
      Tpcc_txns.run ops ~districts:scale.Tpcc_schema.districts exec input;
      Spans.span "db.commit" ~req (fun () -> Database.commit db txn)
    with
    | () -> true
    | exception e ->
        note_error e;
        (try Database.abort db txn with _ -> ());
        false
  in
  Spans.close sp;
  ok

(* -- traced-cycle figures ---------------------------------------------- *)

type layers = {
  txn_kind : string array;  (** steady phase, per txn: its input kind ... *)
  txn_lat : float array;  (** ... and its latency (seconds) *)
  stmt : Stats.samples;  (** statements that moved no data *)
  mig_stmt : Stats.samples;  (** statements that migrated granules *)
  mutable mig_phase_stmts : int;
  commit : Stats.samples;
  vacuum : Stats.samples;
  mutable vac_reclaimed : int;
  mutable backlog_max : int;
  bg_step : Stats.samples;
  mutable bg_granules : int;
  mutable granules_lazy : int;
  mutable granules_already : int;
  mutable skip_waits : int;
  mutable aborts : int;
  mutable lazy_migrated : int;
  mutable lazy_already : int;
  mutable flip_s : float;
  mutable lint_s : float;
  mutable steady_counts : Obs.Counters.snapshot;
  mutable mig_counts : Obs.Counters.snapshot;
  mutable redo_bytes : int;
  mutable txns : int;
  self : (string, float) Hashtbl.t;  (** seconds per layer *)
}

let layers () =
  {
    txn_kind = Array.make steady_txns "";
    txn_lat = Array.make steady_txns 0.0;
    stmt = Stats.samples ();
    mig_stmt = Stats.samples ();
    mig_phase_stmts = 0;
    commit = Stats.samples ();
    vacuum = Stats.samples ();
    vac_reclaimed = 0;
    backlog_max = 0;
    bg_step = Stats.samples ();
    bg_granules = 0;
    granules_lazy = 0;
    granules_already = 0;
    skip_waits = 0;
    aborts = 0;
    lazy_migrated = 0;
    lazy_already = 0;
    flip_s = 0.0;
    lint_s = 0.0;
    steady_counts = [];
    mig_counts = [];
    redo_bytes = 0;
    txns = 0;
    self = Hashtbl.create 8;
  }

let vacuum ldb (ly : layers) =
  let db = Lazy_db.db ldb in
  if !Spans.enabled then ly.backlog_max <- max ly.backlog_max (Database.version_backlog db);
  let n = Spans.span "db.vacuum" ~req:(-1) (fun () -> Database.vacuum db) in
  if !Spans.enabled then ly.vac_reclaimed <- ly.vac_reclaimed + n

(* -- correctness ----------------------------------------------------- *)

let fail fmt = Printf.ksprintf failwith fmt

let int_of = Txn_ops.int_of

let float_of = Txn_ops.float_of

let close_enough a b = Float.abs (a -. b) <= 0.005 +. (1e-9 *. Float.abs a)

(* TPC-C consistency conditions 1-7 (spec §3.3.2) over the base tables
   the split leaves in place, then every customer key exactly once in
   each split half. *)
let check db =
  let q sql = Database.query db sql in
  let w_ytd = Hashtbl.create 4 in
  List.iter (fun r -> Hashtbl.replace w_ytd (int_of r.(0)) (float_of r.(1))) (q "SELECT w_id, w_ytd FROM warehouse");
  let d_sum = Hashtbl.create 4 in
  let next_o = Hashtbl.create 32 in
  List.iter
    (fun r ->
      let w = int_of r.(0) in
      Hashtbl.replace d_sum w (float_of r.(2) +. Option.value ~default:0.0 (Hashtbl.find_opt d_sum w));
      Hashtbl.replace next_o (w, int_of r.(1)) (int_of r.(3)))
    (q "SELECT d_w_id, d_id, d_ytd, d_next_o_id FROM district");
  Hashtbl.iter
    (fun w y ->
      if not (close_enough y (Option.value ~default:nan (Hashtbl.find_opt d_sum w))) then
        fail "consistency 1: warehouse %d w_ytd differs from its districts' d_ytd sum" w)
    w_ytd;
  (* orders: (w,d,o) -> (carrier null?, ol_cnt) *)
  let orders = Hashtbl.create 16384 in
  let max_o = Hashtbl.create 32 in
  let ol_cnt_sum = Hashtbl.create 32 in
  List.iter
    (fun r ->
      let o = int_of r.(0) and d = int_of r.(1) and w = int_of r.(2) in
      let cnt = int_of r.(4) in
      if Hashtbl.mem orders (w, d, o) then fail "orders key (%d,%d,%d) twice" w d o;
      Hashtbl.replace orders (w, d, o) (Value.is_null r.(3), cnt);
      Hashtbl.replace max_o (w, d) (max o (Option.value ~default:0 (Hashtbl.find_opt max_o (w, d))));
      Hashtbl.replace ol_cnt_sum (w, d) (cnt + Option.value ~default:0 (Hashtbl.find_opt ol_cnt_sum (w, d))))
    (q "SELECT o_id, o_d_id, o_w_id, o_carrier_id, o_ol_cnt FROM orders");
  let no = Hashtbl.create 4096 in
  let no_rng = Hashtbl.create 32 in
  List.iter
    (fun r ->
      let o = int_of r.(0) and d = int_of r.(1) and w = int_of r.(2) in
      if Hashtbl.mem no (w, d, o) then fail "new_order key (%d,%d,%d) twice" w d o;
      Hashtbl.replace no (w, d, o) ();
      let lo, hi, n = Option.value ~default:(max_int, min_int, 0) (Hashtbl.find_opt no_rng (w, d)) in
      Hashtbl.replace no_rng (w, d) (min lo o, max hi o, n + 1))
    (q "SELECT no_o_id, no_d_id, no_w_id FROM new_order");
  Hashtbl.iter
    (fun (w, d) nxt ->
      let mo = Option.value ~default:0 (Hashtbl.find_opt max_o (w, d)) in
      if nxt - 1 <> mo then fail "consistency 2: district (%d,%d) d_next_o_id-1 <> max(o_id)" w d;
      match Hashtbl.find_opt no_rng (w, d) with
      | None -> ()
      | Some (lo, hi, n) ->
          if hi <> mo then fail "consistency 2: district (%d,%d) max(no_o_id) <> max(o_id)" w d;
          if hi - lo + 1 <> n then fail "consistency 3: district (%d,%d) new_order has gaps" w d)
    next_o;
  let lines = Hashtbl.create 16384 in
  let ol_count = Hashtbl.create 32 in
  List.iter
    (fun r ->
      let o = int_of r.(0) and d = int_of r.(1) and w = int_of r.(2) in
      let n, undelivered = Option.value ~default:(0, None) (Hashtbl.find_opt lines (w, d, o)) in
      let u = Value.is_null r.(3) in
      (match undelivered with
      | Some u' when u' <> u -> fail "order (%d,%d,%d) has delivered and undelivered lines" w d o
      | _ -> ());
      Hashtbl.replace lines (w, d, o) (n + 1, Some u);
      Hashtbl.replace ol_count (w, d) (1 + Option.value ~default:0 (Hashtbl.find_opt ol_count (w, d))))
    (q "SELECT ol_o_id, ol_d_id, ol_w_id, ol_delivery_d FROM order_line");
  Hashtbl.iter
    (fun (w, d) s ->
      if Option.value ~default:0 (Hashtbl.find_opt ol_count (w, d)) <> s then
        fail "consistency 4: district (%d,%d) sum(o_ol_cnt) <> count(order_line)" w d)
    ol_cnt_sum;
  Hashtbl.iter
    (fun (w, d, o) (carrier_null, cnt) ->
      if carrier_null <> Hashtbl.mem no (w, d, o) then
        fail "consistency 5: order (%d,%d,%d) carrier vs new_order mismatch" w d o;
      match Hashtbl.find_opt lines (w, d, o) with
      | None -> fail "consistency 6: order (%d,%d,%d) has no lines" w d o
      | Some (n, u) ->
          if n <> cnt then fail "consistency 6: order (%d,%d,%d) o_ol_cnt <> line count" w d o;
          if u <> Some carrier_null then
            fail "consistency 7: order (%d,%d,%d) delivery date vs carrier mismatch" w d o)
    orders;
  let customers = Tpcc_schema.customer_count scale in
  let exactly_once what rows key expected =
    let seen = Hashtbl.create (2 * expected) in
    List.iter
      (fun r ->
        let k = key r in
        if Hashtbl.mem seen k then fail "%s: key present twice" what;
        Hashtbl.replace seen k ())
      rows;
    if Hashtbl.length seen <> expected then
      fail "%s: %d keys, expected %d" what (Hashtbl.length seen) expected
  in
  let cust_key r = (int_of r.(0), int_of r.(1), int_of r.(2)) in
  exactly_once "customer_public" (q "SELECT c_w_id, c_d_id, c_id FROM customer_public") cust_key customers;
  exactly_once "customer_private" (q "SELECT c_w_id, c_d_id, c_id FROM customer_private") cust_key customers

(* Row-exact digest of the application-visible tables after the flip:
   per table, the row count and an MD5 over the sorted rows, floats in
   hexadecimal so no digit is lost. *)
let app_tables =
  [ "customer_private"; "customer_public"; "district"; "history"; "item"; "new_order";
    "order_line"; "orders"; "stock"; "warehouse" ]

let digest db =
  let cell = function
    | Value.Float f | Value.Timestamp f -> Printf.sprintf "%h" f
    | v -> Value.to_string v
  in
  List.map
    (fun t ->
      let rows =
        List.map
          (fun r -> String.concat "|" (Array.to_list (Array.map cell r)))
          (Database.query db ("SELECT * FROM " ^ t))
      in
      let rows = List.sort compare rows in
      (t, List.length rows, Digest.to_hex (Digest.string (String.concat "\n" rows))))
    app_tables

let digest_json d =
  Stats.Obj
    (List.map (fun (t, n, h) -> (t, Stats.Obj [ ("rows", Stats.Int n); ("md5", Stats.Str h) ])) d)

(* -- one cycle ------------------------------------------------------- *)

type result = {
  e2e : E2e.cycle;
  ly : layers option;  (** traced cycles only *)
  correct : bool;
  mig_used : int;
  digest : (string * int * string) list option;
}

let cycle ~seed ~traced ~want_digest =
  let inputs = gen_inputs seed in
  let ly = layers () in
  let lat_steady = Stats.samples () and lat_mig = Stats.samples () in
  let done_steady = Stats.samples () and done_mig = Stats.samples () in
  let attempted = ref 0 and ok_n = ref 0 in
  let outcome ok =
    incr attempted;
    if ok then incr ok_n
  in
  Obs.Counters.set_enabled traced;
  let probe_s = E2e.probe () in
  let t_setup = now () in
  let db = Database.create () in
  Loader.load ~seed db scale;
  let ldb = Lazy_db.create db in
  let report = Migrate_exec.new_report () in
  Array.iteri
    (fun i input ->
      if not (run_txn ldb Tpcc_migrations.base_ops report ~req:i input) then
        fail "warm-up transaction failed: %s" (Option.value ~default:"?" !first_error))
    inputs.warmup;
  ignore (Database.vacuum db : int);
  let setup_s = now () -. t_setup in
  Spans.enabled := traced;
  (* steady phase *)
  let redo0 = if traced then String.length (Redo_log.serialize db.Database.redo) else 0 in
  let c0 = Obs.Counters.snapshot () in
  let t0 = now () in
  Array.iteri
    (fun i input ->
      let a = now () in
      let ok = run_txn ldb Tpcc_migrations.base_ops report ~req:i input in
      let b = now () in
      Stats.add lat_steady (b -. a);
      Stats.add done_steady (b -. t0);
      outcome ok;
      if (i + 1) mod vacuum_every = 0 then vacuum ldb ly)
    inputs.steady;
  let steady_s = now () -. t0 in
  let span1 = !Spans.n in
  if traced then begin
    ly.steady_counts <- Obs.Counters.diff (Obs.Counters.snapshot ()) c0;
    ly.redo_bytes <- String.length (Redo_log.serialize db.Database.redo) - redo0;
    Spans.iter_range 0 span1 (fun name d req ->
        if String.length name > 5 && String.sub name 0 5 = "tpcc." then begin
          ly.txn_kind.(req) <- String.sub name 5 (String.length name - 5);
          ly.txn_lat.(req) <- d
        end)
  end;
  (* flip *)
  let spec = Tpcc_migrations.spec_of scn in
  if traced then begin
    let a = now () in
    ignore (Tpcc_migrations.preflight db.Database.catalog scn : Mig_lint.t);
    ly.lint_s <- now () -. a
  end;
  let c2 = Obs.Counters.snapshot () in
  let mig_report = Migrate_exec.new_report () in
  let tf = now () in
  let rt = Spans.span "flip" ~req:(-1) (fun () -> Lazy_db.start_migration ldb spec) in
  ly.flip_s <- now () -. tf;
  (* migrating phase: until the migration completes *)
  let ops = Tpcc_migrations.post_ops scn in
  let i = ref 0 in
  let complete = ref false in
  while not !complete do
    if !i >= mig_pool_txns then fail "migration did not complete within %d transactions" mig_pool_txns;
    let a = now () in
    let ok = run_txn ldb ops mig_report ~req:(steady_txns + !i) inputs.mig.(!i) in
    let b = now () in
    Stats.add lat_mig (b -. a);
    Stats.add done_mig (b -. tf);
    outcome ok;
    incr i;
    if !i mod bg_every = 0 then begin
      let g = Spans.span "bg.step" ~req:(-1) (fun () -> Lazy_db.background_step ldb ~batch:bg_batch) in
      ly.bg_granules <- ly.bg_granules + g;
      if g = 0 || Lazy_db.migration_complete ldb then complete := true
    end;
    if !i mod vacuum_every = 0 then vacuum ldb ly
  done;
  let window_s = now () -. tf in
  Spans.enabled := false;
  let span2 = !Spans.n in
  if traced then begin
    ly.mig_counts <- Obs.Counters.diff (Obs.Counters.snapshot ()) c2;
    ly.granules_lazy <- rt.Migrate_exec.tele_lazy;
    ly.granules_already <- rt.Migrate_exec.tele_already;
    ly.skip_waits <- rt.Migrate_exec.tele_skip_waits;
    ly.aborts <- rt.Migrate_exec.tele_aborts;
    ly.lazy_migrated <- mig_report.Migrate_exec.r_granules_migrated;
    ly.lazy_already <- mig_report.Migrate_exec.r_granules_already;
    ly.txns <- steady_txns + !i;
    Spans.durations_into ly.stmt "lazy_db.stmt";
    Spans.durations_into ly.mig_stmt "lazy_db.migrating_stmt";
    Spans.iter_range span1 span2 (fun name _ _ ->
        if name = "lazy_db.stmt" || name = "lazy_db.migrating_stmt" then
          ly.mig_phase_stmts <- ly.mig_phase_stmts + 1);
    Spans.durations_into ly.commit "db.commit";
    Spans.durations_into ly.vacuum "db.vacuum";
    Spans.durations_into ly.bg_step "bg.step";
    Hashtbl.iter (Hashtbl.replace ly.self) (Spans.self_by_layer ())
  end;
  let peak_heap_mb = E2e.peak_heap_mb () in
  let correct =
    match check db with
    | () -> true
    | exception Failure msg ->
        prerr_endline ("tpcc-split: " ^ msg);
        false
  in
  {
    e2e =
      {
        E2e.traced;
        setup_s;
        steady_s;
        window_s;
        lat_steady;
        done_steady;
        lat_mig;
        done_mig;
        attempted = !attempted;
        ok = !ok_n;
        peak_heap_mb;
        probe_s;
      };
    ly = (if traced then Some ly else None);
    correct;
    mig_used = !i;
    digest = (if want_digest then Some (digest db) else None);
  }

(* The eager-migrated replay of the same inputs: warm-up and steady
   phase on the original schema, [Eager.migrate], then the first
   [mig_txns] migrating-phase inputs on the post-flip schema.  Run in a
   fresh process so the loader's timestamp source starts where the
   lazy run's first cycle started. *)
let replay ~seed ~mig_txns =
  let inputs = gen_inputs seed in
  let db = Database.create () in
  Loader.load ~seed db scale;
  let run ops input =
    Database.with_txn db (fun txn ->
        Tpcc_txns.run ops ~districts:scale.Tpcc_schema.districts
          (fun ?params sql -> Database.exec_in db txn ?params sql)
          input)
  in
  Array.iter (run Tpcc_migrations.base_ops) inputs.warmup;
  Array.iter (run Tpcc_migrations.base_ops) inputs.steady;
  ignore (Eager.migrate db (Tpcc_migrations.spec_of scn) : Eager.outcome);
  let ops = Tpcc_migrations.post_ops scn in
  for i = 0 to mig_txns - 1 do
    run ops inputs.mig.(i)
  done;
  check db;
  digest db

(* -- per-layer metrics, pooled over the traced cycles ------------------ *)

let metrics (lys : layers list) =
  let pool f = Stats.concat (List.map f lys) in
  let sum f = float_of_int (List.fold_left (fun a l -> a + f l) 0 lys) in
  let med f = Stats.median_list (List.map f lys) in
  let ms name s q = Stats.pct_metric name ~scale:1e3 s q in
  let us name s q = Stats.pct_metric name ~scale:1e6 s q in
  let counts f =
    List.fold_left (fun acc l -> Obs.Counters.add_snapshots acc (f l)) [] lys
  in
  let steady = counts (fun l -> l.steady_counts) and mig = counts (fun l -> l.mig_counts) in
  let cnt name snap = float_of_int (Option.value ~default:0 (List.assoc_opt name snap)) in
  let ratio hits misses =
    let h = cnt hits steady and m = cnt misses steady in
    if h +. m = 0.0 then 0.0 else h /. (h +. m)
  in
  let steady_txns_total = float_of_int (steady_txns * List.length lys) in
  let per_txn name = cnt name steady /. steady_txns_total in
  let stmt = pool (fun l -> l.stmt) and mig_stmt = pool (fun l -> l.mig_stmt) in
  let commit = pool (fun l -> l.commit) in
  (* Steady-phase latencies of one input kind, pooled over the traced
     cycles, from txn [lo] to [hi - 1]. *)
  let kind_lat ?(lo = 0) ?(hi = steady_txns) k =
    let s = Stats.samples () in
    List.iter
      (fun l ->
        for i = lo to hi - 1 do
          if l.txn_kind.(i) = k then Stats.add s l.txn_lat.(i)
        done)
      lys;
    s
  in
  let fifth = steady_txns / 5 in
  List.concat_map
    (fun k ->
      let s = kind_lat k in
      [ ms (Printf.sprintf "type.%s.p50_ms" k) s 0.50; ms (Printf.sprintf "type.%s.p99_ms" k) s 0.99 ])
    kinds
  @ [
      ms "type.Delivery.first_p50_ms" (kind_lat ~hi:fifth "Delivery") 0.50;
      ms "type.Delivery.last_p50_ms" (kind_lat ~lo:(steady_txns - fifth) "Delivery") 0.50;
      us "lazy_db.stmt.p50_us" stmt 0.50;
      us "lazy_db.stmt.p99_us" stmt 0.99;
      us "lazy_db.migrating_stmt.p50_us" mig_stmt 0.50;
      us "lazy_db.migrating_stmt.p99_us" mig_stmt 0.99;
      ( "lazy_db.migrating_stmt_share",
        float_of_int (Stats.count mig_stmt) /. Float.max 1.0 (sum (fun l -> l.mig_phase_stmts)) );
      ("lazy_db.granules_lazy", sum (fun l -> l.granules_lazy));
      ("lazy_db.granules_already", sum (fun l -> l.granules_already));
      ("lazy_db.skip_waits", sum (fun l -> l.skip_waits));
      ("lazy_db.aborts", sum (fun l -> l.aborts));
      ( "lazy_db.useful_ratio",
        let m = sum (fun l -> l.lazy_migrated) and a = sum (fun l -> l.lazy_already) in
        if m +. a = 0.0 then 0.0 else m /. (m +. a) );
      ("flip_ms", med (fun l -> l.flip_s) *. 1e3);
      ("lint_ms", med (fun l -> l.lint_s) *. 1e3);
      us "db.commit.p50_us" commit 0.50;
      us "db.commit.p99_us" commit 0.99;
      ms "db.vacuum.p50_ms" (pool (fun l -> l.vacuum)) 0.50;
      ("db.vacuum.reclaimed", sum (fun l -> l.vac_reclaimed));
      ("db.version_backlog_max", float_of_int (List.fold_left (fun a l -> max a l.backlog_max) 0 lys));
      ("db.index.probes_per_txn", per_txn "db.index.probes");
      ("db.stmt_cache.hit_ratio", ratio "db.stmt_cache.hits" "db.stmt_cache.misses");
      ("db.plan_cache.hit_ratio", ratio "db.plan_cache.hits" "db.plan_cache.misses");
      ("mvcc.version_walks_per_txn", per_txn "mvcc.version_walks");
      ("db.redo.bytes_per_txn", sum (fun l -> l.redo_bytes) /. steady_txns_total);
      ("core.bitmap.word_skips", cnt "core.bitmap.word_skips" mig);
    ]
  @ Spans.bg_metrics (pool (fun l -> l.bg_step)) ~granules:(List.fold_left (fun a l -> a + l.bg_granules) 0 lys)
  @ Spans.self_metrics (List.map (fun l -> l.self) lys) ~txns:(List.fold_left (fun a l -> a + l.txns) 0 lys)
