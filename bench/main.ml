(* Benchmark harness: regenerates every evaluation figure of the paper
   (Figs. 3-12; Figs. 1-2 are diagrams) plus Bechamel microbenchmarks of
   the tracking structures backing Fig. 9.

   Usage:
     dune exec bench/main.exe                run everything
     dune exec bench/main.exe -- fig3 fig9   run a subset
     dune exec bench/main.exe -- --out DIR ...
                                             write BENCH_*.json there
                                             (default _build/bench-out)
     BF_FAST=1   shrink scale and windows (quick smoke, ~2 min)
     BF_FULL=1   the paper-proportioned 1/10 scale (slow, ~40 min)
     BF_SEED=n   change the experiment seed

   The time axis and database are jointly compressed relative to the paper
   (DESIGN.md §1), so curve *shapes* — who dips, who finishes first, where
   crossovers fall — are the reproduction target, not absolute numbers.
   EXPERIMENTS.md records a paper-vs-measured comparison per figure. *)

open Bullfrog_tpcc
open Bullfrog_core
open Bullfrog_harness

let say fmt = Printf.printf (fmt ^^ "\n%!")

(* Where the BENCH_*.json and trace files go: under _build/ by default,
   so a gate run leaves the tracked tree clean; [--out .] (make
   bench-record) rewrites the committed copies at the repository root. *)
let out_dir = ref (Filename.concat "_build" "bench-out")

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

let out_path name =
  mkdir_p !out_dir;
  Filename.concat !out_dir name

type profile = Fast | Standard | Full

let profile =
  if Sys.getenv_opt "BF_FAST" = Some "1" then Fast
  else if Sys.getenv_opt "BF_FULL" = Some "1" then Full
  else Standard

let seed = match Sys.getenv_opt "BF_SEED" with Some s -> int_of_string s | None -> 42

(* Per-figure scales: [Full] is 1/10 of the paper's database with the time
   axis compressed 10x; [Standard] shrinks a further ~3x; [Fast] is a
   smoke test. *)
let split_scale, split_window, split_mig =
  match profile with
  | Full ->
      ( { Tpcc_schema.warehouses = 5; districts = 10; customers = 3000; items = 10_000; orders = 3000; lines_per_order = 10 },
        25.0, 5.0 )
  | Standard ->
      ( { Tpcc_schema.warehouses = 3; districts = 10; customers = 1500; items = 5_000; orders = 1500; lines_per_order = 10 },
        18.0, 4.0 )
  | Fast ->
      ( { Tpcc_schema.warehouses = 2; districts = 5; customers = 400; items = 1_000; orders = 400; lines_per_order = 8 },
        10.0, 2.0 )

let agg_scale, agg_window, agg_mig =
  match profile with
  | Full ->
      ( { Tpcc_schema.warehouses = 5; districts = 10; customers = 3000; items = 10_000; orders = 3000; lines_per_order = 10 },
        22.0, 5.0 )
  | Standard ->
      ( { Tpcc_schema.warehouses = 3; districts = 10; customers = 1000; items = 5_000; orders = 1500; lines_per_order = 10 },
        18.0, 4.0 )
  | Fast ->
      ( { Tpcc_schema.warehouses = 2; districts = 5; customers = 300; items = 1_000; orders = 400; lines_per_order = 8 },
        10.0, 2.0 )

let join_scale, join_window, join_mig =
  match profile with
  | Full ->
      ( { Tpcc_schema.warehouses = 3; districts = 10; customers = 1000; items = 10_000; orders = 1000; lines_per_order = 10 },
        50.0, 5.0 )
  | Standard ->
      ( { Tpcc_schema.warehouses = 3; districts = 10; customers = 500; items = 5_000; orders = 500; lines_per_order = 8 },
        30.0, 4.0 )
  | Fast ->
      ( { Tpcc_schema.warehouses = 2; districts = 5; customers = 200; items = 1_000; orders = 200; lines_per_order = 6 },
        14.0, 2.0 )

let setup_for scale window mig =
  Experiment.make_setup ~scale ~duration:window ~mig_time:mig ~seed ()

let timed name f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  say "  [%s done in %.1fs real]" name (Unix.gettimeofday () -. t0);
  r

let run setup ~rate ?hot_customers ?fk ?customer_only ?gen ~scenario name build =
  timed name (fun () ->
      let _, r =
        Experiment.run_system setup ~rate ?hot_customers ?fk ?customer_only ?gen
          ~scenario build
      in
      (name, r))

(* ------------------------------------------------------------------ *)
(* Figures 3/4: table-split migration                                   *)
(* ------------------------------------------------------------------ *)

(* paper SS4.1: background threads start 20 s after a migration submitted
   ~50 s into a 250 s window = 8% of the window after the submission *)
let bg_delay setup = setup.Experiment.duration *. 0.08

let fig3_4 () =
  say "\n######## Figures 3 & 4: table-split migration (1:n bitmap) ########";
  let setup = setup_for split_scale split_window split_mig in
  let scenario = Tpcc_migrations.Split in
  let d = bg_delay setup in
  let systems rate =
    [
      run setup ~rate ~scenario "eager" Systems.eager;
      run setup ~rate ~scenario "multistep" Systems.multistep;
      run setup ~rate ~scenario "bullfrog(bitmap)" (Systems.bullfrog ~bg_delay:d ~bg_workers:2);
      run setup ~rate ~scenario "tesseract(mvcc)" (Systems.tesseract ~bg_workers:2);
      run setup ~rate ~scenario "bullfrog(on-conflict)"
        (Systems.bullfrog ~mode:Migrate_exec.On_conflict ~bg_delay:d ~bg_workers:2);
      run setup ~rate ~scenario "bullfrog(no-bg)" (Systems.bullfrog ~background:false);
    ]
  in
  let low = systems setup.Experiment.low_rate in
  Experiment.print_series
    (Printf.sprintf "Fig 3(a): throughput, table split @ %.0f TPS (under capacity)"
       setup.Experiment.low_rate)
    low;
  Experiment.print_cdf "Fig 4(a): latency, table split @ 450-equivalent" low;
  let high = systems setup.Experiment.high_rate in
  Experiment.print_series
    (Printf.sprintf "Fig 3(b): throughput, table split @ %.0f TPS (saturation)"
       setup.Experiment.high_rate)
    high;
  Experiment.print_cdf "Fig 4(b): latency, table split @ 700-equivalent" high;
  (* the paper's 13% more-transactions observation *)
  let total name results =
    (List.assoc name (List.map (fun (n, r) -> (n, r.Sim.completed)) results) : int)
  in
  say "\ncompleted transactions at saturation: lazy=%d eager=%d (+%.1f%%)"
    (total "bullfrog(bitmap)" high) (total "eager" high)
    (100.0
    *. (float_of_int (total "bullfrog(bitmap)" high) /. float_of_int (total "eager" high)
       -. 1.0))

(* ------------------------------------------------------------------ *)
(* Figures 5/6: aggregate migration                                     *)
(* ------------------------------------------------------------------ *)

let fig5_6 () =
  say "\n######## Figures 5 & 6: aggregate migration (n:1 hashmap) ########";
  let setup = setup_for agg_scale agg_window agg_mig in
  let scenario = Tpcc_migrations.Aggregate in
  let d = bg_delay setup in
  let systems rate =
    [
      run setup ~rate ~scenario "eager" Systems.eager;
      run setup ~rate ~scenario "multistep" Systems.multistep;
      run setup ~rate ~scenario "bullfrog(hashmap)" (Systems.bullfrog ~bg_delay:d ~bg_workers:2);
    ]
  in
  let low = systems setup.Experiment.low_rate in
  Experiment.print_series "Fig 5(a): throughput, aggregation @ 450-equivalent" low;
  Experiment.print_cdf "Fig 6(a): latency, aggregation @ 450-equivalent" low;
  let high = systems setup.Experiment.high_rate in
  Experiment.print_series "Fig 5(b): throughput, aggregation @ 700-equivalent" high;
  Experiment.print_cdf "Fig 6(b): latency, aggregation @ 700-equivalent" high

(* ------------------------------------------------------------------ *)
(* Figures 7/8: join migration                                          *)
(* ------------------------------------------------------------------ *)

let fig7_8 () =
  say "\n######## Figures 7 & 8: join migration (n:n pairs) ########";
  let setup = setup_for join_scale join_window join_mig in
  let scenario = Tpcc_migrations.Join in
  let d = bg_delay setup in
  let systems rate =
    [
      run setup ~rate ~scenario "eager" Systems.eager;
      run setup ~rate ~scenario "multistep" Systems.multistep;
      run setup ~rate ~scenario "bullfrog(hashmap)"
        (Systems.bullfrog ~bg_delay:d ~bg_workers:2 ~bg_batch:512);
    ]
  in
  let low = systems setup.Experiment.low_rate in
  Experiment.print_series "Fig 7(a): throughput, join @ 450-equivalent" low;
  Experiment.print_cdf "Fig 8(a): latency, join @ 450-equivalent" low;
  let high = systems setup.Experiment.high_rate in
  Experiment.print_series "Fig 7(b): throughput, join @ 700-equivalent" high;
  Experiment.print_cdf "Fig 8(b): latency, join @ 700-equivalent" high

(* ------------------------------------------------------------------ *)
(* Figure 9: data-structure maintenance cost                            *)
(* ------------------------------------------------------------------ *)

(* The paper modifies NewOrder so the workload cumulatively touches each
   customer exactly once, making tracking unnecessary, and compares
   BullFrog with and without the data structures. *)
let fig9 () =
  say "\n######## Figure 9: tracking data-structure maintenance cost ########";
  let setup = setup_for split_scale (split_window /. 2.0 *. 2.0) split_mig in
  let scenario = Tpcc_migrations.Split in
  let cursor = ref 0 in
  let sequential_gen rng =
    (* payments sweeping the customer key space once, in order *)
    let s = setup.Experiment.scale in
    let per_d = s.Tpcc_schema.customers in
    let per_w = s.Tpcc_schema.districts * per_d in
    let k = !cursor in
    incr cursor;
    let total = Tpcc_schema.customer_count s in
    let k = k mod total in
    ignore rng;
    Tpcc_txns.Payment
      {
        w = 1 + (k / per_w);
        d = 1 + (k mod per_w / per_d);
        by_last = None;
        c = 1 + (k mod per_d);
        amount = 10.0;
      }
  in
  let rate = setup.Experiment.high_rate in
  cursor := 0;
  let with_tracking =
    run setup ~rate ~gen:sequential_gen ~scenario "bullfrog(bitmap)"
      (Systems.bullfrog ~background:false)
  in
  cursor := 0;
  let without =
    run setup ~rate ~gen:sequential_gen ~scenario "bullfrog(no-bitmap)"
      (Systems.bullfrog ~background:false ~tracking:false)
  in
  Experiment.print_series "Fig 9: throughput with vs without the bitmap" [ with_tracking; without ];
  Experiment.print_cdf ~kind:"Payment" "Fig 9: latency with vs without the bitmap"
    [ with_tracking; without ]

(* ------------------------------------------------------------------ *)
(* Figure 10: skewed data access                                        *)
(* ------------------------------------------------------------------ *)

let fig10 () =
  say "\n######## Figure 10: skewed access (hot sets) ########";
  let setup = setup_for split_scale split_window split_mig in
  let scenario = Tpcc_migrations.Split in
  let total = Tpcc_schema.customer_count setup.Experiment.scale in
  (* the paper's 1,500,000 / 15,000 / 3,000 records, scaled to our key space *)
  let hots = [ total; max 1 (total / 100); max 1 (total / 500) ] in
  let d = bg_delay setup in
  let results =
    List.map
      (fun hot ->
        run setup ~rate:setup.Experiment.high_rate ~hot_customers:hot ~scenario
          (Printf.sprintf "hot-set=%d" hot)
          (Systems.bullfrog ~bg_delay:d))
      hots
  in
  Experiment.print_series "Fig 10: throughput under access skew (hot sets)" results;
  Experiment.print_cdf "Fig 10: latency under access skew" results

(* ------------------------------------------------------------------ *)
(* Figure 11: migration granularity                                     *)
(* ------------------------------------------------------------------ *)

let fig11 () =
  say "\n######## Figure 11: migration granularity (page sizes) ########";
  let setup = setup_for split_scale split_window split_mig in
  let scenario = Tpcc_migrations.Split in
  let total = Tpcc_schema.customer_count setup.Experiment.scale in
  let pages = match profile with Fast -> [ 1; 128 ] | _ -> [ 1; 64; 128; 256 ] in
  let d = bg_delay setup in
  let cell rate hot =
    let results =
      List.map
        (fun page ->
          run setup ~rate ~hot_customers:hot ~scenario
            (Printf.sprintf "page=%d" page)
            (Systems.bullfrog ~page_size:page ~bg_delay:d))
        pages
    in
    (results, hot)
  in
  List.iter
    (fun rate ->
      List.iter
        (fun hot ->
          let results, _ = cell rate hot in
          Experiment.print_series
            (Printf.sprintf "Fig 11: rate=%.0f hot-set=%d, page sizes" rate hot)
            results;
          Experiment.print_cdf
            (Printf.sprintf "Fig 11: rate=%.0f hot-set=%d, latency" rate hot)
            results)
        [ total; max 1 (total / 100) ])
    [ setup.Experiment.high_rate; setup.Experiment.low_rate ]

(* ------------------------------------------------------------------ *)
(* Figure 12: FOREIGN KEY constraints on the split                      *)
(* ------------------------------------------------------------------ *)

let fig12 () =
  say "\n######## Figure 12: FK constraints on the table split ########";
  let setup = setup_for split_scale split_window split_mig in
  let scenario = Tpcc_migrations.Split in
  let d = bg_delay setup in
  let variants =
    [
      ("PK only", Tpcc_migrations.Fk_none);
      ("PK + FK district", Tpcc_migrations.Fk_district);
      ("PK + FK order,district", Tpcc_migrations.Fk_district_orders);
    ]
  in
  let cell ~customer_only =
    List.map
      (fun (name, fk) ->
        run setup ~rate:setup.Experiment.high_rate ~fk ~customer_only ~scenario name
          (Systems.bullfrog ~bg_delay:d))
      variants
  in
  let full = cell ~customer_only:false in
  Experiment.print_series "Fig 12(a): full workload, FK variants" full;
  let partial = cell ~customer_only:true in
  Experiment.print_series "Fig 12(b): customer-only workload, FK variants" partial;
  Experiment.print_cdf "Fig 12(b): latency, customer-only workload" partial

(* ------------------------------------------------------------------ *)
(* Ablations of BullFrog's design choices (beyond the paper's figures)  *)
(* ------------------------------------------------------------------ *)

let ablations () =
  say "\n######## Ablations: n:n granularity, FK-PK join options, bg threads ########";
  (* (a) n:n tracking granularity: §3.6 option 3 pairs vs join-key classes *)
  let setup = setup_for join_scale join_window join_mig in
  let d = bg_delay setup in
  let nn =
    [
      run setup ~rate:setup.Experiment.low_rate ~scenario:Tpcc_migrations.Join
        "nn=pair (opt 3)"
        (Systems.bullfrog ~nn:Migrate_exec.Nn_pair ~bg_delay:d ~bg_workers:2 ~bg_batch:512);
      run setup ~rate:setup.Experiment.low_rate ~scenario:Tpcc_migrations.Join
        "nn=class (coarse)"
        (Systems.bullfrog ~nn:Migrate_exec.Nn_join_key ~bg_delay:d ~bg_workers:2 ~bg_batch:64);
    ]
  in
  Experiment.print_series "Ablation: n:n granularity — pairs (§3.6 opt 3) vs join-key classes" nn;
  Experiment.print_cdf "Ablation: n:n granularity, latency" nn;
  (* (b) background thread budget for the split *)
  let setup = setup_for split_scale split_window split_mig in
  let results =
    List.map
      (fun workers ->
        run setup ~rate:setup.Experiment.high_rate ~scenario:Tpcc_migrations.Split
          (Printf.sprintf "bg-workers=%d" workers)
          (Systems.bullfrog ~bg_delay:d ~bg_workers:workers))
      [ 1; 2; 4 ]
  in
  Experiment.print_series "Ablation: background thread budget (split @ 700)" results;
  (* (c) latch striping of the trackers, microbenchmarked under threads *)
  say "\nAblation: bitmap latch striping (8 threads, 1M acquires)";
  List.iter
    (fun stripes ->
      let bt = Bitmap_tracker.create ~stripes ~size:1_000_000 () in
      let t0 = Unix.gettimeofday () in
      let ths =
        List.init 8 (fun t ->
            Thread.create
              (fun () ->
                for g = t * 125_000 to ((t + 1) * 125_000) - 1 do
                  match Bitmap_tracker.try_acquire bt [ g ] with
                  | [ Tracker.Migrate ] -> Bitmap_tracker.mark_migrated bt [ g ]
                  | _ -> ()
                done)
              ())
      in
      List.iter Thread.join ths;
      say "  stripes=%-4d %6.1f ms" stripes (1000.0 *. (Unix.gettimeofday () -. t0)))
    [ 1; 8; 64; 512 ]

(* ------------------------------------------------------------------ *)
(* Bechamel microbenchmarks of the tracking structures (Fig. 9 support) *)
(* ------------------------------------------------------------------ *)

let microbench () =
  say "\n######## Microbenchmarks: tracker operation costs (Bechamel) ########";
  let open Bechamel in
  let bitmap = Bitmap_tracker.create ~size:1_000_000 () in
  let hash = Hash_tracker.create () in
  let i = ref 0 in
  let tests =
    [
      Test.make ~name:"bitmap.try_acquire+commit"
        (Staged.stage (fun () ->
             let g = !i mod 1_000_000 in
             incr i;
             match Bitmap_tracker.try_acquire bitmap [ g ] with
             | [ Tracker.Migrate ] -> Bitmap_tracker.mark_migrated bitmap [ g ]
             | _ -> ()));
      Test.make ~name:"bitmap.is_migrated"
        (Staged.stage (fun () ->
             incr i;
             ignore (Bitmap_tracker.is_migrated bitmap (!i mod 1_000_000) : bool)));
      Test.make ~name:"hash.try_acquire+commit"
        (Staged.stage (fun () ->
             incr i;
             let key = [| Bullfrog_db.Value.Int !i |] in
             match Hash_tracker.try_acquire hash [ key ] with
             | [ Tracker.Migrate ] -> Hash_tracker.mark_migrated hash [ key ]
             | _ -> ()));
      Test.make ~name:"hash.is_migrated"
        (Staged.stage (fun () ->
             incr i;
             ignore (Hash_tracker.is_migrated hash [| Bullfrog_db.Value.Int (!i mod 1000) |] : bool)));
    ]
  in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) ~kde:(Some 100) () in
  let instance = Toolkit.Instance.monotonic_clock in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg [ instance ] (Test.make_grouped ~name:"g" [ test ]) in
      Hashtbl.iter
        (fun name raw ->
          let stats =
            Analyze.one
              (Analyze.ols ~bootstrap:0 ~r_square:false
                 ~predictors:[| Measure.run |])
              instance raw
          in
          match Analyze.OLS.estimates stats with
          | Some [ est ] -> say "  %-28s %8.1f ns/op" name est
          | _ -> say "  %-28s (no estimate)" name)
        results)
    tests

(* ------------------------------------------------------------------ *)
(* Query-path microbenchmark: prepared statements + plan cache +        *)
(* compiled expression closures vs parse-and-plan-per-call              *)
(* ------------------------------------------------------------------ *)

let qpath () =
  say "\n######## Query path: statement cache + compiled closures (Bechamel) ########";
  let open Bechamel in
  let open Bullfrog_db in
  let rows = match profile with Fast -> 2_000 | _ -> 10_000 in
  let db = Database.create () in
  ignore (Database.exec db "CREATE TABLE kv (k INT PRIMARY KEY, v TEXT, w INT, x INT)"
      : Executor.result);
  Database.with_txn db (fun txn ->
      for k = 0 to rows - 1 do
        ignore
          (Executor.exec_stmt (Database.exec_ctx db) txn
             (Bullfrog_sql.Parser.parse_one
                (Printf.sprintf "INSERT INTO kv VALUES (%d, 'val%d', %d, %d)" k k (k * 3)
                   (k mod 2)))
            : Executor.result)
      done);
  let sql = "SELECT v, w FROM kv WHERE k = $1 AND w >= 0" in
  let i = ref 0 in
  let next_key () =
    incr i;
    !i mod rows
  in
  (* cold: what every execution cost before this layer existed — parse
     the text, plan it, compile it, then run. *)
  let cold () =
    let k = next_key () in
    let stmt = Bullfrog_sql.Parser.parse_one sql in
    ignore
      (Database.with_txn db (fun txn ->
           Executor.exec_stmt ~params:[| Value.Int k |] (Database.exec_ctx db) txn stmt)
        : Executor.result)
  in
  (* splice: cached machinery but literals baked into the SQL text, so
     every call is a distinct cache key — parse + plan per call. *)
  let splice () =
    let k = next_key () in
    ignore
      (Database.exec db
         (Printf.sprintf "SELECT v, w FROM kv WHERE k = %d AND w >= 0" k)
        : Executor.result)
  in
  (* warm: one parse + one plan ever; per call just binds [$1] and runs
     the compiled closures. *)
  let warm () =
    let k = next_key () in
    ignore (Database.exec db ~params:[| Value.Int k |] sql : Executor.result)
  in
  (* scan: the same prepared machinery over a filtered full scan ([w] has
     no index), so the per-row cost of the scan loop and the staged
     predicate dominates; reported per row. *)
  let scan_sql = "SELECT v FROM kv WHERE w = $1" in
  let scan () =
    let w = 3 * next_key () in
    ignore (Database.exec db ~params:[| Value.Int w |] scan_sql : Executor.result)
  in
  (* the same scan behind a two-conjunct AND (its first conjunct keeps
     half the rows, so both leaves run) and behind a one-item IN *)
  let and_sql = "SELECT v FROM kv WHERE x = $1 AND w = $2" in
  let and_scan () =
    let k = next_key () in
    ignore
      (Database.exec db ~params:[| Value.Int (k mod 2); Value.Int (3 * k) |] and_sql
        : Executor.result)
  in
  let in_sql = "SELECT v FROM kv WHERE w IN ($1)" in
  let in_scan () =
    let w = 3 * next_key () in
    ignore (Database.exec db ~params:[| Value.Int w |] in_sql : Executor.result)
  in
  (* minor words one call allocates, over a fixed number of calls *)
  let words_per f =
    let n = 200 in
    let w0 = Gc.minor_words () in
    for _ = 1 to n do
      f ()
    done;
    (Gc.minor_words () -. w0) /. float_of_int n
  in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 100) () in
  let instance = Toolkit.Instance.monotonic_clock in
  let measure name f =
    let test = Test.make ~name (Staged.stage f) in
    let results = Benchmark.all cfg [ instance ] (Test.make_grouped ~name:"qpath" [ test ]) in
    let est = ref None in
    Hashtbl.iter
      (fun _ raw ->
        let stats =
          Analyze.one
            (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
            instance raw
        in
        match Analyze.OLS.estimates stats with
        | Some [ e ] -> est := Some e
        | _ -> ())
      results;
    match !est with
    | Some e ->
        say "  %-34s %10.1f ns/op" name e;
        e
    | None ->
        say "  %-34s (no estimate)" name;
        nan
  in
  let cold_ns = measure "cold (parse+plan+exec)" cold in
  let splice_ns = measure "spliced literals (cache miss)" splice in
  let warm_ns = measure "prepared+cached+compiled" warm in
  let speedup = cold_ns /. warm_ns in
  say "  speedup (cold / warm): %.1fx" speedup;
  let per_row name sql f =
    let ns = measure name f in
    let words = words_per f in
    say "  %-34s %10.1f ns/row  %8.1f minor words/scan  (%s)" "" (ns /. float_of_int rows) words
      sql;
    (ns, ns /. float_of_int rows, words)
  in
  let scan_ns, scan_row_ns, scan_words = per_row "prepared filtered full scan" scan_sql scan in
  let _, and_row_ns, and_words = per_row "full scan, two-conjunct AND" and_sql and_scan in
  let _, in_row_ns, in_words = per_row "full scan, one-item IN" in_sql in_scan in
  say "  full scan: %.1f ns/row over %d rows" scan_row_ns rows;
  let oc = open_out (out_path "BENCH_query_path.json") in
  Printf.fprintf oc
    {|{
  "benchmark": "query_path",
  "query": "%s",
  "rows": %d,
  "profile": "%s",
  "seed": %d,
  "ns_per_op": {
    "cold_parse_plan_exec": %.1f,
    "spliced_literals": %.1f,
    "prepared_cached_compiled": %.1f,
    "prepared_full_scan": %.1f
  },
  "speedup_cold_over_warm": %.2f,
  "scan_query": "%s",
  "scan_ns_per_row": %.2f,
  "scan_minor_words": %.1f,
  "and_scan_query": "%s",
  "and_scan_ns_per_row": %.2f,
  "and_scan_minor_words": %.1f,
  "in_scan_query": "%s",
  "in_scan_ns_per_row": %.2f,
  "in_scan_minor_words": %.1f
}
|}
    (String.concat "" (String.split_on_char '"' sql))
    rows
    (match profile with Fast -> "fast" | Standard -> "standard" | Full -> "full")
    seed cold_ns splice_ns warm_ns scan_ns speedup scan_sql scan_row_ns scan_words and_sql
    and_row_ns and_words in_sql in_row_ns in_words;
  close_out oc;
  say "  wrote %s" (out_path "BENCH_query_path.json")

(* ------------------------------------------------------------------ *)
(* Migration-path microbenchmark: the tracker sweep, the heap load and  *)
(* the eager copy, each timed on the one path the engine runs.          *)
(* Wall-clock only: the virtual-time cost model (and thus every figure  *)
(* above) reads Txn.counters, not time.                                 *)
(* ------------------------------------------------------------------ *)

(* The background migrator's tracker path over an all-free bitmap:
   [next_unmigrated_run], capped at the slice, hands out runs consumed in
   [batch]-granule slices, each acquired and flipped with one list call.
   Returns the number of slices. *)
let bitmap_sweep bt ~batch =
  let slices = ref 0 in
  let cursor = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    match Bitmap_tracker.next_unmigrated_run bt ~from:!cursor ~max_len:batch with
    | None -> continue_ := false
    | Some (start, len) ->
        incr slices;
        let take = min len batch in
        let gs = List.init take (fun i -> start + i) in
        let wip =
          List.fold_right2
            (fun g d acc -> if d = Tracker.Migrate then g :: acc else acc)
            gs (Bitmap_tracker.try_acquire bt gs) []
        in
        Bitmap_tracker.mark_migrated bt wip;
        cursor := start + take
  done;
  !slices

(* Background slice size of the sweeps: the simulated systems' default
   [bg_batch]. *)
let sweep_batch = 256

let migpath () =
  say "\n######## Migration path (wall-clock) ########";
  let open Bullfrog_db in
  let time f =
    let t0 = Unix.gettimeofday () in
    f ();
    Unix.gettimeofday () -. t0
  in
  let best_of_3 mk =
    Gc.compact ();
    let t = ref infinity in
    for _ = 1 to 3 do
      t := min !t (mk ())
    done;
    !t
  in
  (* -- scan + acquire + commit: sweep an all-free bitmap to completion -- *)
  let granules =
    match profile with Fast -> 200_000 | Standard -> 1_000_000 | Full -> 4_000_000
  in
  let sweep_t =
    best_of_3 (fun () ->
        let bt = Bitmap_tracker.create ~size:granules () in
        time (fun () -> ignore (bitmap_sweep bt ~batch:sweep_batch : int)))
  in
  let sweep_gps = float_of_int granules /. sweep_t in
  say "  scan+acquire  %10.0f granules/s   (%d-granule slices)" sweep_gps sweep_batch;
  (* -- bulk load: unique-indexed heap, reserve then row-at-a-time insert -- *)
  let nrows =
    match profile with Fast -> 100_000 | Standard -> 400_000 | Full -> 1_000_000
  in
  let rows = Array.init nrows (fun k -> [| Value.Int k; Value.Int (k * 7); Value.Int (k land 255) |]) in
  let schema =
    Schema.make
      [|
        { Schema.name = "a"; ty = Bullfrog_sql.Ast.T_int; not_null = true; default = None };
        { Schema.name = "b"; ty = Bullfrog_sql.Ast.T_int; not_null = false; default = None };
        { Schema.name = "c"; ty = Bullfrog_sql.Ast.T_int; not_null = false; default = None };
      |]
  in
  let load_t =
    best_of_3 (fun () ->
        let heap = Heap.create ~tbl_id:0 ~name:"bulk" schema in
        Heap.add_index heap (Index.create ~name:"bulk_pk" ~key_cols:[| 0 |] ~unique:true ());
        time (fun () ->
            Heap.reserve heap nrows;
            Array.iter (fun r -> ignore (Heap.insert heap r : int)) rows))
  in
  let load_rps = float_of_int nrows /. load_t in
  say "  bulk load     %10.0f rows/s" load_rps;
  (* -- eager copy: Eager.migrate of a 1:1 projection into a keyed table -- *)
  let esrc =
    match profile with Fast -> 50_000 | Standard -> 200_000 | Full -> 500_000
  in
  let spec =
    Migration.make ~name:"copy"
      [
        {
          Migration.stmt_name = "copy";
          outputs =
            [
              {
                Migration.out_name = "dst";
                out_create =
                  Some
                    (Bullfrog_sql.Parser.parse_one
                       "CREATE TABLE dst (a INT PRIMARY KEY, s INT)");
                out_population = Bullfrog_sql.Parser.parse_select "SELECT a, b + c FROM src";
                out_indexes = [];
              };
            ];
        };
      ]
  in
  let alloc = ref 0.0 in
  let copy_t =
    best_of_3 (fun () ->
        let db = Database.create () in
        ignore
          (Database.exec db "CREATE TABLE src (a INT PRIMARY KEY, b INT, c INT)"
            : Executor.result);
        let src = Catalog.find_table_exn db.Database.catalog "src" in
        for k = 0 to esrc - 1 do
          ignore (Heap.insert src [| Value.Int k; Value.Int (k * 3); Value.Int (k land 63) |] : int)
        done;
        let a0 = Gc.allocated_bytes () in
        let t = time (fun () -> ignore (Eager.migrate db spec : Eager.outcome)) in
        alloc := Gc.allocated_bytes () -. a0;
        t)
  in
  let copy_rps = float_of_int esrc /. copy_t in
  say "  eager copy    %10.0f rows/s   %7.1f MB allocated" copy_rps (!alloc /. 1e6);
  (* -- lazy candidates: one lazy [grp = $1] statement through Lazy_db on
     a bitmap-tracked input with no index on grp, over half the groups
     (the migrating phase of a regroup) -- *)
  let lrows, groups =
    match profile with Fast -> (20_000, 500) | Standard -> (80_000, 2_000) | Full -> (200_000, 5_000)
  in
  let lstmts = groups / 2 in
  let order =
    let rng = Rng.create seed in
    let a = Array.init groups Fun.id in
    for i = groups - 1 downto 1 do
      let j = Rng.int rng (i + 1) in
      let x = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- x
    done;
    Array.sub a 0 lstmts
  in
  let lazy_t =
    best_of_3 (fun () ->
        let db = Database.create () in
        ignore
          (Database.exec db "CREATE TABLE src (id INT PRIMARY KEY, grp INT, v INT)"
            : Executor.result);
        let src = Catalog.find_table_exn db.Database.catalog "src" in
        for k = 0 to lrows - 1 do
          ignore (Heap.insert src [| Value.Int k; Value.Int (k * 7919 mod groups); Value.Int k |] : int)
        done;
        let ld = Lazy_db.create db in
        ignore
          (Lazy_db.start_migration ld
             (Migration.make ~name:"regroup"
                [ Migration.statement_of_sql "CREATE TABLE dst AS (SELECT grp, id, v FROM src)" ])
            : Migrate_exec.t);
        time (fun () ->
            Array.iter
              (fun g ->
                ignore
                  (Lazy_db.exec ld ~params:[| Value.Int g |] "SELECT id, v FROM dst WHERE grp = $1"
                    : Executor.result))
              order))
  in
  let lazy_us = lazy_t *. 1e6 /. float_of_int lstmts in
  say "  lazy cand.    %10.1f us/stmt   (%d rows, %d groups, %d statements)" lazy_us lrows
    groups lstmts;
  let oc = open_out (out_path "BENCH_migration_path.json") in
  Printf.fprintf oc
    {|{
  "benchmark": "migration_path",
  "profile": "%s",
  "seed": %d,
  "note": "wall-clock, best of 3; each figure times the path the engine runs",
  "scan_acquire": {
    "path": "next_unmigrated_run -> try_acquire -> mark_migrated, list forms",
    "granules": %d,
    "slice": %d,
    "granules_per_sec": %.0f
  },
  "bulk_load": {
    "path": "Heap.reserve + Heap.insert per row",
    "rows": %d,
    "unique_indexes": 1,
    "rows_per_sec": %.0f
  },
  "eager_copy": {
    "path": "Eager.migrate, one keyed output",
    "rows": %d,
    "rows_per_sec": %.0f,
    "alloc_mb": %.1f
  },
  "lazy_candidates": {
    "path": "Lazy_db.exec grp = $1 on a bitmap input without an index on grp",
    "rows": %d,
    "groups": %d,
    "statements": %d,
    "us_per_stmt": %.1f
  }
}
|}
    (match profile with Fast -> "fast" | Standard -> "standard" | Full -> "full")
    seed granules sweep_batch sweep_gps nrows load_rps esrc copy_rps (!alloc /. 1e6)
    lrows groups lstmts lazy_us;
  close_out oc;
  say "  wrote %s" (out_path "BENCH_migration_path.json")

(* ------------------------------------------------------------------ *)

(* Crash-recovery: the deterministic fault sweep (every crash point per
   scenario must recover to the oracle result), redo-log replay
   throughput, and tracker-rebuild latency.  Wall-clock. *)
let recovery_bench () =
  say "\n=== recovery: fault sweep + redo replay (BENCH_recovery.json) ===";
  let module Db = Bullfrog_db.Database in
  let module Redo = Bullfrog_db.Redo_log in
  (* -- fault sweep -- *)
  let cells =
    match profile with
    | Fast -> Fault_sweep.run_bounded ()
    | Standard | Full -> Fault_sweep.run_sweep ()
  in
  let fired = Fault_sweep.fired_count cells in
  let failed = List.filter (fun c -> not c.Fault_sweep.c_ok) cells in
  say "  sweep: %d cells (%d crashed+recovered, %d vacuous), %d failed"
    (List.length cells) fired
    (List.length cells - fired)
    (List.length failed);
  List.iter (fun c -> say "  FAIL %s" (Fault_sweep.pp_cell c)) failed;
  (* -- replay throughput -- *)
  let nrows = match profile with Fast -> 2_000 | Standard -> 20_000 | Full -> 50_000 in
  let db = Db.create () in
  ignore
    (Db.exec_script db "CREATE TABLE w (id INT PRIMARY KEY, grp INT, v TEXT)"
      : Bullfrog_db.Executor.result list);
  Db.with_txn db (fun txn ->
      for i = 0 to nrows - 1 do
        ignore
          (Db.exec_in db txn
             ~params:
               [|
                 Bullfrog_db.Value.Int i;
                 Bullfrog_db.Value.Int (i mod 97);
                 Bullfrog_db.Value.Str (Printf.sprintf "row-%08d" i);
               |]
             "INSERT INTO w VALUES ($1, $2, $3)"
            : Bullfrog_db.Executor.result)
      done);
  for i = 0 to (nrows / 10) - 1 do
    ignore
      (Db.exec db
         ~params:[| Bullfrog_db.Value.Int (i * 7 mod nrows) |]
         "UPDATE w SET grp = 0 WHERE id = $1"
        : Bullfrog_db.Executor.result)
  done;
  for i = 0 to (nrows / 20) - 1 do
    ignore
      (Db.exec db
         ~params:[| Bullfrog_db.Value.Int (i * 13 mod nrows) |]
         "DELETE FROM w WHERE id = $1"
        : Bullfrog_db.Executor.result)
  done;
  let bytes = Redo.serialize db.Db.redo in
  let t0 = Unix.gettimeofday () in
  let log = Redo.deserialize bytes in
  let db' = Db.replay log in
  let replay_s = Unix.gettimeofday () -. t0 in
  let records = Redo.length log in
  ignore (db' : Db.t);
  say "  replay: %d commit records (%.1f MB) in %.3fs — %.0f records/s"
    records
    (float_of_int (String.length bytes) /. 1e6)
    replay_s
    (float_of_int records /. replay_s);
  (* -- tracker rebuild latency -- *)
  let mig_rows = match profile with Fast -> 4_000 | Standard -> 20_000 | Full -> 50_000 in
  let mdb = Db.create () in
  ignore
    (Db.exec_script mdb "CREATE TABLE src (id INT PRIMARY KEY, grp INT, v TEXT)"
      : Bullfrog_db.Executor.result list);
  Db.with_txn mdb (fun txn ->
      for i = 0 to mig_rows - 1 do
        ignore
          (Db.exec_in mdb txn
             ~params:
               [|
                 Bullfrog_db.Value.Int i;
                 Bullfrog_db.Value.Int (i mod 32);
                 Bullfrog_db.Value.Str (Printf.sprintf "v%d" i);
               |]
             "INSERT INTO src VALUES ($1, $2, $3)"
            : Bullfrog_db.Executor.result)
      done);
  let bf = Lazy_db.create mdb in
  let spec =
    Migration.make ~name:"copy" ~drop_old:[ "src" ]
      [
        Migration.statement_of_sql ~name:"copy"
          "CREATE TABLE dst AS (SELECT id, grp, v FROM src)";
      ]
  in
  ignore (Lazy_db.start_migration bf ~page_size:16 spec : Migrate_exec.t);
  (* migrate roughly half before the simulated crash *)
  let half = mig_rows / 16 / 2 in
  let done_ = ref 0 in
  while !done_ < half && Lazy_db.background_step bf ~batch:32 > 0 do
    done_ := !done_ + 32
  done;
  let rt = match Lazy_db.active bf with Some rt -> rt | None -> assert false in
  let t1 = Unix.gettimeofday () in
  let _rt', report = Recovery.recover rt in
  let rebuild_s = Unix.gettimeofday () -. t1 in
  say "  rebuild: %d marks restored (%d dropped) in %.1fms"
    report.Recovery.rb_restored report.Recovery.rb_dropped (rebuild_s *. 1e3);
  let oc = open_out (out_path "BENCH_recovery.json") in
  Printf.fprintf oc
    {|{
  "benchmark": "recovery",
  "profile": "%s",
  "seed": %d,
  "fault_sweep": {
    "mode": "%s",
    "cells": %d,
    "crashed_and_recovered": %d,
    "vacuous": %d,
    "failed": %d,
    "crash_points": %d,
    "scenarios": [%s]
  },
  "redo_replay": {
    "commit_records": %d,
    "log_bytes": %d,
    "replay_seconds": %.4f,
    "records_per_sec": %.0f,
    "mb_per_sec": %.2f
  },
  "tracker_rebuild": {
    "input_rows": %d,
    "marks_restored": %d,
    "marks_dropped": %d,
    "rebuild_ms": %.3f
  }
}
|}
    (match profile with Fast -> "fast" | Standard -> "standard" | Full -> "full")
    seed
    (match profile with Fast -> "bounded" | _ -> "full")
    (List.length cells) fired
    (List.length cells - fired)
    (List.length failed) Fault.count
    (String.concat ", "
       (List.map (fun s -> Printf.sprintf "%S" s) Fault_sweep.scenario_names))
    records (String.length bytes) replay_s
    (float_of_int records /. replay_s)
    (float_of_int (String.length bytes) /. 1e6 /. replay_s)
    mig_rows report.Recovery.rb_restored report.Recovery.rb_dropped
    (rebuild_s *. 1e3);
  close_out oc;
  say "  wrote %s" (out_path "BENCH_recovery.json");
  if failed <> [] then failwith "recovery fault sweep found divergent cells"

(* ------------------------------------------------------------------ *)

(* Observability: the instrumentation must be ~free when off.  Two
   claims are checked and recorded:
   1. disabled-path overhead: (ns per disabled [Counters.bump]) x (obs
      calls per operation) is <2% of the operation itself on the two
      hottest paths — the prepared point SELECT (qpath) and the bitmap
      sweep (migpath);
   2. a full lazy migration (flip -> lazy granules -> background drain
      -> finalize) exports a well-formed Chrome trace. *)
let obs_bench () =
  say "\n=== observability: disabled-path overhead + trace export (BENCH_observability.json) ===";
  let open Bullfrog_db in
  let was_counting = Obs.Counters.enabled () in
  Obs.Counters.set_enabled false;
  Obs.Trace.disable ();
  let time f =
    let t0 = Unix.gettimeofday () in
    f ();
    Unix.gettimeofday () -. t0
  in
  let best_of_3 mk =
    let t = ref infinity in
    for _ = 1 to 3 do
      t := min !t (mk ())
    done;
    !t
  in
  (* -- ns per disabled bump, two instruments:
     [bump_ns] is the marginal cost inside a carrier loop doing
     memory-read + arithmetic work (what a real call site looks like —
     the atomic load and branch overlap with neighbouring work on a
     superscalar core); [bump_ub_ns] is the serial cost of a bump-only
     loop, a strict upper bound no overlap can beat. -- *)
  let iters = match profile with Fast -> 10_000_000 | _ -> 50_000_000 in
  let probe = Obs.Counters.make "bench.obs.probe" in
  let carrier = Bytes.make 4096 '\x00' in
  let sink = ref 0 in
  let body i =
    sink := !sink + Char.code (Bytes.unsafe_get carrier (i land 4095)) + (i land 7)
  in
  let loop_carrier_bump () =
    time (fun () ->
        for i = 1 to iters do
          Obs.Counters.bump probe;
          body i
        done)
  in
  let loop_carrier () =
    time (fun () ->
        for i = 1 to iters do
          body i
        done)
  in
  let loop_bump_only () =
    time (fun () ->
        for _ = 1 to iters do
          Obs.Counters.bump probe
        done)
  in
  let loop_empty () =
    time (fun () ->
        for _ = 1 to iters do
          ignore (Sys.opaque_identity probe)
        done)
  in
  (* Each round measures its pair back-to-back, so scheduler and
     frequency drift hit both sides alike; the minimum round diff is the
     least-noise estimate of the (deterministic) cost, the median shows
     what a typical round saw.  21 rounds (was 7): on the shared
     single-core container the min-of-rounds needs a wider window to
     reliably catch a quiet slice — with 7 the estimate swung 2x between
     runs, straddling the 2% gate below on scheduler luck alone. *)
  let rounds = 21 in
  let paired f g =
    let diffs =
      Array.init rounds (fun _ ->
          (f () -. g ()) /. float_of_int iters *. 1e9)
    in
    Array.sort compare diffs;
    (diffs.(0), diffs.(rounds / 2))
  in
  let bump_ns, bump_med_ns = paired loop_carrier_bump loop_carrier in
  let serial_min, serial_med = paired loop_bump_only loop_empty in
  let bump_ub_ns = max bump_med_ns serial_med in
  ignore (Sys.opaque_identity !sink);
  say "  disabled bump   %.2f ns/call in context (median %.2f), %.2f ns/call serial (median %.2f)"
    bump_ns bump_med_ns serial_min serial_med;
  (* -- qpath: prepared point SELECT -- *)
  let rows = 1_000 in
  let db = Database.create () in
  ignore (Database.exec db "CREATE TABLE kv (k INT PRIMARY KEY, v TEXT, w INT)"
      : Executor.result);
  Database.with_txn db (fun txn ->
      for k = 0 to rows - 1 do
        ignore
          (Executor.exec_stmt (Database.exec_ctx db) txn
             (Bullfrog_sql.Parser.parse_one
                (Printf.sprintf "INSERT INTO kv VALUES (%d, 'val%d', %d)" k k (k * 3)))
            : Executor.result)
      done);
  let sql = "SELECT v, w FROM kv WHERE k = $1 AND w >= 0" in
  let run_ops n =
    for i = 0 to n - 1 do
      ignore (Database.exec db ~params:[| Value.Int (i mod rows) |] sql : Executor.result)
    done
  in
  run_ops 1_000 (* warm the statement/plan caches *);
  let qops = match profile with Fast -> 20_000 | _ -> 100_000 in
  let q_op_ns = best_of_3 (fun () -> time (fun () -> run_ops qops)) /. float_of_int qops *. 1e9 in
  Obs.Counters.set_enabled true;
  let q_on_ns = best_of_3 (fun () -> time (fun () -> run_ops qops)) /. float_of_int qops *. 1e9 in
  let s0 = Obs.Counters.snapshot () in
  run_ops 1_000;
  let s1 = Obs.Counters.snapshot () in
  Obs.Counters.set_enabled false;
  let counted d = List.fold_left (fun acc (_, v) -> acc + v) 0 d in
  (* Counter-event sum per op: stmt-cache hit + plan-cache hit + index
     probe + chain hops.  Charging one obs call per event over-counts
     slightly (the probe and its hops share one enabled-check), which
     keeps the estimate conservative. *)
  let q_calls = float_of_int (counted (Obs.Counters.diff s1 s0)) /. 1_000.0 in
  let q_overhead = bump_ns *. q_calls /. q_op_ns *. 100.0 in
  let q_overhead_ub = bump_ub_ns *. q_calls /. q_op_ns *. 100.0 in
  say "  qpath   %8.0f ns/op   %5.2f obs events/op   overhead %.4f%% (<=%.4f%%)" q_op_ns
    q_calls q_overhead q_overhead_ub;
  say "  qpath   enabled A/B: %8.0f ns/op counting  (%+.1f%%)" q_on_ns
    ((q_on_ns -. q_op_ns) /. q_op_ns *. 100.0);
  (* -- migpath: the background migrator's bitmap sweep ([bitmap_sweep]).
     Skip tallies are batched into one [add] per [next_unmigrated_run]
     call (at most two obs calls per slice), so calls/granule comes from
     the slice count; the counter's value still reports every word
     skipped. -- *)
  let granules = match profile with Fast -> 200_000 | _ -> 1_000_000 in
  let slices = ref 0 in
  let sweep () =
    let bt = Bitmap_tracker.create ~size:granules () in
    time (fun () -> slices := bitmap_sweep bt ~batch:sweep_batch)
  in
  let m_op_ns = best_of_3 sweep /. float_of_int granules *. 1e9 in
  Obs.Counters.set_enabled true;
  let s0 = Obs.Counters.snapshot () in
  ignore (sweep () : float);
  let s1 = Obs.Counters.snapshot () in
  Obs.Counters.set_enabled false;
  let m_events =
    float_of_int (counted (Obs.Counters.diff s1 s0)) /. float_of_int granules
  in
  let m_calls = 2.0 *. float_of_int !slices /. float_of_int granules in
  let m_overhead = bump_ub_ns *. m_calls /. m_op_ns *. 100.0 in
  say "  migpath %8.2f ns/granule   %.5f obs calls/granule (%.3f events)   overhead %.4f%%"
    m_op_ns m_calls m_events m_overhead;
  (* -- trace: full lazy migration, exported and validated -- *)
  Obs.Trace.enable ~capacity:65_536 ();
  let db2 = Database.create () in
  ignore (Database.exec db2 "CREATE TABLE src (id INT PRIMARY KEY, a INT, b INT)"
      : Executor.result);
  let nsrc = 3_000 in
  Database.with_txn db2 (fun txn ->
      for k = 0 to nsrc - 1 do
        ignore
          (Executor.exec_stmt (Database.exec_ctx db2) txn
             (Bullfrog_sql.Parser.parse_one
                (Printf.sprintf "INSERT INTO src VALUES (%d, %d, %d)" k (k * 2) (k * 3)))
            : Executor.result)
      done);
  let bf = Lazy_db.create db2 in
  let spec =
    Migration.make ~name:"obs_mig" ~drop_old:[ "src" ]
      [
        Migration.statement_of_sql ~name:"dst"
          "CREATE TABLE dst AS (SELECT id, a + b AS s FROM src)";
      ]
  in
  ignore (Lazy_db.start_migration bf spec : Migrate_exec.t);
  for i = 0 to 49 do
    ignore
      (Lazy_db.exec bf (Printf.sprintf "SELECT s FROM dst WHERE id = %d" (i * 53 mod nsrc))
        : Executor.result)
  done;
  let rec drain () = if Lazy_db.background_step bf ~batch:256 > 0 then drain () in
  drain ();
  Lazy_db.finalize bf;
  let events = Obs.Trace.export () in
  let spans =
    match Obs.Trace.validate events with
    | Ok n -> n
    | Error msg -> failwith ("observability: invalid trace: " ^ msg)
  in
  List.iter
    (fun name ->
      if not (List.exists (fun (e : Obs.Trace.event) -> e.Obs.Trace.ev_name = name) events)
      then failwith ("observability: trace is missing the " ^ name ^ " span"))
    [ "flip"; "lazy-migrate"; "bg-batch"; "finalize" ];
  let trace_file = out_path "migration.trace.json" in
  let n_events =
    match Obs.Trace.write_chrome trace_file with
    | Ok n -> n
    | Error msg -> failwith ("observability: trace export failed: " ^ msg)
  in
  Obs.Trace.disable ();
  Obs.Counters.set_enabled was_counting;
  say "  trace   %d event(s), %d complete span(s) -> %s (chrome://tracing)" n_events spans
    trace_file;
  (* -- wire: the same question asked of the full server stack.  Serial
     point SELECTs over a loopback socket, three obs configurations in
     paired alternating rounds (min-of-diffs, signed: a negative value
     is noise below the resolution of the pairing).  The
     product default is flight recorder on, everything else off — that
     pairing is the wire disabled-path gate (<2%); counters + tracing +
     flight all on is the enabled-path gate (<5%). -- *)
  let wire_off_us, (wire_disabled_pct, wire_disabled_med), (wire_enabled_pct, wire_enabled_med),
      wire_ops, wire_rounds =
    let module Server = Bullfrog_server.Server in
    let module Client = Bullfrog_server.Client in
    let wdb = Database.create () in
    ignore (Database.exec wdb "CREATE TABLE wkv (k INT PRIMARY KEY, v TEXT)"
        : Executor.result);
    Database.with_txn wdb (fun txn ->
        for k = 0 to 255 do
          ignore
            (Executor.exec_stmt (Database.exec_ctx wdb) txn
               (Bullfrog_sql.Parser.parse_one
                  (Printf.sprintf "INSERT INTO wkv VALUES (%d, 'v%d')" k k))
              : Executor.result)
        done);
    let server = Server.start (Frontend.of_database wdb) in
    let cl = Client.connect ~port:(Server.port server) () in
    let ops = match profile with Fast -> 400 | _ -> 1_500 in
    let run_ops () =
      time (fun () ->
          for i = 0 to ops - 1 do
            ignore
              (Client.request cl
                 (Bullfrog_server.Protocol.Exec
                    (Printf.sprintf "SELECT v FROM wkv WHERE k = %d" (i * 131 land 255)))
                : Bullfrog_server.Protocol.response)
          done)
    in
    let all_off () =
      Obs.Counters.set_enabled false;
      Obs.Trace.disable ();
      Obs.Flight.set_enabled false
    in
    let flight_only () =
      all_off ();
      Obs.Flight.set_enabled true
    in
    let full_on () =
      Obs.Counters.set_enabled true;
      Obs.Trace.enable ~capacity:16_384 ();
      Obs.Flight.set_enabled true
    in
    all_off ();
    ignore (run_ops () : float) (* warm the sockets and statement caches *);
    (* Same lesson as the bump instrument above: on a shared container
       the min-of-rounds needs a wide window to catch a quiet slice —
       with 5 rounds the wire estimate swung between 0%% and 8%% on
       scheduler luck alone. *)
    let wrounds = 21 in
    let paired_wire label set_instrumented =
      let diffs = Array.make wrounds 0.0 in
      let best_off = ref infinity in
      for i = 0 to wrounds - 1 do
        Gc.full_major ();
        all_off ();
        let t_off = run_ops () in
        set_instrumented ();
        let t_on = run_ops () in
        all_off ();
        diffs.(i) <- t_on -. t_off;
        if t_off < !best_off then best_off := t_off
      done;
      Array.sort compare diffs;
      let pct d = d /. !best_off *. 100.0 in
      say "    wire %-11s min %+.2f%%  median %+.2f%%" label (pct diffs.(0))
        (pct diffs.(wrounds / 2));
      ((pct diffs.(0), pct diffs.(wrounds / 2)), !best_off)
    in
    let disabled_pct, off_a = paired_wire "flight-only" flight_only in
    let enabled_pct, off_b = paired_wire "full-obs" full_on in
    Client.close cl;
    Server.stop server;
    ( min off_a off_b /. float_of_int ops *. 1e6,
      disabled_pct,
      enabled_pct,
      ops,
      wrounds )
  in
  Obs.Flight.set_enabled true;
  Obs.Trace.disable ();
  Obs.Trace.clear ();
  Obs.Counters.set_enabled was_counting;
  say
    "  wire    %8.1f us/op all-off   flight-only min %+.2f%% median %+.2f%% (<2%%)   full obs \
     min %+.2f%% median %+.2f%% (<5%%)"
    wire_off_us wire_disabled_pct wire_disabled_med wire_enabled_pct wire_enabled_med;
  let oc = open_out (out_path "BENCH_observability.json") in
  Printf.fprintf oc
    {|{
  "benchmark": "observability",
  "profile": "%s",
  "seed": %d,
  "overhead_budget_pct": 2.0,
  "disabled_bump_ns": {
    "in_context_min": %.3f,
    "in_context_median": %.3f,
    "serial_min": %.3f,
    "serial_median": %.3f
  },
  "qpath": {
    "op": "prepared point SELECT (cached plan, compiled closures)",
    "op_ns": %.1f,
    "obs_events_per_op": %.2f,
    "overhead_pct": %.4f,
    "overhead_pct_serial_bound": %.4f,
    "counters_enabled_op_ns": %.1f
  },
  "migpath": {
    "op": "bitmap sweep granule (word-level scan + list acquire/flip, %d-granule slices)",
    "op_ns": %.3f,
    "obs_calls_per_op": %.5f,
    "counter_events_per_op": %.3f,
    "overhead_pct_serial_bound": %.4f
  },
  "trace": {
    "scenario": "flip -> 50 lazy point queries -> background drain -> finalize",
    "file": "%s",
    "events": %d,
    "complete_spans": %d
  },
  "wire": {
    "op": "serial point SELECT over the loopback wire server",
    "ops_per_round": %d,
    "paired_rounds": %d,
    "all_off_op_us": %.1f,
    "flight_only_overhead_pct": %.3f,
    "flight_only_overhead_median_pct": %.3f,
    "full_obs_overhead_pct": %.3f,
    "full_obs_overhead_median_pct": %.3f,
    "budget_disabled_pct": 2.0,
    "budget_enabled_pct": 5.0
  }
}
|}
    (match profile with Fast -> "fast" | Standard -> "standard" | Full -> "full")
    seed bump_ns bump_med_ns serial_min serial_med q_op_ns q_calls q_overhead
    q_overhead_ub q_on_ns sweep_batch m_op_ns m_calls m_events m_overhead
    (Filename.basename trace_file) n_events
    spans
    wire_ops wire_rounds wire_off_us wire_disabled_pct wire_disabled_med wire_enabled_pct
    wire_enabled_med;
  close_out oc;
  say "  wrote %s" (out_path "BENCH_observability.json");
  (* qpath is gated on the in-context marginal cost — its call sites sit
     between hash probes whose latency the disabled branch overlaps with;
     the serial no-overlap bound is reported alongside.  migpath is gated
     on the serial bound: with skip tallies batched into one add per
     scan call, even the conservative charge is far under budget. *)
  if q_overhead >= 2.0 || m_overhead >= 2.0 then
    failwith "observability: disabled-path overhead exceeds the 2% budget";
  (* The wire gates measure the product defaults: the always-on flight
     recorder must be invisible (<2%) because it is fed only from cold
     paths, and the fully-instrumented server — counters, per-request
     distributed tracing, per-class latency histograms — must stay
     under 5% of a wire round trip. *)
  if wire_disabled_pct >= 2.0 then
    failwith "observability: wire flight-only overhead exceeds the 2% budget";
  if wire_enabled_pct >= 5.0 then
    failwith "observability: wire enabled-path overhead exceeds the 5% budget"

(* -- lint: static-analyzer smoke over the TPC-C migrations plus a
   known-bad overlapping split; fails on any unexpected verdict, so
   `make lint-smoke` is a CI gate, not just a printout. *)
let lint_smoke () =
  let open Bullfrog_db in
  say "\n=== lint: analyzer verdicts over TPC-C migrations ===";
  let db = Database.create () in
  Loader.load ~seed:1 db Tpcc_schema.tiny;
  let expect name cond = if not cond then failwith ("lint smoke: " ^ name) in
  List.iter
    (fun scenario ->
      let v = Tpcc_migrations.preflight db.Database.catalog scenario in
      say "%s" (Mig_lint.format v);
      expect
        (Tpcc_migrations.scenario_name scenario ^ " installs clean")
        (v.Mig_lint.lint_action = Mig_lint.Act_ok);
      expect "no error-severity hazards" (Mig_lint.errors v = []))
    Tpcc_migrations.[ Split; Aggregate; Join ];
  (* expected precision classification (paper §4.3) *)
  let precision_of scenario =
    let v = Tpcc_migrations.preflight db.Database.catalog scenario in
    List.concat_map
      (fun s -> List.map (fun iv -> iv.Mig_lint.iv_precision) s.Mig_lint.sv_inputs)
      v.Mig_lint.lint_stmts
  in
  expect "split is precise" (precision_of Tpcc_migrations.Split = [ Mig_lint.Precise ]);
  expect "aggregate falls back on ol_total"
    (precision_of Tpcc_migrations.Aggregate = [ Mig_lint.Imprecise [ "ol_total" ] ]);
  expect "join is precise on both inputs"
    (precision_of Tpcc_migrations.Join = [ Mig_lint.Precise; Mig_lint.Precise ]);
  (* the known-bad split: overlapping halves of customer *)
  let bad where_a where_b =
    let out n where =
      {
        Migration.out_name = n;
        out_create = None;
        out_population =
          Bullfrog_sql.Parser.parse_select
            (Printf.sprintf "SELECT c_w_id, c_d_id, c_id, c_balance FROM customer WHERE %s" where);
        out_indexes = [];
      }
    in
    Migration.make ~name:"bad_split" ~drop_old:[ "customer" ]
      [
        {
          Migration.stmt_name = "bad_split";
          outputs = [ out "cust_a" where_a; out "cust_b" where_b ];
        };
      ]
  in
  (* halves keyed on the (not-null) PK column: they cover every row but
     overlap on the middle band, so only the Overlap hazard fires *)
  let overlap = Mig_lint.lint db.Database.catalog (bad "c_id <= 20" "c_id >= 10") in
  say "%s" (Mig_lint.format overlap);
  expect "overlapping split demands ON CONFLICT"
    (overlap.Mig_lint.lint_action = Mig_lint.Act_on_conflict);
  let gap = Mig_lint.lint db.Database.catalog (bad "c_id < 10" "c_id > 20") in
  expect "non-covering split over a dropped table is rejected"
    (gap.Mig_lint.lint_action = Mig_lint.Act_reject);
  say "  lint smoke OK: 3 TPC-C migrations clean, bad splits caught"

(* ------------------------------------------------------------------ *)
(* Invertibility analyzer + instant rollback (§4.2j): static analysis   *)
(* cost per TPC-C spec, the rollback flip latency under a live write    *)
(* workload, client read tail latency while the backward migration and  *)
(* stale-row purges drain, and a row-exactness check against a          *)
(* never-migrated oracle.                                               *)
(* ------------------------------------------------------------------ *)

let invert_smoke () =
  let open Bullfrog_db in
  say "\n=== invert: backward derivation + instant rollback (BENCH_invert.json) ===";
  let expect name cond = if not cond then failwith ("invert smoke: " ^ name) in
  (* --- static analysis cost over the TPC-C specs --- *)
  let tpcc = Database.create () in
  Loader.load ~seed:1 tpcc Tpcc_schema.tiny;
  let analysis =
    List.map
      (fun scenario ->
        let reps = 50 in
        let t0 = Unix.gettimeofday () in
        let v = ref (Tpcc_migrations.preflight tpcc.Database.catalog scenario) in
        for _ = 2 to reps do
          v := Tpcc_migrations.preflight tpcc.Database.catalog scenario
        done;
        let us = 1e6 *. (Unix.gettimeofday () -. t0) /. float_of_int reps in
        let name = Tpcc_migrations.scenario_name scenario in
        say "  %-12s analyze %7.1fus  invertible=%b" name us
          (Mig_lint.invertible !v);
        (name, us, Mig_lint.invertible !v))
      Tpcc_migrations.[ Split; Aggregate; Join ]
  in
  expect "split invertible"
    (match analysis with (_, _, i) :: _ -> i | [] -> false);
  expect "join not invertible"
    (match List.rev analysis with (_, _, i) :: _ -> not i | [] -> false);
  (* --- rollback under load --- *)
  let rows, ops = match profile with Fast -> 2_000, 400 | Standard | Full -> 20_000, 4_000 in
  let db = Database.create () in
  ignore
    (Database.exec db "CREATE TABLE t (id INT PRIMARY KEY, k INT NOT NULL, v TEXT)"
      : Executor.result);
  Database.with_txn db (fun txn ->
      for i = 0 to rows - 1 do
        ignore
          (Database.exec_in db txn
             ~params:[| Value.Int i; Value.Int (i mod 97); Value.Str "payload" |]
             "INSERT INTO t VALUES ($1, $2, $3)"
            : Executor.result)
      done);
  let bf = Lazy_db.create db in
  let spec =
    Migration.make ~name:"tcopy" ~drop_old:[ "t" ]
      [
        Migration.statement_of_sql ~name:"tcopy"
          "CREATE TABLE t2 AS (SELECT id, k, v FROM t)"
          ~extra_ddl:[ "CREATE UNIQUE INDEX t2_id ON t2 (id)" ];
      ]
  in
  ignore (Lazy_db.start_migration bf ~page_size:16 spec : Migrate_exec.t);
  let rng = Random.State.make [| seed; 42 |] in
  let edited = Hashtbl.create 64 in
  (* forward phase: migrate ~half in the background while clients read
     and write through the new schema *)
  let half = rows / 16 / 2 in
  let done_ = ref 0 in
  while !done_ < half && Lazy_db.background_step bf ~batch:8 > 0 do
    done_ := !done_ + 8
  done;
  for _ = 1 to ops / 4 do
    let id = Random.State.int rng rows in
    if Random.State.bool rng then
      ignore
        (Lazy_db.exec bf (Printf.sprintf "SELECT * FROM t2 WHERE id = %d" id)
          : Executor.result)
    else begin
      Hashtbl.replace edited id ();
      ignore
        (Lazy_db.exec bf (Printf.sprintf "UPDATE t2 SET v = 'edited' WHERE id = %d" id)
          : Executor.result)
    end
  done;
  (* the flip itself: instant, independent of table size *)
  let t0 = Unix.gettimeofday () in
  (match Lazy_db.rollback_migration bf with
  | Some _ -> ()
  | None -> failwith "invert smoke: expected a backward runtime");
  let flip_ms = 1e3 *. (Unix.gettimeofday () -. t0) in
  say "  rollback flip: %.2fms over %d rows (half migrated, %d client ops)"
    flip_ms rows (ops / 4);
  (* backward phase: client reads against the restored old schema while
     the rollback drains; sample per-read latency *)
  let lat = Array.make ops 0.0 in
  for i = 0 to ops - 1 do
    let id = Random.State.int rng rows in
    let t0 = Unix.gettimeofday () in
    ignore
      (Lazy_db.exec bf (Printf.sprintf "SELECT * FROM t WHERE id = %d" id)
        : Executor.result);
    lat.(i) <- 1e6 *. (Unix.gettimeofday () -. t0);
    if i mod 4 = 0 then ignore (Lazy_db.background_step bf ~batch:8 : int)
  done;
  let drain_t0 = Unix.gettimeofday () in
  while Lazy_db.background_step bf ~batch:64 > 0 do
    ()
  done;
  let drain_s = Unix.gettimeofday () -. drain_t0 in
  Lazy_db.finalize bf;
  Array.sort compare lat;
  let pct p = lat.(min (ops - 1) (int_of_float (p *. float_of_int ops))) in
  say "  reads during rollback: p50=%.0fus p99=%.0fus (%d ops); drain %.2fs"
    (pct 0.50) (pct 0.99) ops drain_s;
  (* --- row-exactness vs never-migrated oracle --- *)
  let odb = Database.create () in
  ignore
    (Database.exec odb "CREATE TABLE t (id INT PRIMARY KEY, k INT NOT NULL, v TEXT)"
      : Executor.result);
  Database.with_txn odb (fun txn ->
      for i = 0 to rows - 1 do
        ignore
          (Database.exec_in odb txn
             ~params:
               [|
                 Value.Int i;
                 Value.Int (i mod 97);
                 Value.Str (if Hashtbl.mem edited i then "edited" else "payload");
               |]
             "INSERT INTO t VALUES ($1, $2, $3)"
            : Executor.result)
      done);
  let dump d =
    List.sort compare
      (List.map
         (fun r -> String.concat "|" (List.map Value.to_string (Array.to_list r)))
         (Database.query d "SELECT id, k, v FROM t"))
  in
  expect "row-exact vs oracle" (dump db = dump odb);
  expect "new table dropped" (not (Catalog.exists db.Database.catalog "t2"));
  say "  row-exact after rollback: %d rows, %d survived edits" rows
    (Hashtbl.length edited);
  let oc = open_out (out_path "BENCH_invert.json") in
  Printf.fprintf oc
    {|{
  "benchmark": "invert",
  "profile": "%s",
  "seed": %d,
  "analysis_us": {%s},
  "rollback_under_load": {
    "rows": %d,
    "client_ops": %d,
    "flip_ms": %.3f,
    "read_p50_us": %.1f,
    "read_p99_us": %.1f,
    "drain_seconds": %.3f,
    "row_exact": true
  }
}
|}
    (match profile with Fast -> "fast" | Standard -> "standard" | Full -> "full")
    seed
    (String.concat ", "
       (List.map (fun (n, us, _) -> Printf.sprintf "%S: %.1f" n us) analysis))
    rows ops flip_ms (pct 0.50) (pct 0.99) drain_s;
  close_out oc;
  say "  wrote %s" (out_path "BENCH_invert.json")

(* ------------------------------------------------------------------ *)
(* MVCC microbenchmark: latch-free snapshot point reads vs the          *)
(* lock-manager read path, and read tail latency under an active        *)
(* migration.  Wall-clock only — the virtual-time figures are untouched *)
(* by the storage rewiring (readers stopped paying for locks they never *)
(* logically needed).                                                   *)
(* ------------------------------------------------------------------ *)

let mvcc_bench () =
  let open Bullfrog_db in
  say "\n=== mvcc: latch-free snapshot reads (BENCH_mvcc.json) ===";
  let rows, ops_per_thread, p99_samples, mig_rows =
    match profile with
    | Fast -> (1_000, 10_000, 2_000, 16_000)
    | Standard | Full -> (10_000, 50_000, 10_000, 48_000)
  in
  let db = Database.create () in
  ignore (Database.exec db "CREATE TABLE kv (k INT PRIMARY KEY, v TEXT)" : Executor.result);
  Database.with_txn db (fun txn ->
      for k = 0 to rows - 1 do
        ignore
          (Database.exec_in db txn
             ~params:[| Value.Int k; Value.Str (Printf.sprintf "v%05d" k) |]
             "INSERT INTO kv VALUES ($1, $2)"
            : Executor.result)
      done);
  let heap = Catalog.find_table_exn db.Database.catalog "kv" in
  let idx =
    match List.find_opt Index.is_unique (Heap.indexes heap) with
    | Some i -> i
    | None -> failwith "mvcc bench: kv has no unique index"
  in
  (* The two storage-level point-read paths under comparison.  Each
     thread walks a disjoint key slice, so the lock-manager run measures
     pure bookkeeping overhead (mutex + hashtable + release), not lock
     waits — the fairest possible baseline. *)
  let locked_read lm ~owner k =
    match Index.find idx [| Value.Int k |] with
    | [ tid ] ->
        Lock_manager.acquire lm ~owner (heap.Heap.tbl_id, tid);
        let r = Heap.get heap tid in
        Lock_manager.release_all lm ~owner;
        r
    | _ -> None
  in
  let snapshot_read ~reader k =
    match Index.find idx [| Value.Int k |] with
    | [ tid ] -> Heap.snapshot_get heap ~ts:(Mvcc.now ()) ~reader tid
    | _ -> None
  in
  (match (locked_read (Lock_manager.create ()) ~owner:999 7, snapshot_read ~reader:999 7) with
  | Some a, Some b when a = b -> ()
  | _ -> failwith "mvcc bench: point-read paths disagree");
  let run_threads n (f : int -> unit) =
    let threads = List.init n (fun i -> Thread.create f i) in
    List.iter Thread.join threads
  in
  let throughput n body =
    let t0 = Unix.gettimeofday () in
    run_threads n (fun i ->
        let slice = rows / n in
        let base = i * slice in
        for j = 0 to ops_per_thread - 1 do
          body i (base + (j mod slice))
        done);
    float_of_int (n * ops_per_thread) /. (Unix.gettimeofday () -. t0) /. 1e6
  in
  let thread_counts = [ 1; 2; 4; 8 ] in
  let scaling =
    List.map
      (fun n ->
        let lm = Lock_manager.create () in
        let locked =
          throughput n (fun i k -> ignore (locked_read lm ~owner:(1000 + i) k : Heap.row option))
        in
        let snap =
          throughput n (fun i k -> ignore (snapshot_read ~reader:(1000 + i) k : Heap.row option))
        in
        say "  %d thread(s): locked %.2f Mops/s, snapshot %.2f Mops/s (%.1fx)" n
          locked snap (snap /. locked);
        (n, locked, snap))
      thread_counts
  in
  (* Tail latency through the full query path, idle vs while a lazy
     migration of an unrelated table commits granule moves (each commit
     publishes the MVCC clock) and vacuum trims chains concurrently.
     Latch-free readers should not feel the flips: the acceptance bar is
     active p99 <= 2x idle p99. *)
  let percentile_us samples p =
    let a = Array.copy samples in
    Array.sort compare a;
    a.(min (Array.length a - 1) (int_of_float (p *. float_of_int (Array.length a)))) *. 1e6
  in
  (* [between] runs before each sample, outside the timed window; the
     active run uses it to commit a migration batch between reads.
     Driving the migrator inline rather than from a second systhread
     keeps the interleaving deterministic on one core (Thread.yield
     gives no fairness guarantee here) while measuring the same thing:
     every sampled read executes right after a fresh clock publish.
     Both conditions run [Gc.minor] between samples (the active run's
     extra work would otherwise also shift minor-collection luck into
     the comparison), and both warm the statement/plan caches before
     sampling, so the ratio isolates the migration's effect. *)
  let measure_p99 ?(between = fun _ -> ()) () =
    let lat = Array.make p99_samples 0.0 in
    for _ = 1 to 200 do
      ignore
        (Database.exec db ~params:[| Value.Int 1 |] "SELECT v FROM kv WHERE k = $1"
          : Executor.result)
    done;
    for i = 0 to p99_samples - 1 do
      between i;
      (* empty the minor heap and pay down pending major-slice work
         outside the timed window: the migrator promotes every copied
         row, and the incremental major GC otherwise collects that debt
         at the reader's allocation points mid-sample *)
      Gc.minor ();
      ignore (Gc.major_slice 0 : int);
      (* Each sample times a burst of 8 reads on the ns monotonic clock
         and records the per-read mean: a blocked read (the failure mode
         the bar guards against — a flip or granule move holding up
         readers) inflates its whole burst by the wait, while the
         cache-refill cost of the single read issued right after a
         migration batch is amortized the way it is for any real read
         stream.  gettimeofday's 1us quantization would otherwise
         dominate a ~1us read. *)
      let t0 = Monotonic_clock.now () in
      for j = 0 to 7 do
        let k = ((i * 37) + j) mod rows in
        ignore
          (Database.exec db ~params:[| Value.Int k |] "SELECT v FROM kv WHERE k = $1"
            : Executor.result)
      done;
      lat.(i) <- Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) *. 1e-9 /. 8.0
    done;
    percentile_us lat 0.99
  in
  let idle_p99 = measure_p99 () in
  ignore
    (Database.exec db "CREATE TABLE src (id INT PRIMARY KEY, grp INT, s TEXT)"
      : Executor.result);
  Database.with_txn db (fun txn ->
      for i = 0 to mig_rows - 1 do
        ignore
          (Database.exec_in db txn
             ~params:[| Value.Int i; Value.Int (i mod 16); Value.Str (Printf.sprintf "s%05d" i) |]
             "INSERT INTO src VALUES ($1, $2, $3)"
            : Executor.result)
      done);
  let ld = Lazy_db.create db in
  let spec =
    Migration.make ~name:"mvcc_bg" ~drop_old:[ "src" ]
      [
        Migration.statement_of_sql ~name:"mvcc_bg"
          "CREATE TABLE dst AS (SELECT id, grp, s FROM src)"
          ~extra_ddl:[ "CREATE UNIQUE INDEX dst_id ON dst (id)" ];
      ]
  in
  ignore (Lazy_db.start_migration ~page_size:4 ld spec : Migrate_exec.t);
  (* [mig_rows/page_size] granules exceed [p99_samples], so every sampled
     read runs while the migration is still in flight. *)
  let bg_batches = ref 0 in
  let active_p99 =
    measure_p99
      ~between:(fun i ->
        if Lazy_db.background_step ld ~batch:1 > 0 then incr bg_batches;
        if i mod 64 = 0 then ignore (Database.vacuum db : int))
      ()
  in
  ignore (Database.vacuum db : int);
  say "  point-read p99: idle %.1f us, under migration %.1f us (%.2fx, %d bg batches)"
    idle_p99 active_p99 (active_p99 /. idle_p99) !bg_batches;
  let t4_locked, t4_snap =
    match List.find_opt (fun (n, _, _) -> n = 4) scaling with
    | Some (_, l, s) -> (l, s)
    | None -> (nan, nan)
  in
  say "  4-thread snapshot/locked speedup: %.1fx (target >= 3x)" (t4_snap /. t4_locked);
  let oc = open_out (out_path "BENCH_mvcc.json") in
  Printf.fprintf oc
    {|{
  "benchmark": "mvcc",
  "rows": %d,
  "ops_per_thread": %d,
  "profile": "%s",
  "seed": %d,
  "point_read_mops": [
%s
  ],
  "speedup_snapshot_over_locked_4t": %.2f,
  "read_p99_us": {
    "idle": %.1f,
    "under_migration": %.1f,
    "ratio": %.2f
  }
}
|}
    rows ops_per_thread
    (match profile with Fast -> "fast" | Standard -> "standard" | Full -> "full")
    seed
    (String.concat ",\n"
       (List.map
          (fun (n, l, s) ->
            Printf.sprintf
              {|    {"threads": %d, "locked": %.3f, "snapshot": %.3f, "speedup": %.2f}|}
              n l s (s /. l))
          scaling))
    (t4_snap /. t4_locked) idle_p99 active_p99 (active_p99 /. idle_p99);
  close_out oc;
  say "  wrote %s" (out_path "BENCH_mvcc.json")

(* ------------------------------------------------------------------ *)

(* Sharding: shared-nothing scaling of predicate-routed point reads.
   The container has one hardware core, so the scaling claim is made in
   virtual time (Shard_sim, the same discrete-event regime as figs 3-12);
   the real 4-shard cluster then demonstrates the router's hit rate on
   PK point queries (gated at 100%) and 2PC crash atomicity.  Gated:
   >=3x routed throughput at 4 shards, 100% single-shard routing. *)
let shard_bench () =
  say "\n=== sharding: routed scatter/gather + 2PC (BENCH_sharding.json) ===";
  let module Cluster = Bullfrog_cluster.Cluster in
  let module Cluster_sweep = Bullfrog_cluster.Cluster_sweep in
  (* -- virtual-time scaling -- *)
  let routed =
    List.map (fun n -> (n, Shard_sim.capacity ~shards:n ~routed_frac:1.0 ())) [ 1; 2; 4; 8 ]
  in
  let cap n = List.assoc n routed in
  let bcast4 = Shard_sim.capacity ~shards:4 ~routed_frac:0.0 () in
  let ratio4 = cap 4 /. cap 1 in
  List.iter
    (fun (n, c) -> say "  sim: %d shard(s) routed: %.0f reads/s (%.2fx)" n c (c /. cap 1))
    routed;
  say "  sim: 4 shards broadcast: %.0f reads/s (%.2fx) — scatter holds every shard"
    bcast4 (bcast4 /. cap 1);
  let mixed =
    Shard_sim.run
      (* below mixed capacity (~2.2k/s) so p95 is a queueing number, not
         an overload ramp *)
      {
        Shard_sim.default_config with
        shards = 4;
        read_frac = 0.9;
        routed_frac = 0.95;
        rate = 1500.0;
      }
  in
  say "  sim: mixed 90/10 read/2PC-write: %.0f txn/s, p95 %.2fms, coord util %.1f%%"
    mixed.Shard_sim.throughput
    (mixed.Shard_sim.p95_latency *. 1e3)
    (mixed.Shard_sim.coord_util *. 100.0);
  (* -- real cluster: routing hit rate + wall-clock flavour -- *)
  let shards = 4 in
  let nrows, npoints =
    match profile with
    | Fast -> (400, 2_000)
    | Standard -> (2_000, 10_000)
    | Full -> (8_000, 40_000)
  in
  let c = Cluster.create ~shards () in
  ignore
    (Cluster.exec c "CREATE TABLE t (id INT PRIMARY KEY, v TEXT)"
      : Bullfrog_db.Executor.result);
  let batch = 50 in
  let i = ref 0 in
  while !i < nrows do
    let hi = min nrows (!i + batch) in
    let values =
      String.concat ", "
        (List.init (hi - !i) (fun j ->
             Printf.sprintf "(%d, 'v%06d')" (!i + j) (!i + j)))
    in
    (* consecutive keys span shards: every batch commits through 2PC *)
    ignore (Cluster.exec c ("INSERT INTO t VALUES " ^ values)
             : Bullfrog_db.Executor.result);
    i := hi
  done;
  let was_enabled = Obs.Counters.enabled () in
  Obs.Counters.set_enabled true;
  (* Work per point query beside the wall clock: minor words allocated
     and plan-cache hits/misses, deterministic at a fixed seed.  Words
     come from [Gc.minor_words]: on OCaml 5 [Gc.quick_stat] counts only
     up to the last minor collection, a whole minor heap at a time. *)
  let work f =
    let before = Obs.Counters.snapshot () in
    let w0 = Gc.minor_words () in
    let t0 = Unix.gettimeofday () in
    f ();
    let s = Unix.gettimeofday () -. t0 in
    let words = Gc.minor_words () -. w0 in
    let diff = Obs.Counters.diff (Obs.Counters.snapshot ()) before in
    let delta name = Option.value ~default:0 (List.assoc_opt name diff) in
    (s, words /. float_of_int npoints, delta)
  in
  let cluster_s, cluster_words, delta =
    work (fun () ->
        for q = 0 to npoints - 1 do
          ignore
            (Cluster.query c
               (Printf.sprintf "SELECT v FROM t WHERE id = %d" (q * 7 mod nrows))
              : Bullfrog_db.Value.t array list)
        done)
  in
  let selects = delta "shard.selects" and single = delta "shard.selects_single" in
  let hit_rate =
    if selects = 0 then 0.0 else float_of_int single /. float_of_int selects
  in
  say "  cluster: %d PK point queries, %d routed single-shard (hit rate %.1f%%)"
    selects single (hit_rate *. 100.0);
  (* single-node twin for a wall-clock reference (1 core: parity expected) *)
  let module Db = Bullfrog_db.Database in
  let db = Db.create () in
  ignore (Db.exec db "CREATE TABLE t (id INT PRIMARY KEY, v TEXT)"
           : Bullfrog_db.Executor.result);
  let i = ref 0 in
  while !i < nrows do
    let hi = min nrows (!i + batch) in
    let values =
      String.concat ", "
        (List.init (hi - !i) (fun j ->
             Printf.sprintf "(%d, 'v%06d')" (!i + j) (!i + j)))
    in
    ignore (Db.exec db ("INSERT INTO t VALUES " ^ values)
             : Bullfrog_db.Executor.result);
    i := hi
  done;
  let single_s, single_words, single_delta =
    work (fun () ->
        for q = 0 to npoints - 1 do
          ignore
            (Db.query db (Printf.sprintf "SELECT v FROM t WHERE id = %d" (q * 7 mod nrows))
              : Bullfrog_db.Value.t array list)
        done)
  in
  Obs.Counters.set_enabled was_enabled;
  say "  wall-clock (1 core): cluster %.0f q/s vs single %.0f q/s"
    (float_of_int npoints /. cluster_s)
    (float_of_int npoints /. single_s);
  let work_json words delta =
    Printf.sprintf {|{"minor_words": %.1f, "plan_cache_hits": %d, "plan_cache_misses": %d}|}
      words (delta "db.plan_cache.hits") (delta "db.plan_cache.misses")
  in
  say "  work per point query: cluster %.1f minor words, plan cache %d hit(s) / %d miss(es); \
       single %.1f words, %d / %d"
    cluster_words (delta "db.plan_cache.hits") (delta "db.plan_cache.misses") single_words
    (single_delta "db.plan_cache.hits") (single_delta "db.plan_cache.misses");
  (* -- 2PC crash sweep -- *)
  let cells = Cluster_sweep.run_bounded () in
  let failed = List.filter (fun cl -> not cl.Fault_sweep.c_ok) cells in
  say "  2PC sweep: %d cells (%d crashed+recovered), %d failed"
    (List.length cells)
    (Fault_sweep.fired_count cells)
    (List.length failed);
  List.iter (fun cl -> say "  FAIL %s" (Fault_sweep.pp_cell cl)) failed;
  let oc = open_out (out_path "BENCH_sharding.json") in
  Printf.fprintf oc
    {|{
  "benchmark": "sharding",
  "profile": "%s",
  "seed": %d,
  "virtual_time_sim": {
    "routed_reads_per_sec": [%s],
    "broadcast_4_shards": %.0f,
    "routed_speedup_4_shards": %.2f,
    "mixed_90_10": {"throughput": %.0f, "p95_ms": %.3f, "coord_util": %.3f},
    "gate_3x_at_4_shards": %B
  },
  "cluster": {
    "shards": %d,
    "rows": %d,
    "point_queries": %d,
    "routed_single_shard": %d,
    "routing_hit_rate": %.4f,
    "gate_hit_rate_100": %B,
    "wall_clock_1core_qps": {"cluster": %.0f, "single": %.0f},
    "work_per_point_query": {"cluster": %s, "single": %s}
  },
  "two_pc_sweep": {
    "cells": %d,
    "crashed_and_recovered": %d,
    "failed": %d
  }
}
|}
    (match profile with Fast -> "fast" | Standard -> "standard" | Full -> "full")
    seed
    (String.concat ", "
       (List.map
          (fun (n, cp) -> Printf.sprintf {|{"shards": %d, "reads_per_sec": %.0f}|} n cp)
          routed))
    bcast4 ratio4 mixed.Shard_sim.throughput
    (mixed.Shard_sim.p95_latency *. 1e3)
    mixed.Shard_sim.coord_util
    (ratio4 >= 3.0) shards nrows npoints single hit_rate (hit_rate = 1.0)
    (float_of_int npoints /. cluster_s)
    (float_of_int npoints /. single_s)
    (work_json cluster_words delta)
    (work_json single_words single_delta)
    (List.length cells)
    (Fault_sweep.fired_count cells)
    (List.length failed);
  close_out oc;
  say "  wrote %s" (out_path "BENCH_sharding.json");
  if ratio4 < 3.0 then
    failwith (Printf.sprintf "sharding gate: routed speedup %.2fx < 3x" ratio4);
  if hit_rate < 1.0 then
    failwith (Printf.sprintf "sharding gate: routing hit rate %.1f%% < 100%%" (hit_rate *. 100.0));
  if failed <> [] then failwith "sharding gate: 2PC sweep found divergent cells"

(* ------------------------------------------------------------------ *)

(* Wire server: over-the-wire latency through real TCP sockets, and the
   circuit breaker shedding non-essential statements while the engine
   digs out of migration debt.  Gated: the breaker actually cycles
   (opens while debt is above threshold, closes after the backfill),
   the shed rate returns to zero once migration completes, and every
   admitted write replays row-exactly against an in-process single-node
   oracle (zero statements lost, zero double-applied). *)
let server_bench () =
  say "\n=== server: wire protocol over live migration (BENCH_server.json) ===";
  let module Cluster = Bullfrog_cluster.Cluster in
  let module Server = Bullfrog_server.Server in
  let module Breaker = Bullfrog_server.Breaker in
  let module Client = Bullfrog_server.Client in
  let module Protocol = Bullfrog_server.Protocol in
  let module L = Bullfrog_server.Loadgen in
  let rows, rate, duration =
    match profile with
    | Fast -> (1_200, 400.0, 4.0)
    | Standard -> (4_000, 800.0, 6.0)
    | Full -> (8_000, 1_200.0, 10.0)
  in
  let shards = 4 in
  let c = Cluster.create ~shards () in
  let fill exec =
    let batch = 400 in
    let k = ref 0 in
    while !k < rows do
      let hi = min rows (!k + batch) in
      let values =
        String.concat ", "
          (List.init (hi - !k) (fun i ->
               let id = !k + i in
               Printf.sprintf "(%d, %d, 'r%06d')" id (id mod 5) id))
      in
      exec ("INSERT INTO src VALUES " ^ values);
      k := hi
    done
  in
  ignore
    (Cluster.exec c "CREATE TABLE src (id INT PRIMARY KEY, grp INT, v TEXT)"
      : Bullfrog_db.Executor.result);
  fill (fun sql -> ignore (Cluster.exec c sql : Bullfrog_db.Executor.result));
  (* identical single-node oracle, no sockets in front *)
  let odb = Bullfrog_db.Database.create () in
  ignore
    (Bullfrog_db.Database.exec odb "CREATE TABLE src (id INT PRIMARY KEY, grp INT, v TEXT)"
      : Bullfrog_db.Executor.result);
  fill (fun sql -> ignore (Bullfrog_db.Database.exec odb sql : Bullfrog_db.Executor.result));
  let obf = Lazy_db.create odb in
  (* breaker band in granules (page_size 1: one granule per row) *)
  let config =
    {
      Server.default_config with
      workers = 4;
      queue_cap = 128;
      open_above = rows / 2;
      close_below = rows / 10;
    }
  in
  let server =
    Server.start ~config ~debt:(fun () -> Cluster.migration_debt c) (Cluster.frontend c)
  in
  let port = Server.port server in
  let count samples o =
    Array.fold_left (fun acc s -> if s.L.ls_outcome = o then acc + 1 else acc) 0 samples
  in
  (* -- phase 1: baseline point reads, no migration -- *)
  let base =
    L.run ~port ~connections:4 ~rate ~duration:(duration /. 3.0) (fun seq ->
        Protocol.Exec (Printf.sprintf "SELECT v FROM src WHERE id = %d" (seq * 131 mod rows)))
  in
  let base_lat = L.latencies base in
  let base_ok = count base.L.lr_samples L.O_ok in
  let base_p50 = L.percentile 0.5 base_lat *. 1e3 in
  let base_p99 = L.percentile 0.99 base_lat *. 1e3 in
  say "  baseline: %d ok / %d attempted, p50 %.3f ms, p99 %.3f ms (%.0f/s)"
    base_ok (Array.length base.L.lr_samples) base_p50 base_p99
    (float_of_int base_ok /. base.L.lr_elapsed);
  (* -- phase 2: flip, then load during the backfill -- *)
  let spec =
    Migration.make ~name:"regroup"
      [ Migration.statement_of_sql "CREATE TABLE dst AS (SELECT grp, id, v FROM src)" ]
  in
  Cluster.start_migration c spec;
  ignore (Lazy_db.start_migration obf spec : Migrate_exec.t);
  say "  flipped: debt %d granules (breaker opens > %d, closes < %d)"
    (Cluster.migration_debt c) config.Server.open_above config.Server.close_below;
  (* background migrator digs the debt out at a bounded pace, stretching
     the open-breaker phase across the first trace windows *)
  let bg =
    Thread.create
      (fun () ->
        while not (Cluster.migration_complete c) do
          (* batch is per shard: ~rows/40 granules per step across the
             cluster, paced to hold the breaker open for a few windows *)
          ignore (Cluster.background_step c ~batch:(max 4 (rows / 160)) : int);
          Thread.delay 0.02
        done)
      ()
  in
  let insert_sql seq =
    Printf.sprintf "INSERT INTO dst VALUES (%d, %d, 'w%d')" (seq mod 5) (1_000_000 + seq) seq
  in
  let is_write seq = seq mod 4 = 0 in
  let mig =
    L.run ~port ~connections:6 ~rate
      ~duration:(duration *. 2.0 /. 3.0)
      (fun seq ->
        if is_write seq then Protocol.Exec (insert_sql seq)
        else Protocol.Exec (Printf.sprintf "SELECT v FROM dst WHERE grp = %d" (seq mod 5)))
  in
  Thread.join bg;
  let mig_lat = L.latencies mig in
  let mig_ok = count mig.L.lr_samples L.O_ok in
  let mig_shed = count mig.L.lr_samples L.O_shed in
  let mig_retry = count mig.L.lr_samples L.O_retry in
  let mig_error = count mig.L.lr_samples L.O_error in
  let mig_p50 = L.percentile 0.5 mig_lat *. 1e3 in
  let mig_p99 = L.percentile 0.99 mig_lat *. 1e3 in
  let opens = Breaker.opens (Server.breaker server) in
  let closes = Breaker.closes (Server.breaker server) in
  let wins = L.windows ~bucket:0.25 mig in
  say "  migration: %d ok, %d shed, %d retry, %d error; p50 %.3f ms, p99 %.3f ms"
    mig_ok mig_shed mig_retry mig_error mig_p50 mig_p99;
  say "  breaker: %d open(s), %d close(s); shed trace (0.25s windows):" opens closes;
  List.iter
    (fun w ->
      say "    t=%4.2fs ok %4d shed %4d | p50 %6.2f ms p99 %6.2f ms" w.L.w_t w.L.w_ok
        w.L.w_shed (w.L.w_p50 *. 1e3) (w.L.w_p99 *. 1e3))
    wins;
  (* -- replay oracle: every admitted write, exactly once -- *)
  let rec drain () = if Lazy_db.background_step obf ~batch:1024 > 0 then drain () in
  drain ();
  Array.iter
    (fun s ->
      if s.L.ls_outcome = L.O_ok && is_write s.L.ls_seq then
        ignore (Lazy_db.exec obf (insert_sql s.L.ls_seq) : Bullfrog_db.Executor.result))
    mig.L.lr_samples;
  let row_str row =
    String.concat "|" (List.map Bullfrog_db.Value.to_string (Array.to_list row))
  in
  let server_rows =
    let cl = Client.connect ~port () in
    let rows = Client.query cl "SELECT grp, id, v FROM dst" in
    Client.close cl;
    List.sort compare (List.map row_str rows)
  in
  let oracle_rows =
    List.sort compare
      (List.map row_str (Bullfrog_db.Database.query odb "SELECT grp, id, v FROM dst"))
  in
  let row_exact = server_rows = oracle_rows in
  say "  oracle: %d rows over the wire vs %d in-process — %s"
    (List.length server_rows) (List.length oracle_rows)
    (if row_exact then "row-exact" else "DIVERGED");
  Server.stop server;
  let last_shed = match List.rev wins with w :: _ -> w.L.w_shed | [] -> -1 in
  let oc = open_out (out_path "BENCH_server.json") in
  Printf.fprintf oc
    {|{
  "benchmark": "server",
  "profile": "%s",
  "config": {"shards": %d, "rows": %d, "rate": %.0f, "workers": %d,
             "open_above": %d, "close_below": %d},
  "baseline": {"attempted": %d, "ok": %d, "p50_ms": %.3f, "p99_ms": %.3f,
               "throughput": %.0f},
  "migration_phase": {"ok": %d, "shed": %d, "retry": %d, "error": %d,
                      "p50_ms": %.3f, "p99_ms": %.3f,
                      "breaker_opens": %d, "breaker_closes": %d,
                      "shed_trace": [%s],
                      "final_window_shed": %d},
  "oracle": {"server_rows": %d, "oracle_rows": %d, "row_exact": %b}
}
|}
    (match profile with Fast -> "fast" | Standard -> "standard" | Full -> "full")
    shards rows rate config.Server.workers config.Server.open_above
    config.Server.close_below
    (Array.length base.L.lr_samples)
    base_ok base_p50 base_p99
    (float_of_int base_ok /. base.L.lr_elapsed)
    mig_ok mig_shed mig_retry mig_error mig_p50 mig_p99 opens closes
    (String.concat ", "
       (List.map
          (fun w ->
            Printf.sprintf {|{"t": %.2f, "ok": %d, "shed": %d, "p50_ms": %.3f, "p99_ms": %.3f}|}
              w.L.w_t w.L.w_ok w.L.w_shed (w.L.w_p50 *. 1e3) (w.L.w_p99 *. 1e3))
          wins))
    last_shed
    (List.length server_rows) (List.length oracle_rows) row_exact;
  close_out oc;
  say "  wrote %s" (out_path "BENCH_server.json");
  if not (Cluster.migration_complete c) then
    failwith "server gate: migration did not complete during the run";
  if opens < 1 || closes < 1 then
    failwith
      (Printf.sprintf "server gate: breaker never cycled (%d opens, %d closes)" opens closes);
  if mig_shed = 0 then failwith "server gate: breaker open phase shed nothing";
  if last_shed <> 0 then
    failwith
      (Printf.sprintf "server gate: shed rate did not return to 0 (final window %d)" last_shed);
  if not row_exact then
    failwith "server gate: admitted writes diverged from the in-process oracle"

(* -- obscluster: the §4.2i acceptance scenario.  One traced wire request
   against a 4-shard cluster under an active partition-key-changing
   migration must export a single connected trace tree — client request →
   server stmt → router → per-shard scatter spans → 2PC row moves → lazy
   migration — and the STATS wire command must parse as Prometheus and
   round-trip the same values as [Cluster.obs_snapshot]. *)
let obscluster_bench () =
  say "\n=== obscluster: distributed trace tree + STATS round-trip (BENCH_obscluster.json) ===";
  let module Cluster = Bullfrog_cluster.Cluster in
  let module Server = Bullfrog_server.Server in
  let module Client = Bullfrog_server.Client in
  let module T = Obs.Trace in
  let was_counting = Obs.Counters.enabled () in
  Obs.Counters.set_enabled true;
  T.enable ~capacity:65_536 ();
  let rows = 48 in
  let c = Cluster.create ~shards:4 () in
  ignore
    (Cluster.exec c "CREATE TABLE src (id INT PRIMARY KEY, grp INT, v TEXT)"
      : Bullfrog_db.Executor.result);
  for id = 0 to rows - 1 do
    ignore
      (Cluster.exec c
         (Printf.sprintf "INSERT INTO src VALUES (%d, %d, 'r%03d')" id (id mod 5) id)
        : Bullfrog_db.Executor.result)
  done;
  let spec =
    Migration.make ~name:"regroup"
      [ Migration.statement_of_sql "CREATE TABLE dst AS (SELECT grp, id, v FROM src)" ]
  in
  Cluster.start_migration c spec;
  let server =
    Server.start ~debt:(fun () -> Cluster.migration_debt c) (Cluster.frontend c)
  in
  let cl = Client.connect ~port:(Server.port server) () in
  T.clear ();
  (* one traced scan: the application span makes the client propagate its
     context over the wire; routing fans out to all shards and the
     predicate drives lazy migration, whose cross-shard row moves run
     2PC *)
  (match
     T.with_span ~cat:"app" "traced-scan" (fun () ->
         Client.request cl (Bullfrog_server.Protocol.Exec "SELECT grp, id, v FROM dst"))
   with
  | Bullfrog_server.Protocol.Ok_rows (_, got) ->
      if List.length got <> rows then
        failwith
          (Printf.sprintf "obscluster: scan returned %d rows, expected %d"
             (List.length got) rows)
  | _ -> failwith "obscluster: traced scan failed over the wire");
  let events = T.export () in
  (match T.validate events with
  | Ok _ -> ()
  | Error msg -> failwith ("obscluster: invalid trace: " ^ msg));
  let req_span =
    match
      List.find_opt
        (fun (e : T.event) ->
          e.T.ev_phase = T.Span_begin && e.T.ev_name = "request" && e.T.ev_cat = "client")
        events
    with
    | Some e -> e
    | None -> failwith "obscluster: no client request span in the trace"
  in
  let tree =
    List.filter
      (fun (e : T.event) ->
        e.T.ev_phase = T.Span_begin && e.T.ev_trace = req_span.T.ev_trace)
      events
  in
  let root =
    match List.filter (fun (e : T.event) -> e.T.ev_parent = 0) tree with
    | [ e ] -> e
    | [] -> failwith "obscluster: request trace has no root span"
    | _ -> failwith "obscluster: request trace has several root spans"
  in
  (* connectivity: every span in the request's trace must reach the
     client root through recorded parent links *)
  let by_span = Hashtbl.create 64 in
  List.iter (fun (e : T.event) -> Hashtbl.replace by_span e.T.ev_span e) tree;
  let rec reaches_root (e : T.event) =
    e.T.ev_span = root.T.ev_span
    ||
    match Hashtbl.find_opt by_span e.T.ev_parent with
    | Some p -> reaches_root p
    | None -> false
  in
  List.iter
    (fun (e : T.event) ->
      if not (reaches_root e) then
        failwith
          (Printf.sprintf "obscluster: span %s (id %d, parent %d) is disconnected"
             e.T.ev_name e.T.ev_span e.T.ev_parent))
    tree;
  let shard_spans =
    List.length
      (List.filter
         (fun (e : T.event) ->
           String.length e.T.ev_name > 6 && String.sub e.T.ev_name 0 6 = "shard-")
         tree)
  in
  List.iter
    (fun name ->
      if not (List.exists (fun (e : T.event) -> e.T.ev_name = name) tree) then
        failwith ("obscluster: request trace is missing the " ^ name ^ " span"))
    [ "stmt"; "route"; "2pc"; "lazy-migrate" ];
  if shard_spans < 1 then failwith "obscluster: no per-shard scatter span in the trace";
  let trace_file = out_path "cluster.trace.json" in
  (match T.write_chrome trace_file with
  | Ok _ -> ()
  | Error msg -> failwith ("obscluster: trace export failed: " ^ msg));
  say "  trace: %d span(s) in one connected tree (%d shard span(s)) -> %s"
    (List.length tree) shard_spans trace_file;
  (* -- STATS round-trip against the in-process snapshot, quiesced -- *)
  let rec drain () = if Cluster.background_step c ~batch:1_024 > 0 then drain () in
  drain ();
  Cluster.finalize c;
  Obs.Counters.set_enabled false;
  let txt = Client.stats cl in
  let parsed =
    try
      ignore
        (Exposition.parse_prometheus txt
          : (string * (string * string) list * float) list);
      Exposition.of_prometheus txt
    with Exposition.Parse_error msg ->
      failwith ("obscluster: STATS output is not valid Prometheus: " ^ msg)
  in
  let live = Cluster.obs_snapshot c in
  (* every cluster-side stat the coordinator reports must come back over
     the wire with identical values *)
  List.iter
    (fun (s : Obs.stat) ->
      match
        List.find_opt
          (fun (w : Obs.stat) ->
            w.Obs.st_source = s.Obs.st_source && w.Obs.st_name = s.Obs.st_name)
          parsed.Obs.snap_stats
      with
      | None ->
          failwith
            (Printf.sprintf "obscluster: STATS is missing stat %s/%s" s.Obs.st_source
               s.Obs.st_name)
      | Some w ->
          List.iter
            (fun (f, v) ->
              match List.assoc_opt f w.Obs.st_fields with
              | Some v' when v = v' -> ()
              | Some v' ->
                  failwith
                    (Printf.sprintf "obscluster: STATS %s/%s field %s = %g, wire says %g"
                       s.Obs.st_source s.Obs.st_name f v v')
              | None ->
                  failwith
                    (Printf.sprintf "obscluster: STATS %s/%s lacks field %s"
                       s.Obs.st_source s.Obs.st_name f))
            s.Obs.st_fields)
    live.Obs.snap_stats;
  let json = Client.stats ~fmt:"json" cl in
  if String.length json = 0 || json.[0] <> '{' then
    failwith "obscluster: STATS json is not a JSON object";
  say "  stats: %d cluster stat(s) round-trip the wire exactly (+ json form, %d bytes)"
    (List.length live.Obs.snap_stats) (String.length json);
  Client.close cl;
  Server.stop server;
  Cluster.close c;
  T.disable ();
  T.clear ();
  Obs.Counters.set_enabled was_counting;
  let oc = open_out (out_path "BENCH_obscluster.json") in
  Printf.fprintf oc
    {|{
  "benchmark": "obscluster",
  "scenario": "traced wire scan over a 4-shard cluster mid-migration",
  "tree_spans": %d,
  "shard_spans": %d,
  "connected": true,
  "stats_roundtrip_stats": %d,
  "trace_file": "%s"
}
|}
    (List.length tree) shard_spans
    (List.length live.Obs.snap_stats)
    (Filename.basename trace_file);
  close_out oc;
  say "  wrote %s" (out_path "BENCH_obscluster.json")

let all_figures =
  [
    ("fig3", fig3_4);
    ("fig5", fig5_6);
    ("fig7", fig7_8);
    ("fig9", fig9);
    ("fig10", fig10);
    ("fig11", fig11);
    ("fig12", fig12);
    ("ablate", ablations);
    ("micro", microbench);
    ("qpath", qpath);
    ("migpath", migpath);
    ("recovery", recovery_bench);
    ("obs", obs_bench);
    ("lint", lint_smoke);
    ("invert", invert_smoke);
    ("mvcc", mvcc_bench);
    ("shard", shard_bench);
    ("server", server_bench);
    ("obscluster", obscluster_bench);
  ]

let aliases = [ ("fig4", "fig3"); ("fig6", "fig5"); ("fig8", "fig7") ]

let () =
  let args =
    match Array.to_list Sys.argv with
    | _ :: "--out" :: dir :: rest ->
        out_dir := dir;
        rest
    | _ :: rest -> rest
    | [] -> []
  in
  let requested =
    match args with
    | _ :: _ as figs ->
        List.map (fun f -> match List.assoc_opt f aliases with Some a -> a | None -> f) figs
    | _ -> List.map fst all_figures
  in
  let requested = List.sort_uniq compare requested in
  (* the cluster's crash scenario joins the recovery sweep too *)
  Bullfrog_cluster.Cluster_sweep.register ();
  say "BullFrog benchmark harness — profile: %s, seed: %d"
    (match profile with Fast -> "fast" | Standard -> "standard" | Full -> "full (1/10 paper scale)")
    seed;
  say "(figures 1-2 of the paper are architecture diagrams; all evaluation";
  say " figures 3-12 are regenerated below; see EXPERIMENTS.md for the mapping)";
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun name ->
      match List.assoc_opt name all_figures with
      | Some f -> f ()
      | None -> say "unknown figure %S (known: %s)" name (String.concat ", " (List.map fst all_figures)))
    requested;
  say "\nall requested figures done in %.0fs" (Unix.gettimeofday () -. t0)
