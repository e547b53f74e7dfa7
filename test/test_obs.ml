(* Observability: counter-snapshot algebra (qcheck), trace-ring
   wraparound repair, EXPLAIN ANALYZE actuals, migration progress
   reports, and the interpolated histogram percentiles. *)

open Bullfrog_db
open Bullfrog_core

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Counter snapshots                                                    *)
(* ------------------------------------------------------------------ *)

let counters_respect_enable () =
  let c = Obs.Counters.make "test.obs.enable_toggle" in
  let was = Obs.Counters.enabled () in
  Obs.Counters.set_enabled false;
  let v0 = Obs.Counters.value c in
  Obs.Counters.bump c;
  Obs.Counters.add c 7;
  check Alcotest.int "disabled bumps are dropped" v0 (Obs.Counters.value c);
  Obs.Counters.set_enabled true;
  Obs.Counters.bump c;
  Obs.Counters.add c 7;
  check Alcotest.int "enabled bumps count" (v0 + 8) (Obs.Counters.value c);
  Obs.Counters.set_enabled was

(* The snapshot algebra the bench's before/after diffing rests on:
   add_snapshots (diff a b) b = a, up to canonicalization. *)
let snap_gen =
  QCheck.Gen.(
    let entry =
      pair (oneofl [ "a"; "b"; "c"; "d"; "e" ]) (int_range 0 100)
    in
    map
      (fun l -> List.sort_uniq (fun (n1, _) (n2, _) -> compare n1 n2) l)
      (list_size (int_range 0 8) entry))

let print_snap s =
  String.concat "; " (List.map (fun (n, v) -> Printf.sprintf "%s=%d" n v) s)

let snapshot_roundtrip_prop =
  QCheck.Test.make ~name:"add_snapshots (diff a b) b = a" ~count:500
    (QCheck.make
       QCheck.Gen.(pair snap_gen snap_gen)
       ~print:(fun (a, b) -> print_snap a ^ " / " ^ print_snap b))
    (fun (a, b) ->
      let open Obs.Counters in
      equal (add_snapshots (diff a b) b) a && equal (add_snapshots (diff b a) a) b)

let live_snapshot_diff () =
  let c = Obs.Counters.make "test.obs.live_diff" in
  let was = Obs.Counters.enabled () in
  Obs.Counters.set_enabled true;
  let s0 = Obs.Counters.snapshot () in
  Obs.Counters.add c 5;
  let s1 = Obs.Counters.snapshot () in
  Obs.Counters.set_enabled was;
  let d = Obs.Counters.diff s1 s0 in
  check Alcotest.(option int) "delta visible in diff" (Some 5)
    (List.assoc_opt "test.obs.live_diff" d);
  check Alcotest.bool "roundtrip on live snapshots" true
    Obs.Counters.(equal (add_snapshots d s0) s1)

(* ------------------------------------------------------------------ *)
(* Trace ring                                                           *)
(* ------------------------------------------------------------------ *)

let ring_wraparound_stays_valid () =
  Obs.Trace.enable ~capacity:8 ();
  (* Nested spans well past the ring capacity: exports must repair the
     torn prefix (ends whose begins were overwritten) and any unclosed
     tail, and still validate. *)
  for i = 0 to 24 do
    Obs.Trace.with_span ~cat:"test" "outer"
      (fun () ->
        Obs.Trace.with_span ~cat:"test"
          (Printf.sprintf "inner-%d" i)
          (fun () -> Obs.Trace.instant ~cat:"test" "tick"))
  done;
  Obs.Trace.begin_span ~cat:"test" "left-open";
  let events = Obs.Trace.export () in
  (match Obs.Trace.validate events with
  | Ok _ -> ()
  | Error msg -> Alcotest.fail ("wrapped ring export invalid: " ^ msg));
  check Alcotest.bool "ring kept at most capacity begin/ends" true
    (List.length events <= 8 + 1 (* synthetic end for the open span *));
  check Alcotest.bool "recorded count keeps the dropped events" true
    (Obs.Trace.recorded () > List.length events);
  let json = Obs.Trace.to_chrome_json events in
  check Alcotest.bool "chrome json has traceEvents" true
    (String.length json > 0
    &&
    let needle = "traceEvents" in
    let rec has i =
      i + String.length needle <= String.length json
      && (String.sub json i (String.length needle) = needle || has (i + 1))
    in
    has 0);
  Obs.Trace.disable ();
  Obs.Trace.clear ()

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

(* Spans racing into the ring from many threads must still export a
   validating trace: per-thread stack discipline is kept by the
   tid-indexed state array even while the slot counter interleaves. *)
let trace_multithread_race () =
  Obs.Trace.enable ~capacity:4_096 ();
  let nthreads = 6 and loops = 200 in
  let threads =
    List.init nthreads (fun t ->
        Thread.create
          (fun () ->
            for i = 1 to loops do
              Obs.Trace.with_span ~cat:"race" (Printf.sprintf "outer-%d" t)
                (fun () ->
                  Obs.Trace.with_span ~cat:"race" "inner" (fun () ->
                      if i mod 16 = 0 then Thread.yield ()))
            done)
          ())
  in
  List.iter Thread.join threads;
  let events = Obs.Trace.export () in
  (match Obs.Trace.validate events with
  | Ok n -> check Alcotest.bool "complete spans survive" true (n > 0)
  | Error msg -> Alcotest.fail ("racing threads broke the trace: " ^ msg));
  check Alcotest.int "every emission counted" (nthreads * loops * 2 * 2)
    (Obs.Trace.recorded ());
  Obs.Trace.disable ();
  Obs.Trace.clear ()

(* A context handed across a thread boundary keeps the child's spans in
   the parent's tree — the mechanism the server's reader thread uses for
   a request's wire CTX. *)
let trace_context_crosses_threads () =
  Obs.Trace.enable ~capacity:1_024 ();
  let ctx = ref None in
  Obs.Trace.with_span ~cat:"test" "parent" (fun () -> ctx := Obs.Trace.context ());
  (match !ctx with
  | Some (tr, sp) ->
      check Alcotest.bool "ids allocated" true (tr > 0 && sp > 0)
  | None -> Alcotest.fail "no context inside a span");
  let th =
    Thread.create
      (fun () ->
        Obs.Trace.with_context !ctx (fun () ->
            Obs.Trace.with_span ~cat:"test" "child" (fun () -> ())))
      ()
  in
  Thread.join th;
  let events = Obs.Trace.export () in
  (match Obs.Trace.validate events with
  | Ok _ -> ()
  | Error msg -> Alcotest.fail msg);
  let parent =
    List.find
      (fun e -> e.Obs.Trace.ev_phase = Obs.Trace.Span_begin && e.Obs.Trace.ev_name = "parent")
      events
  and child =
    List.find
      (fun e -> e.Obs.Trace.ev_phase = Obs.Trace.Span_begin && e.Obs.Trace.ev_name = "child")
      events
  in
  check Alcotest.int "child joins the parent's trace"
    parent.Obs.Trace.ev_trace child.Obs.Trace.ev_trace;
  check Alcotest.int "child's parent is the handed span"
    parent.Obs.Trace.ev_span child.Obs.Trace.ev_parent;
  check Alcotest.bool "threads differ" true
    (parent.Obs.Trace.ev_tid <> child.Obs.Trace.ev_tid);
  Obs.Trace.disable ();
  Obs.Trace.clear ()

(* Chrome export names threads via metadata events so named threads show
   up under their names instead of bare tids. *)
let chrome_thread_metadata () =
  Obs.Trace.enable ~capacity:64 ();
  Obs.Trace.set_thread_name "obs-test-thread";
  Obs.Trace.with_span ~cat:"test" "named" (fun () -> ());
  let json = Obs.Trace.to_chrome_json (Obs.Trace.export ()) in
  check Alcotest.bool "thread_name metadata present" true
    (contains json "thread_name");
  check Alcotest.bool "registered name present" true
    (contains json "obs-test-thread");
  Obs.Trace.disable ();
  Obs.Trace.clear ()

(* ------------------------------------------------------------------ *)
(* Flight recorder                                                      *)
(* ------------------------------------------------------------------ *)

let flight_dump_roundtrip () =
  let was = Obs.Flight.enabled () in
  Obs.Flight.set_enabled true;
  Obs.Flight.clear ();
  Obs.Flight.note ~cat:"test" "plain entry";
  Obs.Flight.notef ~cat:"test" "formatted %d with\ttab and\nnewline" 42;
  let file = Filename.temp_file "bf_flight_test" ".dump" in
  let n = Obs.Flight.dump ~reason:"unit-test" file in
  check Alcotest.int "both entries written" 2 n;
  let reason, entries = Obs.Flight.load file in
  check Alcotest.string "reason survives" "unit-test" reason;
  check Alcotest.(list string) "messages survive byte-exactly"
    [ "plain entry"; "formatted 42 with\ttab and\nnewline" ]
    (List.map (fun e -> e.Obs.Flight.fl_msg) entries);
  check Alcotest.(list string) "categories survive" [ "test"; "test" ]
    (List.map (fun e -> e.Obs.Flight.fl_cat) entries);
  Sys.remove file;
  Obs.Flight.clear ();
  Obs.Flight.set_enabled was

(* ------------------------------------------------------------------ *)
(* Prometheus exposition                                                *)
(* ------------------------------------------------------------------ *)

(* The STATS wire command rests on this: the text form must reconstruct
   the snapshot exactly, including label values that need escaping. *)
let prometheus_roundtrip () =
  let c = Obs.Counters.make "test.obs.promq" in
  let was = Obs.Counters.enabled () in
  Obs.Counters.set_enabled true;
  Obs.Counters.add c 3;
  Obs.register_stats "test:prom/provider" (fun () ->
      [
        {
          Obs.st_source = "test:prom/provider";
          st_name = "odd \"name\"\nwith\\escapes";
          st_fields = [ ("frac", 0.1); ("neg", -2.5); ("big", 1e18) ];
        };
      ]);
  let snap = Obs.snapshot () in
  let text = Exposition.to_prometheus snap in
  let back = Exposition.of_prometheus text in
  check Alcotest.bool "counters reconstruct" true
    (Obs.Counters.equal snap.Obs.snap_counters back.Obs.snap_counters);
  let find s name =
    List.find (fun st -> st.Obs.st_name = name) s.Obs.snap_stats
  in
  let orig = find snap "odd \"name\"\nwith\\escapes"
  and got = find back "odd \"name\"\nwith\\escapes" in
  check Alcotest.string "source survives escaping" orig.Obs.st_source
    got.Obs.st_source;
  List.iter
    (fun (f, v) ->
      check (Alcotest.float 0.0)
        (Printf.sprintf "field %s exact" f)
        v
        (List.assoc f got.Obs.st_fields))
    orig.Obs.st_fields;
  (* And the samples themselves parse as well-formed exposition text. *)
  let samples = Exposition.parse_prometheus text in
  check Alcotest.bool "at least counter + 3 fields" true
    (List.length samples >= 4);
  Obs.unregister_stats "test:prom/provider";
  Obs.Counters.set_enabled was

(* ------------------------------------------------------------------ *)
(* EXPLAIN ANALYZE                                                      *)
(* ------------------------------------------------------------------ *)

let seeded_db () =
  let db = Database.create () in
  ignore (Database.exec db "CREATE TABLE t (a INT PRIMARY KEY, b INT)" : Executor.result);
  Database.with_txn db (fun txn ->
      for a = 1 to 20 do
        ignore
          (Executor.exec_stmt (Database.exec_ctx db) txn
             (Bullfrog_sql.Parser.parse_one
                (Printf.sprintf "INSERT INTO t VALUES (%d, %d)" a (a * 10)))
            : Executor.result)
      done);
  db

let explain_analyze_actuals () =
  let db = seeded_db () in
  let sql = "SELECT a, b FROM t WHERE a <= 10" in
  let expected =
    match Database.exec db sql with
    | Executor.Rows (_, rows) -> List.length rows
    | _ -> Alcotest.fail "expected rows"
  in
  check Alcotest.int "query returns 10 rows" 10 expected;
  match Database.exec db ("EXPLAIN ANALYZE " ^ sql) with
  | Executor.Explained text ->
      check Alcotest.bool "root operator reports the real rowcount" true
        (contains text (Printf.sprintf "actual rows=%d" expected));
      check Alcotest.bool "footer reports the result size" true
        (contains text (Printf.sprintf "Execution: %d row(s)" expected));
      check Alcotest.bool "loops are reported" true (contains text "loops=")
  | _ -> Alcotest.fail "expected Explained"

(* A global aggregate streams its input: same result and counters as
   the rows it reads, one row of identities over an empty input, and
   under EXPLAIN ANALYZE its input node is still recorded. *)
let global_aggregate_streams () =
  let db = seeded_db () in
  let run sql =
    Database.with_txn db (fun txn ->
        let r = Database.exec_in db txn sql in
        let c = txn.Txn.counters in
        (r, c.Txn.rows_scanned, c.Txn.rows_read))
  in
  (match run "SELECT COUNT(*), SUM(b), MIN(a) FROM t WHERE b <= 100" with
  | Executor.Rows (_, [ [| Value.Int 10; Value.Int 550; Value.Int 1 |] ]), scanned, read ->
      check Alcotest.int "every row scanned" 20 scanned;
      check Alcotest.int "kept rows read" 10 read
  | _ -> Alcotest.fail "expected one aggregate row");
  (match run "SELECT COUNT(*), SUM(b) FROM t WHERE b > 1000" with
  | Executor.Rows (_, [ [| Value.Int 0; Value.Null |] ]), 20, 0 -> ()
  | _ -> Alcotest.fail "expected one row of identities");
  match Database.exec db "EXPLAIN ANALYZE SELECT COUNT(*) FROM t WHERE b <= 100" with
  | Executor.Explained text ->
      check Alcotest.bool "input node recorded" false (contains text "never executed");
      check Alcotest.bool "scan reports its rows" true (contains text "actual rows=10")
  | _ -> Alcotest.fail "expected Explained"

let explain_plain_has_no_actuals () =
  let db = seeded_db () in
  match Database.exec db "EXPLAIN SELECT a FROM t WHERE a <= 10" with
  | Executor.Explained text ->
      check Alcotest.bool "no actuals without ANALYZE" false (contains text "actual rows");
      check Alcotest.bool "no execution footer without ANALYZE" false
        (contains text "Execution:")
  | _ -> Alcotest.fail "expected Explained"

(* ------------------------------------------------------------------ *)
(* Migration progress reports                                           *)
(* ------------------------------------------------------------------ *)

let progress_report_parses () =
  let db = seeded_db () in
  let bf = Lazy_db.create db in
  let spec =
    Migration.make ~name:"obs_prog"
      [
        Migration.statement_of_sql ~name:"t2"
          "CREATE TABLE t2 AS (SELECT a, b + 1 AS b1 FROM t)";
      ]
  in
  let rt = Lazy_db.start_migration bf spec in
  ignore (Lazy_db.exec bf "SELECT b1 FROM t2 WHERE a = 3" : Executor.result);
  let pg = Migrate_exec.progress_report rt in
  check Alcotest.bool "lazy granule counted" true (pg.Migrate_exec.pg_lazy >= 1);
  check Alcotest.bool "fraction in range" true
    (pg.Migrate_exec.pg_fraction > 0.0 && pg.Migrate_exec.pg_fraction <= 1.0);
  let line = Migrate_exec.format_progress pg in
  (* The one-liner the CLI's \progress prints must stay machine-parsable. *)
  let pct, got, total, lz, bg =
    try
      Scanf.sscanf line "migrated %f%% (%d/%d granules) | lazy %d bg %d"
        (fun pct got total lz bg -> (pct, got, total, lz, bg))
    with _ -> Alcotest.fail ("unparsable progress line: " ^ line)
  in
  check Alcotest.bool "percent consistent with counts" true
    (abs_float (pct -. (100.0 *. float_of_int got /. float_of_int total)) < 0.1);
  check Alcotest.int "lazy split matches report" pg.Migrate_exec.pg_lazy lz;
  check Alcotest.int "bg split matches report" pg.Migrate_exec.pg_bg bg;
  check Alcotest.bool "eta present" true
    (contains line "eta" && (contains line "s" || contains line "n/a"));
  (* Drain in the background and re-check the terminal report. *)
  let rec go () = if Lazy_db.background_step bf ~batch:64 > 0 then go () in
  go ();
  let pg' = Migrate_exec.progress_report rt in
  check (Alcotest.float 1e-9) "complete fraction" 1.0 pg'.Migrate_exec.pg_fraction;
  check Alcotest.(option (float 1e-9)) "eta zero when done" (Some 0.0)
    pg'.Migrate_exec.pg_eta;
  check Alcotest.bool "done rendered" true
    (contains (Migrate_exec.format_progress pg') "eta done")

let stats_providers_in_snapshot () =
  let db = seeded_db () in
  let bf = Lazy_db.create db in
  let spec =
    Migration.make ~name:"obs_stats"
      [
        Migration.statement_of_sql ~name:"t3"
          "CREATE TABLE t3 AS (SELECT a, b FROM t)";
      ]
  in
  ignore (Lazy_db.start_migration bf spec : Migrate_exec.t);
  let snap = Obs.snapshot () in
  let sources = List.map (fun s -> s.Obs.st_source) snap.Obs.snap_stats in
  check Alcotest.bool "index stats registered" true (List.mem "db.index" sources);
  check Alcotest.bool "migration stats registered" true (List.mem "migration" sources);
  let rendered = Obs.render snap in
  check Alcotest.bool "render names the migration" true (contains rendered "obs_stats");
  let rec go () = if Lazy_db.background_step bf ~batch:64 > 0 then go () in
  go ();
  Lazy_db.finalize bf;
  let snap' = Obs.snapshot () in
  check Alcotest.bool "migration stats unregistered on finalize" false
    (List.exists (fun s -> s.Obs.st_name = "obs_stats") snap'.Obs.snap_stats)

(* ------------------------------------------------------------------ *)
(* Histogram percentiles                                                *)
(* ------------------------------------------------------------------ *)

let histogram_interpolates_within_bucket () =
  let h = Histogram.create () in
  (* 100 identical samples land in one log bucket: percentiles must
     spread across the bucket instead of all snapping to one bound. *)
  for _ = 1 to 100 do
    Histogram.add h 0.1
  done;
  let p10 = Histogram.percentile h 10.0
  and p50 = Histogram.percentile h 50.0
  and p90 = Histogram.percentile h 90.0 in
  check Alcotest.bool "p10 < p50 < p90 within one bucket" true (p10 < p50 && p50 < p90);
  (* Regression pin: with lo=1e-4 and 50 buckets/decade, 0.1 lands in
     bucket 150 and p50 interpolates to its midpoint 10^(-4 + 150.5/50). *)
  let expected = 10.0 ** (-4.0 +. (150.5 /. 50.0)) in
  check (Alcotest.float 1e-6) "p50 pinned" expected p50;
  (* All percentiles stay inside the covering bucket's edges. *)
  let lo_edge = 10.0 ** (-4.0 +. (150.0 /. 50.0))
  and hi_edge = 10.0 ** (-4.0 +. (151.0 /. 50.0)) in
  check Alcotest.bool "percentiles stay within the bucket" true
    (p10 >= lo_edge -. 1e-12 && p90 <= hi_edge +. 1e-12)

let histogram_percentiles_monotone () =
  let h = Histogram.create () in
  for _ = 1 to 50 do
    Histogram.add h 0.01
  done;
  for _ = 1 to 50 do
    Histogram.add h 1.0
  done;
  let prev = ref 0.0 in
  List.iter
    (fun p ->
      let v = Histogram.percentile h p in
      check Alcotest.bool (Printf.sprintf "p%.0f >= previous" p) true (v >= !prev);
      prev := v)
    [ 1.0; 10.0; 25.0; 50.0; 50.5; 75.0; 90.0; 99.0; 100.0 ];
  check Alcotest.bool "p25 near low mode" true (Histogram.percentile h 25.0 < 0.02);
  check Alcotest.bool "p75 near high mode" true (Histogram.percentile h 75.0 > 0.9)

(* ------------------------------------------------------------------ *)

let suite =
  [
    Alcotest.test_case "counters: enable toggle" `Quick counters_respect_enable;
    QCheck_alcotest.to_alcotest snapshot_roundtrip_prop;
    Alcotest.test_case "counters: live snapshot diff" `Quick live_snapshot_diff;
    Alcotest.test_case "trace: ring wraparound stays valid" `Quick
      ring_wraparound_stays_valid;
    Alcotest.test_case "trace: multithreaded emission validates" `Quick
      trace_multithread_race;
    Alcotest.test_case "trace: context crosses threads" `Quick
      trace_context_crosses_threads;
    Alcotest.test_case "trace: chrome thread_name metadata" `Quick
      chrome_thread_metadata;
    Alcotest.test_case "flight: dump/load round-trip" `Quick flight_dump_roundtrip;
    Alcotest.test_case "exposition: prometheus round-trip" `Quick
      prometheus_roundtrip;
    Alcotest.test_case "explain analyze: actual rowcounts" `Quick explain_analyze_actuals;
    Alcotest.test_case "explain: no actuals without analyze" `Quick
      explain_plain_has_no_actuals;
    Alcotest.test_case "global aggregate streams its input" `Quick global_aggregate_streams;
    Alcotest.test_case "progress: report formats and parses" `Quick progress_report_parses;
    Alcotest.test_case "stats: providers in snapshot" `Quick stats_providers_in_snapshot;
    Alcotest.test_case "histogram: interpolated percentile" `Quick
      histogram_interpolates_within_bucket;
    Alcotest.test_case "histogram: percentiles monotone" `Quick
      histogram_percentiles_monotone;
  ]
