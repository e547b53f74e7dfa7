(* Wall-clock end-to-end benchmark: one workload per invocation.

     bench.exe --workload W --seed N --seconds S --trace 0|1

   Runs a fixed number of cycles (set-up, steady phase, flip, migrating
   phase), fewer only if S seconds would not hold them, checks every
   cycle's outputs, and prints a header line and then, as the last line,
   the result object.  With --trace 1 cycles alternate untraced/traced
   and the result holds the per-layer metrics instead of the end-to-end
   ones.  See README.md. *)

let end_to_end_units =
  [
    ("setup_s", "s");
    ("txn_per_s", "1/s");
    ("txn_p50_ms", "ms");
    ("txn_p99_ms", "ms");
    ("mig_txn_per_s", "1/s");
    ("mig_p50_ms", "ms");
    ("mig_p99_ms", "ms");
    ("mig_window_s", "s");
    ("ok_share", "ratio");
    ("peak_heap_mb", "MB");
  ]

(* Every per-layer metric, with its unit.  A workload reports the layers
   on its path; the others read 0 (e.g. wire metrics on tpcc-split). *)
let per_layer_units =
  List.concat_map
    (fun k -> [ (Printf.sprintf "type.%s.p50_ms" k, "ms"); (Printf.sprintf "type.%s.p99_ms" k, "ms") ])
    Tpcc_bench.kinds
  @ [
      ("type.Delivery.first_p50_ms", "ms");
      ("type.Delivery.last_p50_ms", "ms");
      ("lazy_db.stmt.p50_us", "us");
      ("lazy_db.stmt.p99_us", "us");
      ("lazy_db.migrating_stmt.p50_us", "us");
      ("lazy_db.migrating_stmt.p99_us", "us");
      ("lazy_db.migrating_stmt_share", "ratio");
      ("lazy_db.granules_lazy", "count");
      ("lazy_db.granules_already", "count");
      ("lazy_db.skip_waits", "count");
      ("lazy_db.aborts", "count");
      ("lazy_db.useful_ratio", "ratio");
      ("bg.step.p50_ms", "ms");
      ("bg.step.p99_ms", "ms");
      ("bg.granules", "count");
      ("bg.us_per_granule", "us");
      ("bg.busy_s", "s");
      ("flip_ms", "ms");
      ("lint_ms", "ms");
      ("db.commit.p50_us", "us");
      ("db.commit.p99_us", "us");
      ("db.vacuum.p50_ms", "ms");
      ("db.vacuum.reclaimed", "count");
      ("db.version_backlog_max", "count");
      ("db.index.probes_per_txn", "count");
      ("db.stmt_cache.hit_ratio", "ratio");
      ("db.plan_cache.hit_ratio", "ratio");
      ("mvcc.version_walks_per_txn", "count");
      ("db.redo.bytes_per_txn", "bytes");
      ("core.bitmap.word_skips", "count");
      ("trace.overhead", "ratio");
      ("wire.point.p50_us", "us");
      ("wire.point.p99_us", "us");
      ("wire.scan.p50_us", "us");
      ("wire.scan.p99_us", "us");
      ("wire.write.p50_us", "us");
      ("wire.write.p99_us", "us");
      ("server.point.p50_ms", "ms");
      ("server.point.p99_ms", "ms");
      ("server.scan.p50_ms", "ms");
      ("server.scan.p99_ms", "ms");
      ("server.write.p50_ms", "ms");
      ("server.write.p99_ms", "ms");
      ("server.queue_depth_max", "count");
      ("wire.overhead_p50_us", "us");
      ("cluster.point.p50_us", "us");
      ("cluster.scan.p50_us", "us");
      ("shard.routed_single_ratio", "ratio");
      ("shard.scatters", "count");
      ("shard.2pc_commits", "count");
      ("shard.rows_moved", "count");
    ]
  @ List.map (fun l -> (Printf.sprintf "self.%s.us_per_txn" l, "us")) Spans.layers

let usage () =
  prerr_endline
    "usage: bench.exe --workload tpcc-split|wire-regroup --seed N --seconds S --trace 0|1";
  exit 2

(* Git revision of the checkout, read from .git without leaving it. *)
let git_rev () =
  let read f = try Some (String.trim (In_channel.with_open_bin f In_channel.input_all)) with _ -> None in
  match read ".git/HEAD" with
  | None -> "unknown"
  | Some h when String.length h > 5 && String.sub h 0 5 = "ref: " -> (
      let r = String.sub h 5 (String.length h - 5) in
      match read (Filename.concat ".git" r) with Some s -> s | None -> "unknown")
  | Some h -> h

let out_dir = ".perfbench"

let cycles_per_run = 6

type result = Tpcc of Tpcc_bench.result | Wire of Wire_bench.result

(* Runs [args] as a child of this executable and returns its stdout
   (everything it printed) and whether it exited 0. *)
let run_child args =
  let r, w = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process Sys.executable_name (Array.of_list (Sys.executable_name :: args)) Unix.stdin w Unix.stderr in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let out = In_channel.input_all ic in
  close_in ic;
  let _, st = Unix.waitpid [] pid in
  (out, st = Unix.WEXITED 0)

(* The child side of [run_child]: stdout is the channel back to the
   parent, so library output is moved to stderr. *)
let parent_channel () =
  let oc = Unix.out_channel_of_descr (Unix.dup Unix.stdout) in
  Unix.dup2 Unix.stderr Unix.stdout;
  oc

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0.0 and trace = ref (-1) in
  let mode = ref `Run in
  let rec parse = function
    | "--workload" :: w :: rest ->
        workload := w;
        parse rest
    | "--seed" :: s :: rest ->
        seed := int_of_string s;
        parse rest
    | "--seconds" :: s :: rest ->
        seconds := float_of_string s;
        parse rest
    | "--trace" :: s :: rest ->
        trace := int_of_string s;
        parse rest
    (* internal: the per-cycle child, the eager replay, the wire server *)
    | "--cycle" :: t :: d :: rest ->
        mode := `Cycle (t = "1", d = "1");
        parse rest
    | "--replay" :: n :: rest ->
        mode := `Replay (int_of_string n);
        parse rest
    | "--serve" :: t :: rest ->
        mode := `Serve (t = "1");
        parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if !seed < 0 then usage ();
  let tpcc =
    match !workload with "tpcc-split" -> true | "wire-regroup" -> false | _ -> usage ()
  in
  let seed = !seed and workload = !workload in
  (* keep every file the engine may write inside the checkout *)
  (try Sys.mkdir out_dir 0o755 with Sys_error _ -> ());
  Obs.Flight.set_path (Filename.concat out_dir "flight.dump");
  match !mode with
  | `Serve traced -> Wire_bench.serve ~seed ~traced
  | `Replay mig_txns ->
      if not tpcc then usage ();
      let oc = parent_channel () in
      output_string oc (Stats.to_string (Tpcc_bench.digest_json (Tpcc_bench.replay ~seed ~mig_txns)));
      close_out oc
  | `Cycle (traced, want_digest) ->
      let oc = parent_channel () in
      let r =
        if tpcc then Tpcc (Tpcc_bench.cycle ~seed ~traced ~want_digest)
        else Wire (Wire_bench.cycle ~seed ~traced)
      in
      if traced then Spans.write (Filename.concat out_dir (Printf.sprintf "spans-%s-seed%d.tsv" workload seed));
      List.iter
        (fun e -> Option.iter (fun m -> prerr_endline (workload ^ ": first failed transaction: " ^ m)) !e)
        [ Tpcc_bench.first_error; Wire_bench.first_error ];
      Marshal.to_channel oc r [];
      close_out oc
  | `Run ->
      if !seconds <= 0.0 || (!trace <> 0 && !trace <> 1) then usage ();
      let traced = !trace = 1 in
      let started = Stats.now () in
      let notes = ref [] in
      (* [cycles_per_run] cycles, so every run picks its figures from as
         many repeats.  --seconds only caps the run: a cycle that, as long
         as the last, would end after it is not started.  At least two
         run, whose cycles in a traced run alternate untraced/traced so
         the tracing overhead is measured within the run. *)
      let rec cycles k last acc =
        let elapsed = Stats.now () -. started in
        if k >= cycles_per_run || (k >= 2 && elapsed +. last > !seconds) then List.rev acc
        else begin
          let t = Stats.now () in
          let out, ok =
            run_child
              [
                "--workload"; workload; "--seed"; string_of_int seed;
                "--cycle"; (if traced && k mod 2 = 1 then "1" else "0"); (if k = 0 then "1" else "0");
              ]
          in
          if not ok then begin
            prerr_endline (Printf.sprintf "%s: cycle %d failed" workload k);
            exit 1
          end;
          cycles (k + 1) (Stats.now () -. t) ((Marshal.from_string out 0 : result) :: acc)
        end
      in
      let results = cycles 0 0.0 [] in
      if List.length results < cycles_per_run then
        notes :=
          Printf.sprintf "--seconds cut the run to %d of %d cycles" (List.length results) cycles_per_run :: !notes;
      let e2e = List.map (function Tpcc r -> r.Tpcc_bench.e2e | Wire r -> r.Wire_bench.e2e) results in
      let cycles_correct =
        List.for_all (function Tpcc r -> r.Tpcc_bench.correct | Wire r -> r.Wire_bench.correct) results
      in
      let correct =
        cycles_correct
        &&
        match results with
        | Tpcc { Tpcc_bench.mig_used; digest = Some d; _ } :: _ ->
            (* row-exact check of the first cycle against an eager replay *)
            let mine = Stats.to_string (Tpcc_bench.digest_json d) in
            let theirs, ok =
              run_child [ "--workload"; workload; "--seed"; string_of_int seed; "--replay"; string_of_int mig_used ]
            in
            if ok && theirs = mine then true
            else begin
              notes := "eager replay differs from the lazy run" :: !notes;
              prerr_endline ("lazy:  " ^ mine);
              prerr_endline ("eager: " ^ theirs);
              false
            end
        | Wire _ :: _ -> true
        | _ -> false
      in
      let layer_metrics =
        if not traced then []
        else
          ("trace.overhead", E2e.trace_overhead e2e)
          ::
          (if tpcc then Tpcc_bench.metrics (List.filter_map (function Tpcc r -> r.Tpcc_bench.ly | Wire _ -> None) results)
           else Wire_bench.metrics (List.filter_map (function Wire r -> r.Wire_bench.ly | Tpcc _ -> None) results))
      in
      let e2e_metrics = if traced then [] else E2e.metrics e2e in
      let attempted = List.fold_left (fun a c -> a + c.E2e.attempted) 0 e2e in
      let failed = attempted - List.fold_left (fun a c -> a + c.E2e.ok) 0 e2e in
      if failed > 0 then notes := Printf.sprintf "%d of %d transactions failed" failed attempted :: !notes;
      let setting =
        if tpcc then
            [
              ("scale", Stats.Str "Tpcc_schema.small: 2 warehouses, 10 districts, 300 customers per district, 1000 items");
              ("load", Stats.Str "closed loop, one load thread in the engine's process");
              ("warmup_txns", Stats.Int Tpcc_bench.warmup_txns);
              ("vacuum_every_txns", Stats.Int Tpcc_bench.vacuum_every);
              ("bg_every_txns", Stats.Int Tpcc_bench.bg_every);
              ("bg_batch_granules", Stats.Int Tpcc_bench.bg_batch);
            ]
        else
            [
              ( "scale",
                Stats.Str
                  (Printf.sprintf "%d shards, %d src rows in %d groups" Wire_bench.shards Wire_bench.rows
                     Wire_bench.groups) );
              ( "load",
                Stats.Str
                  (Printf.sprintf "closed loop, %d connections from one load process; server process with %d workers"
                     Wire_bench.connections Wire_bench.workers) );
              ("warmup_reqs", Stats.Int Wire_bench.warmup_reqs);
              ("bg_every_reqs", Stats.Int Wire_bench.bg_every);
              ("bg_batch_granules_per_shard", Stats.Int Wire_bench.bg_batch);
            ]
      in
      let header =
        Stats.Obj
          ([
             ("git_rev", Stats.Str (git_rev ()));
             ("nproc", Stats.Int (Domain.recommended_domain_count ()));
             ("workload", Stats.Str workload);
             ("seed", Stats.Int seed);
             ("seconds", Stats.Num !seconds);
             ("trace", Stats.Int !trace);
           ]
          @ setting @ E2e.header e2e
          @ [
              ("pct_evidence", Stats.Obj (List.rev !Stats.evidence));
              ("notes", Stats.Arr (List.map (fun s -> Stats.Str s) !notes));
            ])
      in
      List.iter
        (fun (name, _) ->
          if not (List.mem_assoc name per_layer_units) then failwith ("unlisted per-layer metric " ^ name))
        layer_metrics;
      let metric (name, unit) v = (name, Stats.Obj [ ("value", Stats.Num v); ("unit", Stats.Str unit) ]) in
      let metrics =
        if traced then
          List.map
            (fun (name, unit) -> metric (name, unit) (Option.value ~default:0.0 (List.assoc_opt name layer_metrics)))
            per_layer_units
        else List.map (fun (name, unit) -> metric (name, unit) (List.assoc name e2e_metrics)) end_to_end_units
      in
      let result =
        Stats.Obj
          [
            ("correct", Stats.Bool correct);
            ("attempted", Stats.Int attempted);
            ("failed", Stats.Int failed);
            ("metrics", Stats.Obj metrics);
          ]
      in
      let header_s = Stats.to_string (Stats.Obj [ ("header", header) ]) in
      let result_s = Stats.to_string result in
      Out_channel.with_open_bin
        (Filename.concat out_dir (Printf.sprintf "result-%s-seed%d-trace%d.json" workload seed !trace))
        (fun oc -> output_string oc (header_s ^ "\n" ^ result_s ^ "\n"));
      print_endline header_s;
      print_endline result_s
