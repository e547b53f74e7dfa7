(* Interactive SQL shell over the BullFrog engine.

   Meta-commands:
     \migrate <name> [drop <t1,t2,...>] ; <CREATE TABLE x AS (SELECT ...)> [; ...]
         submit a single-step schema migration (logical switch); several
         ;-separated CREATE TABLE clauses form one multi-output statement
         (a table split)
     \lint <name> [drop <t1,t2,...>] ; <CREATE TABLE x AS (SELECT ...)> [; ...]
         run the static analyzer over a migration without installing it:
         split disjointness/coverage proofs, data-loss and constraint
         hazards, precise/imprecise granule-conversion verdicts
     \invert <name> [drop <t1,t2,...>] ; <CREATE TABLE x AS (SELECT ...)> [; ...]
         invertibility analysis only: per-statement SMO class and
         verdict, plus the derived backward (rollback) spec when the
         migration is invertible
     \rollback        roll the in-flight migration back mid-flight: the
                      derived backward spec installs as a new lazy
                      migration over the new tables (old schema is live
                      again instantly)
     \bg [batch]      run one background-migration batch
     \drain           run background migration to completion
     \progress        migration progress, lazy/background split, ETA and
                      tracker statistics
     \finalize        drop the migration's drop_old tables (the ones
                      named after `drop` in \migrate)
     \tpcc [scale]    load a TPC-C database (tiny|small)
     \tables          list relations
     \obs             engine counters and subsystem stats (Obs.snapshot)
     \stats [json]    the same snapshot as Prometheus text exposition
                      (or JSON) — what the wire STATS command serves
     \trace [file]    dump recorded spans as a Chrome trace_event JSON
     \q               quit

   EXPLAIN ANALYZE <select> executes the query and annotates each plan
   node with its actual rows/loops/time.  EXPLAIN MIGRATION <create
   table ... as (select ...)> prints the analyzer verdict for the
   migration that DDL describes.

   Everything else is executed as SQL through the BullFrog façade, so
   requests against tables under migration trigger lazy migration exactly
   as in the paper.  Start with:  dune exec bin/bullfrog_cli.exe *)

open Bullfrog_db
open Bullfrog_core

let say fmt = Printf.printf (fmt ^^ "\n%!")

let print_result = function
  | Executor.Rows (names, rows) ->
      say "%s" (String.concat " | " names);
      List.iter
        (fun row ->
          say "%s" (String.concat " | " (Array.to_list (Array.map Value.to_string row))))
        rows;
      say "(%d row(s))" (List.length rows)
  | Executor.Affected n -> say "AFFECTED %d" n
  | Executor.Done msg -> say "%s" msg
  | Executor.Explained plan -> print_string plan

let split_on_semi s =
  match String.index_opt s ';' with
  | None -> (s, "")
  | Some i -> (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))

(* \migrate / \lint share the header syntax:
     name [drop a,b] ; CREATE TABLE ... AS (SELECT ...) [; CREATE TABLE ...]
   Several ;-separated CREATE TABLE ... AS clauses become the outputs of
   ONE migration statement — the table-split form (§4.1), which is what
   the linter's disjointness/coverage proofs are about. *)
let parse_migration_spec ~usage line =
  let header, ddl = split_on_semi line in
  let tokens =
    String.split_on_char ' ' (String.trim header) |> List.filter (fun t -> t <> "")
  in
  match tokens with
  | name :: rest when String.trim ddl <> "" ->
      let drop_old =
        match rest with
        | "drop" :: tables :: _ -> String.split_on_char ',' tables
        | _ -> []
      in
      let outputs =
        String.split_on_char ';' ddl
        |> List.map String.trim
        |> List.filter (fun s -> s <> "")
        |> List.concat_map (fun sql ->
               (Migration.statement_of_sql ~name sql).Migration.outputs)
      in
      Some (Migration.make ~name ~drop_old [ { Migration.stmt_name = name; outputs } ])
  | _ ->
      say "usage: %s" usage;
      None

let handle_migrate bf line =
  match parse_migration_spec ~usage:"\\migrate <name> [drop t1,t2] ; <DDL>" line with
  | None -> ()
  | Some spec ->
      ignore (Lazy_db.start_migration bf spec : Migrate_exec.t);
      say "migration %S is live (logical switch done; data migrates lazily)"
        spec.Migration.name

let handle_lint db line =
  match parse_migration_spec ~usage:"\\lint <name> [drop t1,t2] ; <DDL>" line with
  | None -> ()
  | Some spec -> print_string (Mig_lint.format (Mig_lint.lint db.Database.catalog spec))

(* \invert: the invertibility slice of the analyzer — per-statement SMO
   class and verdict, plus the full derived rollback spec when one
   exists. *)
let handle_invert db line =
  match parse_migration_spec ~usage:"\\invert <name> [drop t1,t2] ; <DDL>" line with
  | None -> ()
  | Some spec ->
      let v = Mig_lint.lint db.Database.catalog spec in
      List.iter
        (fun (si : Mig_lint.stmt_invert) ->
          say "statement %S: %s — %s" si.Mig_lint.si_stmt
            (Bullfrog_analysis.Mig_invert.smo_to_string si.Mig_lint.si_smo)
            (Bullfrog_analysis.Mig_invert.verdict_summary si.Mig_lint.si_verdict))
        v.Mig_lint.lint_inverts;
      (match v.Mig_lint.lint_backward with
      | Some b ->
          say "derived rollback spec %S (drop %s):" b.Migration.name
            (String.concat ", " b.Migration.drop_old);
          List.iter
            (fun (st : Migration.statement) ->
              List.iter
                (fun (o : Migration.output) ->
                  say "  %s" (Migration.output_ddl o))
                st.Migration.outputs)
            b.Migration.statements
      | None ->
          if Mig_lint.invertible v then
            say "rollback = drop the output tables (nothing to reconstruct)"
          else say "no backward transform derivable — rollback impossible")

let handle_rollback bf =
  match Lazy_db.rollback_migration bf with
  | Some brt ->
      say
        "rolling back via %S (old schema is live again; stale rows purge and \
         reconstruct lazily — \\drain to finish, then \\finalize to drop the \
         new tables)"
        brt.Migrate_exec.spec.Migration.name
  | None -> say "rolled back: output tables dropped, old schema restored"

let show_progress bf =
  match Lazy_db.active bf with
  | None -> say "no migration in progress"
  | Some rt ->
      say "%s" (Migrate_exec.format_progress (Migrate_exec.progress_report rt));
      say "complete: %b" (Migrate_exec.complete rt);
      List.iter
        (fun (stmt : Migrate_exec.rt_stmt) ->
          List.iter
            (fun (input : Migrate_exec.rt_input) ->
              match input.Migrate_exec.ri_tracker with
              | Migrate_exec.RT_bitmap bt ->
                  let s = Bitmap_tracker.stats bt in
                  say "  %-16s bitmap  %d/%d migrated, %d in progress"
                    input.Migrate_exec.ri_heap.Heap.name s.Tracker.migrated
                    s.Tracker.total s.Tracker.in_progress
              | Migrate_exec.RT_hash (ht, _) ->
                  let s = Hash_tracker.stats ht in
                  say "  %-16s hashmap %d keys seen, %d migrated, %d in progress"
                    input.Migrate_exec.ri_heap.Heap.name s.Tracker.total
                    s.Tracker.migrated s.Tracker.in_progress
              | Migrate_exec.RT_none ->
                  say "  %-16s untracked" input.Migrate_exec.ri_heap.Heap.name)
            stmt.Migrate_exec.rs_inputs;
          match stmt.Migrate_exec.rs_pair with
          | Some pr ->
              let s = Hash_tracker.stats pr.Migrate_exec.pr_tracker in
              say "  pair tracker     %d pairs seen, %d migrated" s.Tracker.total
                s.Tracker.migrated
          | None -> ())
        rt.Migrate_exec.stmts

let () =
  (* Counters and tracing are cheap at interactive rates; having them on
     makes \obs and \trace useful without a restart. *)
  Obs.Counters.set_enabled true;
  Obs.Trace.enable ();
  let db = Database.create () in
  let bf = Lazy_db.create db in
  say "BullFrog shell — lazy single-step schema evolution (type \\q to quit)";
  let buffer = Buffer.create 256 in
  let rec loop () =
    if Buffer.length buffer = 0 then print_string "bullfrog> " else print_string "     ...> ";
    flush stdout;
    match In_channel.input_line stdin with
    | None -> ()
    | Some line ->
        let line = String.trim line in
        if line = "\\q" || line = "\\quit" then ()
        else begin
          (try
             if String.length line > 0 && line.[0] = '\\' then begin
               Buffer.clear buffer;
               let cmd, rest =
                 match String.index_opt line ' ' with
                 | None -> (line, "")
                 | Some i ->
                     (String.sub line 0 i, String.sub line (i + 1) (String.length line - i - 1))
               in
               match cmd with
               | "\\migrate" -> handle_migrate bf rest
               | "\\lint" -> handle_lint db rest
               | "\\invert" -> handle_invert db rest
               | "\\rollback" -> handle_rollback bf
               | "\\bg" ->
                   let batch =
                     match int_of_string_opt (String.trim rest) with Some n -> n | None -> 256
                   in
                   say "migrated %d granule(s)" (Lazy_db.background_step bf ~batch)
               | "\\drain" ->
                   let total = ref 0 in
                   let rec go () =
                     let n = Lazy_db.background_step bf ~batch:256 in
                     if n > 0 then begin
                       total := !total + n;
                       go ()
                     end
                   in
                   go ();
                   say "migrated %d granule(s); complete: %b" !total
                     (Lazy_db.migration_complete bf)
               | "\\progress" -> show_progress bf
               | "\\obs" -> print_string (Obs.render (Obs.snapshot ()))
               | "\\stats" ->
                   let snap = Obs.snapshot () in
                   (match String.trim rest with
                   | "json" ->
                       print_string (Exposition.to_json snap);
                       print_newline ()
                   | _ -> print_string (Exposition.to_prometheus snap))
               | "\\trace" ->
                   let file =
                     match String.trim rest with "" -> "cli.trace.json" | f -> f
                   in
                   (match Obs.Trace.write_chrome file with
                   | Ok n -> say "wrote %d span(s) to %s" n file
                   | Error msg -> say "trace export failed: %s" msg)
               | "\\finalize" ->
                   Lazy_db.finalize bf;
                   say "finalized"
               | "\\tables" ->
                   List.iter (say "  %s") (Catalog.table_names db.Database.catalog)
               | "\\tpcc" ->
                   let scale =
                     match String.trim rest with
                     | "small" -> Bullfrog_tpcc.Tpcc_schema.small
                     | _ -> Bullfrog_tpcc.Tpcc_schema.tiny
                   in
                   Bullfrog_tpcc.Loader.load db scale;
                   say "TPC-C loaded: %s"
                     (String.concat ", "
                        (List.map
                           (fun (n, c) -> Printf.sprintf "%s=%d" n c)
                           (Bullfrog_tpcc.Loader.row_counts db)))
               | other -> say "unknown command %s" other
             end
             else begin
               Buffer.add_string buffer line;
               Buffer.add_char buffer ' ';
               let text = Buffer.contents buffer in
               (* execute once the statement is terminated (or is complete
                  on one line without a semicolon) *)
               if String.contains line ';' || line <> "" then begin
                 match Bullfrog_sql.Parser.parse (Buffer.contents buffer) with
                 | stmts ->
                     Buffer.clear buffer;
                     List.iter
                       (fun stmt ->
                         print_result
                           (Lazy_db.exec bf (Bullfrog_sql.Pretty.stmt_to_string stmt)))
                       stmts
                 | exception Bullfrog_sql.Parser.Parse_error _
                   when not (String.contains text ';') ->
                     (* keep buffering *)
                     ()
               end
             end
           with
          | Db_error.Sql_error msg -> say "ERROR: %s" msg
          | Expr.Eval_error msg -> say "ERROR: %s" msg
          | Db_error.Constraint_violation msg -> say "ERROR: %s" msg
          | Db_error.Txn_abort msg -> say "ABORTED: %s" msg
          | Bullfrog_sql.Parser.Parse_error msg ->
              Buffer.clear buffer;
              say "parse error: %s" msg
          | Bullfrog_sql.Lexer.Lex_error (msg, pos) ->
              Buffer.clear buffer;
              say "lex error at %d: %s" pos msg);
          loop ()
        end
  in
  loop ()
