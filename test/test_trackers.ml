(* Bitmap and hashmap tracker semantics (paper §3.3/§3.4, Algorithms 2-3):
   unit cases, qcheck properties against pure models of each tracker, and
   real-thread stress tests for exactly-once migration. *)

open Bullfrog_core
open Bullfrog_db
open Bullfrog_sql

let check = Alcotest.check

let decision =
  Alcotest.testable
    (Fmt.of_to_string Tracker.decision_to_string)
    (fun a b -> a = b)

let decisions = Alcotest.list decision

(* ---------------- bitmap ---------------- *)

let bitmap_lifecycle () =
  let bt = Bitmap_tracker.create ~size:16 () in
  check Alcotest.int "granules" 16 (Bitmap_tracker.granule_count bt);
  check decisions "first acquire" [ Tracker.Migrate ] (Bitmap_tracker.try_acquire bt [ 3 ]);
  check decisions "second acquire skips" [ Tracker.Skip ] (Bitmap_tracker.try_acquire bt [ 3 ]);
  check Alcotest.bool "in progress" true (Bitmap_tracker.is_in_progress bt 3);
  check Alcotest.bool "not migrated" false (Bitmap_tracker.is_migrated bt 3);
  Bitmap_tracker.mark_migrated bt [ 3 ];
  check Alcotest.bool "migrated" true (Bitmap_tracker.is_migrated bt 3);
  check Alcotest.bool "lock cleared" false (Bitmap_tracker.is_in_progress bt 3);
  check decisions "after migrate" [ Tracker.Already_migrated ]
    (Bitmap_tracker.try_acquire bt [ 3 ]);
  Alcotest.check_raises "double completion"
    (Invalid_argument "Bitmap_tracker.mark_migrated: granule 3 already migrated")
    (fun () -> Bitmap_tracker.mark_migrated bt [ 3 ])

let bitmap_abort () =
  let bt = Bitmap_tracker.create ~size:8 () in
  check decisions "acquire" [ Tracker.Migrate ] (Bitmap_tracker.try_acquire bt [ 6 ]);
  Bitmap_tracker.mark_aborted bt [ 6 ];
  check Alcotest.bool "back to [0 0]" false (Bitmap_tracker.is_in_progress bt 6);
  (* §3.5 / Fig. 2: another worker can now take over *)
  check decisions "reacquire after abort" [ Tracker.Migrate ]
    (Bitmap_tracker.try_acquire bt [ 6 ])

let bitmap_pages () =
  let bt = Bitmap_tracker.create ~page_size:64 ~size:1000 () in
  check Alcotest.int "granule count rounds up" 16 (Bitmap_tracker.granule_count bt);
  check Alcotest.int "tid->granule" 2 (Bitmap_tracker.granule_of_tid bt 130);
  check decisions "page acquire" [ Tracker.Migrate ]
    (Bitmap_tracker.try_acquire bt [ Bitmap_tracker.granule_of_tid bt 130 ]);
  (* all tids of the page share the granule *)
  check decisions "same page skips" [ Tracker.Skip ]
    (Bitmap_tracker.try_acquire bt [ Bitmap_tracker.granule_of_tid bt 129 ])

let bitmap_progress_scan () =
  let bt = Bitmap_tracker.create ~size:10 () in
  let run = Alcotest.(option (pair int int)) in
  check run "first unmigrated" (Some (0, 10)) (Bitmap_tracker.next_unmigrated_run bt ~from:0);
  ignore (Bitmap_tracker.try_acquire bt [ 0; 1; 2; 3; 4 ] : Tracker.decision list);
  Bitmap_tracker.mark_migrated bt [ 0; 1; 2; 3; 4 ];
  check run "cursor skips migrated" (Some (5, 5))
    (Bitmap_tracker.next_unmigrated_run bt ~from:0);
  (* in-progress granules are skipped too (another worker owns them), and
     one ends a run *)
  ignore (Bitmap_tracker.try_acquire bt [ 5; 8 ] : Tracker.decision list);
  check run "skips in-progress" (Some (6, 2)) (Bitmap_tracker.next_unmigrated_run bt ~from:0);
  check run "run after in-progress" (Some (9, 1))
    (Bitmap_tracker.next_unmigrated_run bt ~from:8);
  let s = Bitmap_tracker.stats bt in
  check Alcotest.int "stats migrated" 5 s.Tracker.migrated;
  check Alcotest.int "stats in progress" 2 s.Tracker.in_progress;
  check Alcotest.bool "not complete" false (Bitmap_tracker.complete bt);
  Bitmap_tracker.mark_migrated bt [ 5; 8 ];
  List.iter (Bitmap_tracker.force_migrated bt) [ 6; 7; 9 ];
  check run "none left" None (Bitmap_tracker.next_unmigrated_run bt ~from:0);
  check Alcotest.bool "complete" true (Bitmap_tracker.complete bt)

(* The background migrator passes its remaining budget as the run cap:
   the walk stops there instead of crossing the whole free region, and
   resuming from the cursor still reaches every granule. *)
let bitmap_run_cap () =
  let n = 200_000 in
  let bt = Bitmap_tracker.create ~size:n () in
  let run = Alcotest.(option (pair int int)) in
  check run "capped" (Some (0, 10)) (Bitmap_tracker.next_unmigrated_run bt ~from:0 ~max_len:10);
  check run "uncapped is maximal" (Some (0, n)) (Bitmap_tracker.next_unmigrated_run bt ~from:0);
  check run "cap past the end" (Some (n - 5, 5))
    (Bitmap_tracker.next_unmigrated_run bt ~from:(n - 5) ~max_len:64);
  Alcotest.check_raises "cap must be positive"
    (Invalid_argument "Bitmap_tracker: run length cap must be positive") (fun () ->
      ignore (Bitmap_tracker.next_unmigrated_run bt ~from:0 ~max_len:0));
  (* whole-word steps are the walk's cost: bounded by the cap, not by n *)
  let was = Obs.Counters.enabled () in
  Obs.Counters.set_enabled true;
  let skips = Obs.Counters.make "core.bitmap.word_skips" in
  let steps f =
    let v0 = Obs.Counters.value skips in
    ignore (f () : (int * int) option);
    Obs.Counters.value skips - v0
  in
  let capped, uncapped =
    Fun.protect
      ~finally:(fun () -> Obs.Counters.set_enabled was)
      (fun () ->
        ( steps (fun () -> Bitmap_tracker.next_unmigrated_run bt ~from:0 ~max_len:100),
          steps (fun () -> Bitmap_tracker.next_unmigrated_run bt ~from:0) ))
  in
  check Alcotest.bool (Printf.sprintf "capped walk takes %d word steps" capped) true (capped <= 4);
  check Alcotest.bool
    (Printf.sprintf "uncapped walk takes %d word steps" uncapped)
    true
    (uncapped >= (n / 32) - 2);
  (* resumption: scattered settled granules, cap 7, cursor wrap as in
     the background migrator; every granule is committed exactly once *)
  let n = 1000 in
  let bt = Bitmap_tracker.create ~size:n () in
  let pre = List.filter (fun g -> g mod 37 = 5 || (g >= 300 && g < 340)) (List.init n Fun.id) in
  Bitmap_tracker.mark_migrated bt pre;
  let seen = Array.make n 0 in
  List.iter (fun g -> seen.(g) <- 1) pre;
  let cursor = ref 0 and continue_ = ref true in
  while !continue_ do
    match Bitmap_tracker.next_unmigrated_run bt ~from:!cursor ~max_len:7 with
    | None -> if !cursor > 0 then cursor := 0 else continue_ := false
    | Some (start, len) ->
        if len < 1 || len > 7 then Alcotest.failf "run (%d, %d) breaks the cap" start len;
        let gs = List.init len (fun i -> start + i) in
        Bitmap_tracker.mark_migrated bt gs;
        List.iter (fun g -> seen.(g) <- seen.(g) + 1) gs;
        cursor := start + len
  done;
  check Alcotest.bool "complete" true (Bitmap_tracker.complete bt);
  check Alcotest.bool "every granule exactly once" true (Array.for_all (( = ) 1) seen)

(* Candidate scans skip migrated runs ([Migrate_exec.candidate_rows]).
   From random bitmap states — free / in-progress / migrated runs of 1-70
   granules, so runs straddle the 32-granule words, at page sizes 1 and
   above, with deleted rows and rows appended past the bitmap — a
   sequential candidate scan returns exactly "scan everything, then drop
   rows of migrated granules".  In-progress granules stay candidates (the
   request must still SKIP-wait for them); index paths skip nothing. *)
let candidate_scan_model_prop =
  let gen =
    QCheck.Gen.(
      quad
        (list_size (int_range 1 14) (pair (int_range 0 2) (int_range 1 70)))
        (oneofl [ 1; 1; 2; 5 ])
        (pair (int_range 0 4) (int_range 0 9))
        (pair (int_range 0 6) (int_range 0 1000)))
  in
  let print (runs, page, (slack, k), (extra, seed)) =
    Printf.sprintf "runs=[%s] page=%d slack=%d k=%d extra=%d seed=%d"
      (String.concat "; " (List.map (fun (s, l) -> Printf.sprintf "%d×%d" s l) runs))
      page slack k extra seed
  in
  QCheck.Test.make ~name:"candidate scan skips exactly the migrated granules" ~count:150
    (QCheck.make gen ~print) (fun (runs, page, (slack, k), (extra, seed)) ->
      let rng = Random.State.make [| seed |] in
      let states = Array.of_list (List.concat_map (fun (st, len) -> List.init len (fun _ -> st)) runs) in
      let granules = Array.length states in
      let rows = max 1 ((granules * page) - min slack (page - 1)) in
      let db = Database.create () in
      ignore (Database.exec db "CREATE TABLE s (id INT PRIMARY KEY, v INT)" : Executor.result);
      let heap = Catalog.find_table_exn db.Database.catalog "s" in
      for id = 0 to rows - 1 do
        ignore (Heap.insert heap [| Value.Int id; Value.Int (Random.State.int rng 10) |] : int)
      done;
      for tid = 0 to rows - 1 do
        if Random.State.int rng 8 = 0 then ignore (Heap.delete heap tid : Heap.row)
      done;
      let bt = Bitmap_tracker.create ~page_size:page ~size:(Heap.tid_count heap) () in
      Array.iteri
        (fun g st ->
          if g < Bitmap_tracker.granule_count bt && st > 0 then begin
            ignore (Bitmap_tracker.try_acquire bt [ g ] : Tracker.decision list);
            if st = 2 then Bitmap_tracker.mark_migrated bt [ g ]
          end)
        states;
      (* rows appended after the bitmap was sized are not tracked *)
      for id = rows to rows + extra - 1 do
        ignore (Heap.insert heap [| Value.Int id; Value.Int (Random.State.int rng 10) |] : int)
      done;
      let migrated tid =
        let g = Bitmap_tracker.granule_of_tid bt tid in
        g < Bitmap_tracker.granule_count bt && Bitmap_tracker.is_migrated bt g
      in
      let tids rs = List.map fst rs in
      let compare_with ~skips where =
        let pred = Option.map Parser.parse_expr where in
        let full =
          Database.with_txn db (fun txn -> Access.scan_pred ~latest:true txn heap pred)
        in
        let want = if skips then List.filter (fun (tid, _) -> not (migrated tid)) full else full in
        let got =
          Migrate_exec.candidate_rows db heap (Migrate_exec.RT_bitmap bt)
            (Migrate_exec.cand_pred heap pred)
        in
        if tids got <> tids want then begin
          let only a b =
            List.filteri (fun i _ -> i < 10) (List.filter (fun t -> not (List.mem t b)) a)
            |> List.map string_of_int |> String.concat ","
          in
          QCheck.Test.fail_reportf "%s: %d candidates vs %d in the model; extra [%s] missing [%s]"
            (Option.value where ~default:"no predicate")
            (List.length got) (List.length want)
            (only (tids got) (tids want))
            (only (tids want) (tids got))
        end;
        List.iter
          (fun (tid, _) ->
            let g = Bitmap_tracker.granule_of_tid bt tid in
            if
              g < Bitmap_tracker.granule_count bt
              && Bitmap_tracker.is_in_progress bt g
              && not (List.mem_assoc tid got)
            then QCheck.Test.fail_reportf "in-progress tid %d dropped" tid)
          full
      in
      compare_with ~skips:true None;
      compare_with ~skips:true (Some (Printf.sprintf "v < %d" k));
      compare_with ~skips:true (Some (Printf.sprintf "v = %d OR v IN (%d, NULL)" k (k + 3)));
      compare_with ~skips:false (Some (Printf.sprintf "id = %d" (k * 7)));
      true)

(* The probe map ([Probe_map], through [Migrate_exec.input_candidates])
   answers exactly like the pending-range scan it replaces.  The map is
   built on the first probe and then outlives granules migrating, in
   progress ones aborting, rows appended past the bitmap, a transaction
   open across the switch that re-keyed a row and aborts after the build,
   and optionally an ADD COLUMN (a new epoch: the map is rebuilt). *)
let probe_map_model_prop =
  let gen =
    QCheck.Gen.(
      quad
        (list_size (int_range 1 14) (pair (int_range 0 2) (int_range 1 70)))
        (oneofl [ 1; 2; 5 ])
        (pair (int_range 0 9) bool)
        (pair (int_range 0 6) (int_range 0 1000)))
  in
  let print (runs, page, (k, alter), (extra, seed)) =
    Printf.sprintf "runs=[%s] page=%d k=%d alter=%b extra=%d seed=%d"
      (String.concat "; " (List.map (fun (s, l) -> Printf.sprintf "%d×%d" s l) runs))
      page k alter extra seed
  in
  QCheck.Test.make ~name:"probe map answers like the pending-range scan" ~count:150
    (QCheck.make gen ~print) (fun (runs, page, (k, alter), (extra, seed)) ->
      let was = Obs.Counters.enabled () in
      Obs.Counters.set_enabled true;
      Fun.protect ~finally:(fun () -> Obs.Counters.set_enabled was) @@ fun () ->
      let rng = Random.State.make [| seed |] in
      let states =
        Array.of_list (List.concat_map (fun (st, len) -> List.init len (fun _ -> st)) runs)
      in
      let rows = Array.length states * page in
      let victim = rows / 2 in
      let value () =
        if Random.State.int rng 12 = 0 then Value.Null else Value.Int (Random.State.int rng 10)
      in
      let db = Database.create () in
      ignore (Database.exec db "CREATE TABLE s (id INT PRIMARY KEY, v INT)" : Executor.result);
      let heap = Catalog.find_table_exn db.Database.catalog "s" in
      for id = 0 to rows - 1 do
        let v = if id = victim then Value.Int k else value () in
        ignore (Heap.insert heap [| Value.Int id; v |] : int)
      done;
      for tid = 0 to rows - 1 do
        if tid <> victim && Random.State.int rng 8 = 0 then ignore (Heap.delete heap tid : Heap.row)
      done;
      (* open across the switch: re-keys the victim, aborts after the build *)
      let pre = Database.begin_txn db in
      ignore
        (Database.exec_in db pre (Printf.sprintf "UPDATE s SET v = %d WHERE id = %d" (k + 50) victim)
          : Executor.result);
      let rt =
        Migrate_exec.install ~page_size:page ~mig_id:1 db
          (Migration.make ~name:"pm"
             [ Migration.statement_of_sql "CREATE TABLE d AS (SELECT id, v FROM s)" ])
      in
      let input = List.hd (List.hd rt.Migrate_exec.stmts).Migrate_exec.rs_inputs in
      let bt =
        match input.Migrate_exec.ri_tracker with
        | Migrate_exec.RT_bitmap bt -> bt
        | _ -> QCheck.Test.fail_report "copy input should be bitmap-tracked"
      in
      Array.iteri
        (fun g st ->
          if g < Bitmap_tracker.granule_count bt && st > 0 then begin
            ignore (Bitmap_tracker.try_acquire bt [ g ] : Tracker.decision list);
            if st = 2 then Bitmap_tracker.mark_migrated bt [ g ]
          end)
        states;
      let preds =
        [
          Printf.sprintf "v = %d" k;
          Printf.sprintf "v IN (%d, %d, NULL, %d)" k k (k + 3);
          Printf.sprintf "%d = v AND id <> 3" ((k + 1) mod 10);
          Printf.sprintf "v = %d AND id > 3" k;
          "v IN (NULL)";
          "v = 1000";
        ]
      in
      let compare_all phase =
        List.iter
          (fun where ->
            let cp = Migrate_exec.cand_pred heap (Some (Parser.parse_expr where)) in
            let want = Migrate_exec.candidate_rows db heap input.Migrate_exec.ri_tracker cp in
            let got = Migrate_exec.input_candidates rt input cp in
            if got <> want then
              QCheck.Test.fail_reportf "%s, %s: %d rows [%s] vs %d in the pending scan [%s]"
                phase where (List.length got)
                (String.concat "," (List.map (fun (t, _) -> string_of_int t) got))
                (List.length want)
                (String.concat "," (List.map (fun (t, _) -> string_of_int t) want)))
          preds
      in
      let before = Obs.Counters.snapshot () in
      compare_all "at the build";
      Database.abort db pre;
      Array.iteri
        (fun g _ ->
          if g < Bitmap_tracker.granule_count bt then
            match Random.State.int rng 4 with
            | 0 when Bitmap_tracker.is_in_progress bt g -> Bitmap_tracker.mark_aborted bt [ g ]
            | 1 when not (Bitmap_tracker.is_migrated bt g) ->
                ignore (Bitmap_tracker.try_acquire bt [ g ] : Tracker.decision list);
                Bitmap_tracker.mark_migrated bt [ g ]
            | _ -> ())
        states;
      for id = rows to rows + extra - 1 do
        let v = if id mod 2 = 0 then Value.Int k else value () in
        ignore (Heap.insert heap [| Value.Int id; v |] : int)
      done;
      if alter then
        ignore (Database.exec db "ALTER TABLE s ADD COLUMN w INT" : Executor.result);
      compare_all "after the build";
      let probes =
        Option.value ~default:0
          (List.assoc_opt "core.migrate.candidate_probes"
             (Obs.Counters.diff (Obs.Counters.snapshot ()) before))
      in
      if probes = 0 && not (Bitmap_tracker.complete bt) then
        QCheck.Test.fail_report "no scan was answered from the probe map";
      true)

let bitmap_force_idempotent () =
  let bt = Bitmap_tracker.create ~size:4 () in
  Bitmap_tracker.force_migrated bt 1;
  Bitmap_tracker.force_migrated bt 1;
  check Alcotest.int "force counted once" 1 (Bitmap_tracker.stats bt).Tracker.migrated

(* A flip that raises mid-list keeps the flips before it, and must count
   them: otherwise [complete] can never hold. *)
let bitmap_flip_error_counts () =
  let bt = Bitmap_tracker.create ~size:3 () in
  ignore (Bitmap_tracker.try_acquire bt [ 0; 1; 2 ] : Tracker.decision list);
  Bitmap_tracker.mark_migrated bt [ 2 ];
  Alcotest.check_raises "granule 2 already migrated"
    (Invalid_argument "Bitmap_tracker.mark_migrated: granule 2 already migrated")
    (fun () -> Bitmap_tracker.mark_migrated bt [ 0; 1; 2 ]);
  List.iter
    (fun g -> check Alcotest.bool "flipped" true (Bitmap_tracker.is_migrated bt g))
    [ 0; 1; 2 ];
  check Alcotest.int "stats migrated" 3 (Bitmap_tracker.stats bt).Tracker.migrated;
  check Alcotest.bool "complete" true (Bitmap_tracker.complete bt)

(* Exactly-once under real threads: N threads race to acquire every
   granule; each granule must be granted exactly once. *)
let bitmap_thread_stress () =
  let n = 2048 and threads = 8 in
  let bt = Bitmap_tracker.create ~size:n () in
  let wins = Array.make threads 0 in
  let ths =
    List.init threads (fun t ->
        Thread.create
          (fun () ->
            for g = 0 to n - 1 do
              match Bitmap_tracker.try_acquire bt [ g ] with
              | [ Tracker.Migrate ] ->
                  wins.(t) <- wins.(t) + 1;
                  Thread.yield ();
                  Bitmap_tracker.mark_migrated bt [ g ]
              | _ -> ()
            done)
          ())
  in
  List.iter Thread.join ths;
  check Alcotest.int "every granule granted exactly once" n
    (Array.fold_left ( + ) 0 wins)

let bitmap_prop_exactly_once =
  QCheck.Test.make ~name:"bitmap: a granule is granted exactly once (serial)"
    ~count:50
    QCheck.(pair (int_range 1 200) (list_of_size (QCheck.Gen.int_range 0 400) (int_range 0 199)))
    (fun (size, accesses) ->
      let bt = Bitmap_tracker.create ~size:200 () in
      ignore size;
      let grants = Hashtbl.create 16 in
      List.iter
        (fun g ->
          match Bitmap_tracker.try_acquire bt [ g ] with
          | [ Tracker.Migrate ] ->
              if Hashtbl.mem grants g then failwith "double grant";
              Hashtbl.add grants g ();
              Bitmap_tracker.mark_migrated bt [ g ]
          | [ Tracker.Skip ] -> failwith "skip impossible in serial use"
          | [ Tracker.Already_migrated ] ->
              if not (Hashtbl.mem grants g) then failwith "already without grant"
          | _ -> failwith "one decision per granule")
        accesses;
      true)

(* ---------------- hashmap ---------------- *)

let key vs = Array.of_list (List.map (fun i -> Value.Int i) vs)

let hash_lifecycle () =
  let ht = Hash_tracker.create () in
  check decisions "first" [ Tracker.Migrate ] (Hash_tracker.try_acquire ht [ key [ 1; 2 ] ]);
  check decisions "concurrent" [ Tracker.Skip ] (Hash_tracker.try_acquire ht [ key [ 1; 2 ] ]);
  check (Alcotest.option Alcotest.bool) "state in-progress" (Some true)
    (Option.map (fun s -> s = Hash_tracker.In_progress) (Hash_tracker.state_of ht (key [ 1; 2 ])));
  Hash_tracker.mark_migrated ht [ key [ 1; 2 ] ];
  check decisions "after commit" [ Tracker.Already_migrated ]
    (Hash_tracker.try_acquire ht [ key [ 1; 2 ] ]);
  check Alcotest.bool "unknown key state" true (Hash_tracker.state_of ht (key [ 9 ]) = None);
  (* composite keys compare by value, not identity *)
  check Alcotest.bool "fresh array equal key" true (Hash_tracker.is_migrated ht (key [ 1; 2 ]))

let hash_abort_takeover () =
  let ht = Hash_tracker.create () in
  ignore (Hash_tracker.try_acquire ht [ key [ 7 ] ] : Tracker.decision list);
  Hash_tracker.mark_aborted ht [ key [ 7 ] ];
  check (Alcotest.option Alcotest.bool) "aborted state" (Some true)
    (Option.map (fun s -> s = Hash_tracker.Aborted) (Hash_tracker.state_of ht (key [ 7 ])));
  (* Alg. 3 lines 7-9: an aborted key can be re-acquired *)
  check decisions "takeover" [ Tracker.Migrate ] (Hash_tracker.try_acquire ht [ key [ 7 ] ]);
  Hash_tracker.mark_migrated ht [ key [ 7 ] ];
  check Alcotest.bool "migrated" true (Hash_tracker.is_migrated ht (key [ 7 ]))

let hash_errors () =
  let ht = Hash_tracker.create () in
  Alcotest.check_raises "commit unknown"
    (Invalid_argument "Hash_tracker.mark_migrated: unknown key") (fun () ->
      Hash_tracker.mark_migrated ht [ key [ 1 ] ]);
  ignore (Hash_tracker.try_acquire ht [ key [ 1 ] ] : Tracker.decision list);
  Hash_tracker.mark_migrated ht [ key [ 1 ] ];
  Alcotest.check_raises "double commit"
    (Invalid_argument "Hash_tracker.mark_migrated: key already migrated") (fun () ->
      Hash_tracker.mark_migrated ht [ key [ 1 ] ]);
  Alcotest.check_raises "abort migrated"
    (Invalid_argument "Hash_tracker.mark_aborted: key is migrated") (fun () ->
      Hash_tracker.mark_aborted ht [ key [ 1 ] ])

let hash_stats_iter () =
  let ht = Hash_tracker.create () in
  ignore (Hash_tracker.try_acquire ht [ key [ 1 ]; key [ 2 ] ] : Tracker.decision list);
  Hash_tracker.mark_migrated ht [ key [ 2 ] ];
  let s = Hash_tracker.stats ht in
  check Alcotest.int "total" 2 s.Tracker.total;
  check Alcotest.int "migrated" 1 s.Tracker.migrated;
  check Alcotest.int "in progress" 1 s.Tracker.in_progress;
  let n = ref 0 in
  Hash_tracker.iter ht (fun _ _ -> incr n);
  check Alcotest.int "iter" 2 !n

let hash_thread_stress () =
  let keys = Array.init 512 (fun i -> key [ i mod 64; i / 64 ]) in
  let ht = Hash_tracker.create () in
  let wins = Array.make 8 0 in
  let ths =
    List.init 8 (fun t ->
        Thread.create
          (fun () ->
            Array.iter
              (fun k ->
                match Hash_tracker.try_acquire ht [ k ] with
                | [ Tracker.Migrate ] ->
                    wins.(t) <- wins.(t) + 1;
                    Thread.yield ();
                    Hash_tracker.mark_migrated ht [ k ]
                | _ -> ())
              keys)
          ())
  in
  List.iter Thread.join ths;
  check Alcotest.int "each key granted exactly once" 512 (Array.fold_left ( + ) 0 wins)

(* Aborting threads: some winners abort; every key must still end up
   migrated exactly once overall (the takeover path). *)
let hash_abort_stress () =
  let keys = Array.init 128 (fun i -> key [ i ]) in
  let ht = Hash_tracker.create () in
  let commits = Atomic.make 0 in
  let ths =
    List.init 8 (fun t ->
        Thread.create
          (fun () ->
            let rng = Rng.create (t + 100) in
            Array.iter
              (fun k ->
                let rec attempt tries =
                  if tries > 1000 then failwith "livelock"
                  else
                    match Hash_tracker.try_acquire ht [ k ] with
                    | [ Tracker.Migrate ] ->
                        Thread.yield ();
                        if Rng.int rng 4 = 0 then begin
                          Hash_tracker.mark_aborted ht [ k ];
                          attempt (tries + 1)
                        end
                        else begin
                          Hash_tracker.mark_migrated ht [ k ];
                          Atomic.incr commits
                        end
                    | _ -> ()
                in
                attempt 0)
              keys)
          ())
  in
  List.iter Thread.join ths;
  (* Some keys may be left Aborted if the last toucher aborted and nobody
     revisited; sweep them serially like the SKIP loop would. *)
  Array.iter
    (fun k ->
      match Hash_tracker.try_acquire ht [ k ] with
      | [ Tracker.Migrate ] ->
          Hash_tracker.mark_migrated ht [ k ];
          Atomic.incr commits
      | [ Tracker.Skip ] -> failwith "no other worker can be in progress now"
      | _ -> ())
    keys;
  check Alcotest.int "every key committed exactly once" 128 (Atomic.get commits);
  Array.iter
    (fun k ->
      if not (Hash_tracker.is_migrated ht k) then Alcotest.fail "key left unmigrated")
    keys


let hash_flip_error_counts () =
  let ht = Hash_tracker.create () in
  ignore (Hash_tracker.try_acquire ht [ key [ 1 ] ] : Tracker.decision list);
  (* key 1's partition is visited first, so its flip precedes the error *)
  Alcotest.check_raises "unknown key"
    (Invalid_argument "Hash_tracker.mark_migrated: unknown key") (fun () ->
      Hash_tracker.mark_migrated ht [ key [ 1 ]; key [ 2 ] ]);
  check Alcotest.bool "flipped" true (Hash_tracker.is_migrated ht (key [ 1 ]));
  check Alcotest.int "stats migrated" 1 (Hash_tracker.stats ht).Tracker.migrated

(* ---------------- list operations against pure models ---------------- *)

(* A run of operations, each on a list of raw granule ids: 0 acquire the
   list; 1 commit the list's granules the model holds in progress (the
   engine's use); 2 commit the raw list, which may name migrated granules
   and duplicates; 3 abort the list's granules the model holds. *)
let gen_ops =
  QCheck.(
    list_of_size (Gen.int_range 1 30)
      (pair (int_range 0 3) (list_of_size (Gen.int_range 0 12) (int_range 0 139))))

(* Bitmap model: 0 free, 1 in progress, 2 migrated.  Every operation goes
   through the list in input order, and a failing flip stops at the first
   migrated granule. *)
let bitmap_model_prop =
  QCheck.Test.make ~name:"bitmap: list ops ≡ model" ~count:300
    QCheck.(pair bool gen_ops)
    (fun (wide, ops) ->
      (* narrow: 12 granules, so runs often complete the bitmap; wide:
         granules on both sides of the 1024-granule chunk boundary *)
      let size = if wide then 1100 else 12 in
      let granule i = if not wide then i mod size else if i < 40 then i else 934 + i in
      let bt = Bitmap_tracker.create ~size () in
      let model = Array.make size 0 in
      let apply (kind, raw) =
        let gs = List.map granule raw in
        match kind with
        | 0 ->
            let expect =
              List.rev
                (List.fold_left
                   (fun acc g ->
                     let d : Tracker.decision =
                       match model.(g) with
                       | 2 -> Already_migrated
                       | 1 -> Skip
                       | _ ->
                           model.(g) <- 1;
                           Migrate
                     in
                     d :: acc)
                   [] gs)
            in
            if Bitmap_tracker.try_acquire bt gs <> expect then
              QCheck.Test.fail_report "acquire decisions differ"
        | 1 | 2 ->
            let gs = if kind = 1 then List.filter (fun g -> model.(g) = 1) gs else gs in
            let rec flip = function
              | [] -> None
              | g :: rest ->
                  if model.(g) = 2 then
                    Some
                      (Printf.sprintf "Bitmap_tracker.mark_migrated: granule %d already migrated"
                         g)
                  else begin
                    model.(g) <- 2;
                    flip rest
                  end
            in
            let want = flip gs in
            let got =
              match Bitmap_tracker.mark_migrated bt gs with
              | () -> None
              | exception Invalid_argument msg -> Some msg
            in
            if got <> want then QCheck.Test.fail_report "mark_migrated outcome differs"
        | _ ->
            let gs = List.filter (fun g -> model.(g) = 1) gs in
            List.iter (fun g -> model.(g) <- 0) gs;
            Bitmap_tracker.mark_aborted bt gs
      in
      let agrees () =
        List.iter
          (fun i ->
            let g = granule i in
            if
              Bitmap_tracker.is_migrated bt g <> (model.(g) = 2)
              || Bitmap_tracker.is_in_progress bt g <> (model.(g) = 1)
            then QCheck.Test.fail_reportf "granule %d differs from the model" g)
          (List.init 140 Fun.id);
        let count v = Array.fold_left (fun n x -> if x = v then n + 1 else n) 0 model in
        let s = Bitmap_tracker.stats bt in
        if s.Tracker.total <> size || s.Tracker.migrated <> count 2
           || s.Tracker.in_progress <> count 1
        then QCheck.Test.fail_report "stats differ from the model";
        if Bitmap_tracker.complete bt <> (count 2 = size) then
          QCheck.Test.fail_report "complete differs from the model"
      in
      List.iter
        (fun op ->
          apply op;
          agrees ())
        ops;
      true)

(* Hash model: a key is absent or in one of the tracker's three states.
   Decisions for a key depend only on earlier occurrences of that key, so
   they are exact.  A failing flip is not: keys are visited partition by
   partition, so which flips precede the error is the tracker's choice —
   the model checks each listed key either kept its state or was flipped
   from in progress / aborted, then takes the tracker's states. *)
let hash_model_prop =
  QCheck.Test.make ~name:"hash: list ops ≡ model" ~count:300 gen_ops (fun ops ->
      let nkeys = 24 in
      (* few partitions, so one list both spans and shares them *)
      let ht = Hash_tracker.create ~stripes:4 () in
      let model : (int, Hash_tracker.state) Hashtbl.t = Hashtbl.create 16 in
      let state i = Hashtbl.find_opt model i in
      let apply (kind, raw) =
        let ids = List.map (fun i -> i mod nkeys) raw in
        let keys = List.map (fun i -> key [ i ]) ids in
        match kind with
        | 0 ->
            let expect =
              List.rev
                (List.fold_left
                   (fun acc i ->
                     let d : Tracker.decision =
                       match state i with
                       | Some Hash_tracker.Migrated -> Already_migrated
                       | Some Hash_tracker.In_progress -> Skip
                       | Some Hash_tracker.Aborted | None ->
                           Hashtbl.replace model i Hash_tracker.In_progress;
                           Migrate
                     in
                     d :: acc)
                   [] ids)
            in
            if Hash_tracker.try_acquire ht keys <> expect then
              QCheck.Test.fail_report "acquire decisions differ"
        | 1 | 2 -> (
            let ids =
              if kind = 1 then List.filter (fun i -> state i = Some Hash_tracker.In_progress) ids
              else ids
            in
            let after = Hashtbl.copy model in
            let fails =
              List.exists
                (fun i ->
                  match Hashtbl.find_opt after i with
                  | Some Hash_tracker.Migrated | None -> true
                  | Some Hash_tracker.In_progress | Some Hash_tracker.Aborted ->
                      Hashtbl.replace after i Hash_tracker.Migrated;
                      false)
                ids
            in
            match Hash_tracker.mark_migrated ht (List.map (fun i -> key [ i ]) ids) with
            | () ->
                if fails then QCheck.Test.fail_report "mark_migrated should have raised";
                Hashtbl.reset model;
                Hashtbl.iter (Hashtbl.replace model) after
            | exception Invalid_argument msg ->
                if not fails then QCheck.Test.fail_reportf "unexpected error: %s" msg;
                if
                  msg <> "Hash_tracker.mark_migrated: key already migrated"
                  && msg <> "Hash_tracker.mark_migrated: unknown key"
                then QCheck.Test.fail_reportf "wrong error: %s" msg;
                List.iter
                  (fun i ->
                    let now = Hash_tracker.state_of ht (key [ i ]) in
                    (match (state i, now) with
                    | before, now when before = now -> ()
                    | ( (Some Hash_tracker.In_progress | Some Hash_tracker.Aborted),
                        Some Hash_tracker.Migrated ) ->
                        ()
                    | _ -> QCheck.Test.fail_reportf "key %d changed state illegally" i);
                    Option.iter (Hashtbl.replace model i) now)
                  ids)
        | _ ->
            let ids =
              List.filter
                (fun i ->
                  match state i with
                  | Some Hash_tracker.In_progress | Some Hash_tracker.Aborted -> true
                  | Some Hash_tracker.Migrated | None -> false)
                ids
            in
            List.iter (fun i -> Hashtbl.replace model i Hash_tracker.Aborted) ids;
            Hash_tracker.mark_aborted ht (List.map (fun i -> key [ i ]) ids)
      in
      let agrees () =
        for i = 0 to nkeys - 1 do
          if Hash_tracker.state_of ht (key [ i ]) <> state i then
            QCheck.Test.fail_reportf "key %d differs from the model" i
        done;
        let count v = Hashtbl.fold (fun _ s n -> if s = v then n + 1 else n) model 0 in
        let s = Hash_tracker.stats ht in
        if s.Tracker.total <> Hashtbl.length model
           || s.Tracker.migrated <> count Hash_tracker.Migrated
           || s.Tracker.in_progress <> count Hash_tracker.In_progress
        then QCheck.Test.fail_report "stats differ from the model"
      in
      List.iter
        (fun op ->
          apply op;
          agrees ())
        ops;
      true)

(* ---------------- concurrent list operations ---------------- *)

(* The granules of [gs] this call acquired. *)
let acquired bt gs =
  List.fold_right2
    (fun g d acc -> if d = Tracker.Migrate then g :: acc else acc)
    gs (Bitmap_tracker.try_acquire bt gs) []

(* Exactly-once when list workers of sizes 1 and 64 race a worker driven by
   [next_unmigrated_run]: every granule is committed exactly once (a double
   commit would raise), and the bitmap ends complete. *)
let batch_thread_stress () =
  let n = 8192 in
  let bt = Bitmap_tracker.create ~size:n () in
  let commits = Array.make 4 0 in
  (* the size-1 worker aborts some of its wins, leaving them to the others
     or to the sweep below *)
  let list_worker slot size =
    let g = ref 0 in
    while !g < n do
      let len = min size (n - !g) in
      let wip = acquired bt (List.init len (fun i -> !g + i)) in
      Thread.yield ();
      let abort, commit = List.partition (fun g -> size = 1 && g land 63 = 17) wip in
      Bitmap_tracker.mark_aborted bt abort;
      Bitmap_tracker.mark_migrated bt commit;
      commits.(slot) <- commits.(slot) + List.length commit;
      g := !g + len
    done
  in
  let run_worker slot =
    let cursor = ref 0 in
    let continue_ = ref true in
    while !continue_ do
      match Bitmap_tracker.next_unmigrated_run bt ~from:!cursor with
      | None -> if !cursor = 0 then continue_ := false else cursor := 0
      | Some (start, len) ->
          let len = min len 96 in
          let wip = acquired bt (List.init len (fun i -> start + i)) in
          Thread.yield ();
          Bitmap_tracker.mark_migrated bt wip;
          commits.(slot) <- commits.(slot) + List.length wip;
          cursor := start + len
    done
  in
  let ths =
    [
      Thread.create (fun () -> list_worker 0 1) ();
      Thread.create (fun () -> list_worker 1 64) ();
      Thread.create (fun () -> run_worker 2) ();
      Thread.create (fun () -> list_worker 3 64) ();
    ]
  in
  List.iter Thread.join ths;
  (* granules whose size-1 winner aborted may be left over; sweep serially *)
  let swept = ref 0 in
  let rec sweep () =
    match Bitmap_tracker.next_unmigrated_run bt ~from:0 with
    | None -> ()
    | Some (start, len) ->
        let wip = acquired bt (List.init len (fun i -> start + i)) in
        if List.length wip <> len then Alcotest.fail "granule stuck in progress after join";
        Bitmap_tracker.mark_migrated bt wip;
        swept := !swept + len;
        sweep ()
  in
  sweep ();
  check Alcotest.bool "complete" true (Bitmap_tracker.complete bt);
  check Alcotest.int "every granule committed exactly once" n
    (Array.fold_left ( + ) 0 commits + !swept)

let suite =
  [
    Alcotest.test_case "bitmap lifecycle" `Quick bitmap_lifecycle;
    Alcotest.test_case "bitmap abort" `Quick bitmap_abort;
    Alcotest.test_case "bitmap pages" `Quick bitmap_pages;
    Alcotest.test_case "bitmap progress scan" `Quick bitmap_progress_scan;
    Alcotest.test_case "bitmap run cap" `Quick bitmap_run_cap;
    QCheck_alcotest.to_alcotest candidate_scan_model_prop;
    QCheck_alcotest.to_alcotest probe_map_model_prop;
    Alcotest.test_case "bitmap force idempotent" `Quick bitmap_force_idempotent;
    Alcotest.test_case "bitmap failed flip keeps its count" `Quick bitmap_flip_error_counts;
    Alcotest.test_case "bitmap thread stress" `Slow bitmap_thread_stress;
    QCheck_alcotest.to_alcotest bitmap_prop_exactly_once;
    QCheck_alcotest.to_alcotest bitmap_model_prop;
    Alcotest.test_case "bitmap batch/run thread stress" `Slow batch_thread_stress;
    Alcotest.test_case "hash lifecycle" `Quick hash_lifecycle;
    Alcotest.test_case "hash abort takeover" `Quick hash_abort_takeover;
    Alcotest.test_case "hash errors" `Quick hash_errors;
    Alcotest.test_case "hash stats/iter" `Quick hash_stats_iter;
    Alcotest.test_case "hash failed flip keeps its count" `Quick hash_flip_error_counts;
    QCheck_alcotest.to_alcotest hash_model_prop;
    Alcotest.test_case "hash thread stress" `Slow hash_thread_stress;
    Alcotest.test_case "hash abort stress" `Slow hash_abort_stress;
  ]
