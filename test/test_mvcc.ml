(* MVCC storage layer: version visibility, stamp-then-publish commits,
   abort unwinding, chain GC against the pin horizon, column-DDL chain
   truncation, commit-timestamp recovery (BFRL2 + BFRL1 back-compat) and
   the lock-manager contention gauge. *)

open Bullfrog_db
open Bullfrog_sql

let check = Alcotest.check

let mk_schema cols =
  Schema.make
    (Array.of_list
       (List.map
          (fun (name, ty) -> { Schema.name; ty; not_null = false; default = None })
          cols))

let mk_heap () =
  Heap.create ~tbl_id:0 ~name:"t" (mk_schema [ ("id", Ast.T_int); ("v", Ast.T_text) ])

let row i s = [| Value.Int i; Value.Str s |]

(* Commit one write through the real path: install an uncommitted
   version, then stamp-and-publish via the clock.  Returns the commit
   timestamp. *)
let commit_update h tid ~writer r =
  ignore (Heap.update ~writer h tid r : Heap.row);
  Mvcc.commit ~stamp:(fun ts -> Heap.stamp h tid ~writer ~ts)

let v_at h ~ts tid =
  match Heap.snapshot_get h ~ts ~reader:0 tid with
  | Some r -> Value.to_string r.(1)
  | None -> "<none>"

(* -- snapshot visibility across update and delete ------------------- *)

let visibility () =
  let h = mk_heap () in
  let tid = Heap.insert h (row 1 "a") in
  (* default writer = 0 commits immediately at the current clock *)
  check Alcotest.string "committed insert visible now" "a" (v_at h ~ts:(Mvcc.now ()) tid);
  let ts_a = Mvcc.now () in
  let ts_b = commit_update h tid ~writer:7 (row 1 "b") in
  check Alcotest.string "new snapshot sees update" "b" (v_at h ~ts:ts_b tid);
  check Alcotest.string "old snapshot sees pre-image" "a" (v_at h ~ts:ts_a tid);
  (* a stamped insert is invisible to snapshots taken before its commit *)
  let tid2 = Heap.insert ~writer:9 h (row 2 "c") in
  let ts_c = Mvcc.commit ~stamp:(fun ts -> Heap.stamp h tid2 ~writer:9 ~ts) in
  check Alcotest.bool "pre-commit snapshot sees nothing" true
    (Heap.snapshot_get h ~ts:ts_b ~reader:0 tid2 = None);
  check Alcotest.string "post-commit snapshot sees it" "c" (v_at h ~ts:ts_c tid2);
  ignore (Heap.delete ~writer:8 h tid : Heap.row);
  let ts_d = Mvcc.commit ~stamp:(fun ts -> Heap.stamp h tid ~writer:8 ~ts) in
  check Alcotest.bool "deleted at new snapshot" true
    (Heap.snapshot_get h ~ts:ts_d ~reader:0 tid = None);
  check Alcotest.string "delete keeps old version readable" "b" (v_at h ~ts:ts_b tid);
  (* scan agrees with point reads *)
  let seen = ref [] in
  Heap.scan h ~ts:ts_b ~reader:0 (fun t r -> seen := (t, Value.to_string r.(1)) :: !seen);
  check (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.string))
    "iter at old snapshot" [ (tid, "b") ] !seen

(* -- uncommitted writes: own-writer visibility, atomic publish ------ *)

let uncommitted_and_publish () =
  let h = mk_heap () in
  let tid = Heap.insert h (row 1 "a") in
  ignore (Heap.update ~writer:42 h tid (row 1 "dirty") : Heap.row);
  check Alcotest.string "other readers see the committed image" "a"
    (v_at h ~ts:(Mvcc.now ()) tid);
  (match Heap.snapshot_get h ~ts:(Mvcc.now ()) ~reader:42 tid with
  | Some r -> check Alcotest.string "writer sees its own write" "dirty" (Value.to_string r.(1))
  | None -> Alcotest.fail "writer lost its own write");
  (* inside the stamp callback the version is stamped but unpublished:
     a concurrent snapshot at the pre-commit clock must not see it *)
  let ts =
    Mvcc.commit ~stamp:(fun ts ->
        Heap.stamp h tid ~writer:42 ~ts;
        check Alcotest.string "stamped but unpublished stays invisible" "a"
          (v_at h ~ts:(Mvcc.now ()) tid))
  in
  check Alcotest.string "published after commit" "dirty" (v_at h ~ts tid)

(* -- aborts pop uncommitted versions, never create new ones --------- *)

let abort_pops () =
  let h = mk_heap () in
  let tid = Heap.insert h (row 1 "a") in
  let chained0 = Heap.chained_versions h in
  ignore (Heap.update ~writer:5 h tid (row 1 "x") : Heap.row);
  Heap.abort_update h tid (row 1 "a");
  check Alcotest.string "abort_update restores image" "a" (v_at h ~ts:(Mvcc.now ()) tid);
  check Alcotest.int "aborted update leaves no version behind" chained0
    (Heap.chained_versions h);
  ignore (Heap.delete ~writer:5 h tid : Heap.row);
  Heap.abort_delete h tid (row 1 "a");
  check Alcotest.string "abort_delete restores image" "a" (v_at h ~ts:(Mvcc.now ()) tid);
  check Alcotest.int "aborted delete leaves no version behind" chained0
    (Heap.chained_versions h);
  let tid2 = Heap.insert ~writer:5 h (row 2 "b") in
  check Alcotest.bool "uncommitted insert invisible" true
    (Heap.snapshot_get h ~ts:(Mvcc.now ()) ~reader:0 tid2 = None);
  Heap.abort_insert h tid2;
  check Alcotest.bool "aborted insert gone" true (Heap.get h tid2 = None)

(* -- GC: horizon respects pins, reclaims when released -------------- *)

let gc_horizon_pins () =
  let h = mk_heap () in
  let tid = Heap.insert h (row 1 "v0") in
  let _ts1 = commit_update h tid ~writer:1 (row 1 "v1") in
  let ts2 = commit_update h tid ~writer:2 (row 1 "v2") in
  Mvcc.pin ts2;
  let _ts3 = commit_update h tid ~writer:3 (row 1 "v3") in
  check Alcotest.int "three superseded versions chained" 3 (Heap.chained_versions h);
  check Alcotest.int "horizon is the pinned snapshot" ts2 (Mvcc.horizon ());
  let reclaimed = Heap.gc h ~horizon:(Mvcc.horizon ()) in
  check Alcotest.int "gc keeps what the pin can reach" 2 reclaimed;
  check Alcotest.string "pinned snapshot still reads its version" "v2" (v_at h ~ts:ts2 tid);
  Mvcc.unpin ts2;
  check Alcotest.bool "horizon advances after unpin" true (Mvcc.horizon () > ts2);
  let reclaimed = Heap.gc h ~horizon:(Mvcc.horizon ()) in
  check Alcotest.int "gc drains the rest" 1 reclaimed;
  check Alcotest.int "no chained versions left" 0 (Heap.chained_versions h);
  check Alcotest.string "head untouched by gc" "v3" (v_at h ~ts:(Mvcc.now ()) tid);
  (* idempotent: a repeated sweep reclaims nothing *)
  check Alcotest.int "gc idempotent" 0 (Heap.gc h ~horizon:(Mvcc.horizon ()))

(* -- column DDL truncates version history --------------------------- *)

let rewrite_truncates () =
  let h = mk_heap () in
  let tid = Heap.insert h (row 1 "a") in
  let ts_a = Mvcc.now () in
  ignore (commit_update h tid ~writer:1 (row 1 "b") : int);
  check Alcotest.int "one chained version" 1 (Heap.chained_versions h);
  Heap.rewrite_in_place h tid [| Value.Int 1; Value.Str "b"; Value.Null |];
  check Alcotest.int "rewrite cuts the chain" 0 (Heap.chained_versions h);
  check Alcotest.bool "stale-arity history unreachable" true
    (Heap.snapshot_get h ~ts:ts_a ~reader:0 tid = None);
  match Heap.snapshot_get h ~ts:(Mvcc.now ()) ~reader:0 tid with
  | Some r -> check Alcotest.int "rewritten arity" 3 (Array.length r)
  | None -> Alcotest.fail "rewritten row missing"

(* -- isolation through the SQL layer -------------------------------- *)

let rows_of = function
  | Executor.Rows (_, rows) -> rows
  | _ -> Alcotest.fail "expected rows"

let read_v db txn =
  match rows_of (Database.exec_in db txn "SELECT v FROM kv WHERE k = 1") with
  | [ [| Value.Str s |] ] -> s
  | _ -> Alcotest.fail "expected one row"

let pinned_vs_read_committed () =
  let db = Database.create () in
  ignore (Database.exec db "CREATE TABLE kv (k INT PRIMARY KEY, v TEXT)" : Executor.result);
  ignore (Database.exec db "INSERT INTO kv VALUES (1, 'a')" : Executor.result);
  let pinned = Database.begin_txn db in
  Txn.pin_snapshot pinned;
  let rc = Database.begin_txn db in
  check Alcotest.string "pinned reads v0" "a" (read_v db pinned);
  check Alcotest.string "read-committed reads v0" "a" (read_v db rc);
  Database.with_txn db (fun t ->
      ignore (Database.exec_in db t "UPDATE kv SET v = 'b' WHERE k = 1" : Executor.result));
  check Alcotest.string "pinned snapshot is stable" "a" (read_v db pinned);
  check Alcotest.string "read-committed refreshes per statement" "b" (read_v db rc);
  (* the pin holds the GC horizon: vacuum must not free the old image *)
  ignore (Database.vacuum db : int);
  check Alcotest.string "vacuum honours the pin" "a" (read_v db pinned);
  check Alcotest.bool "backlog survives the pin" true (Database.version_backlog db > 0);
  Database.commit db pinned;
  Database.commit db rc;
  ignore (Database.vacuum db : int);
  check Alcotest.int "backlog drains after release" 0 (Database.version_backlog db)

(* -- deferred de-indexing: pinned reader vs delete race -------------- *)

(* A delete must not eagerly remove its index entries: a pinned snapshot
   taken before the delete still reaches the old version through an
   exact-match index probe.  The entry is parked in the heap's
   pending-dead ledger and only leaves the index when GC proves the row
   unreachable (trimmed out of its version chain past the horizon). *)
let deferred_deindex () =
  let db = Database.create () in
  ignore (Database.exec db "CREATE TABLE kv (k INT PRIMARY KEY, v TEXT)"
           : Executor.result);
  ignore (Database.exec db "INSERT INTO kv VALUES (1, 'a'), (2, 'b')"
           : Executor.result);
  let heap = Catalog.find_table_exn db.Database.catalog "kv" in
  let pinned = Database.begin_txn db in
  Txn.pin_snapshot pinned;
  check Alcotest.string "pinned probe pre-delete" "a" (read_v db pinned);
  Database.with_txn db (fun t ->
      ignore (Database.exec_in db t "DELETE FROM kv WHERE k = 1" : Executor.result));
  (* index entry survives the delete: the pinned probe still finds 'a' *)
  check Alcotest.string "pinned index probe after delete" "a" (read_v db pinned);
  check Alcotest.bool "delete parked in the pending-dead ledger" true
    (Heap.pending_dead_count heap > 0);
  (* a fresh snapshot must not see the deleted row through the index *)
  Database.with_txn db (fun t ->
      check Alcotest.int "fresh probe finds nothing" 0
        (List.length
           (rows_of (Database.exec_in db t "SELECT v FROM kv WHERE k = 1"))));
  (* the parked entry is transparent to uniqueness: re-inserting the
     deleted key must succeed while the old entry is still indexed *)
  ignore (Database.exec db "INSERT INTO kv VALUES (1, 'a2')" : Executor.result);
  check Alcotest.string "pinned still reads its own version" "a" (read_v db pinned);
  Database.with_txn db (fun t ->
      check Alcotest.string "fresh snapshot reads the re-insert" "a2" (read_v db t));
  (* the pin holds the horizon: vacuum must not purge the parked entry *)
  ignore (Database.vacuum db : int);
  check Alcotest.bool "pin blocks the purge" true
    (Heap.pending_dead_count heap > 0);
  check Alcotest.string "probe survives vacuum under pin" "a" (read_v db pinned);
  Database.commit db pinned;
  ignore (Database.vacuum db : int);
  check Alcotest.int "ledger drains once unreachable" 0
    (Heap.pending_dead_count heap);
  Database.with_txn db (fun t ->
      check Alcotest.string "post-GC probe sees only the live row" "a2"
        (read_v db t))

(* -- commit timestamps survive replay ------------------------------- *)

let replay_commit_ts () =
  let db = Database.create () in
  ignore (Database.exec db "CREATE TABLE kv (k INT PRIMARY KEY, v TEXT)" : Executor.result);
  ignore (Database.exec db "INSERT INTO kv VALUES (1, 'a'), (2, 'b')" : Executor.result);
  ignore (Database.exec db "UPDATE kv SET v = 'a2' WHERE k = 1" : Executor.result);
  let max_ts =
    List.fold_left
      (fun acc (r : Redo_log.record) -> max acc r.Redo_log.commit_ts)
      0
      (Redo_log.records db.Database.redo)
  in
  check Alcotest.bool "log carries real commit timestamps" true (max_ts > 0);
  let db' = Database.replay db.Database.redo in
  check Alcotest.bool "replay folds commit ts into the clock" true (Mvcc.now () >= max_ts);
  let sorted d =
    List.sort compare
      (List.map
         (fun r -> Array.to_list (Array.map Value.to_string r))
         (Database.query d "SELECT k, v FROM kv"))
  in
  check (Alcotest.list (Alcotest.list Alcotest.string)) "replayed rows match" (sorted db)
    (sorted db')

(* -- BFRL1 (pre-MVCC) logs still deserialize ------------------------ *)

let bfrl1_back_compat () =
  (* Hand-build a v1 buffer: fixed-width LE ints, no commit_ts field. *)
  let buf = Buffer.create 64 in
  let put_int i = Buffer.add_int64_le buf (Int64.of_int i) in
  let put_str s =
    put_int (String.length s);
    Buffer.add_string buf s
  in
  Buffer.add_string buf "BFRL1\n";
  put_int 0 (* truncated *);
  put_int 1 (* entries *);
  Buffer.add_char buf '\001' (* E_commit *);
  put_int 7 (* txn_id; v1 has no commit_ts here *);
  put_int 1 (* writes *);
  Buffer.add_char buf '\000' (* W_insert *);
  put_str "kv";
  put_int 0 (* tid *);
  put_int 1 (* columns *);
  Buffer.add_char buf '\001' (* Value.Int *);
  put_int 42;
  put_int 0 (* marks *);
  let log = Redo_log.deserialize (Buffer.contents buf) in
  match Redo_log.records log with
  | [ r ] ->
      check Alcotest.int "txn id" 7 r.Redo_log.txn_id;
      check Alcotest.int "v1 records read back with ts 0" 0 r.Redo_log.commit_ts;
      check Alcotest.bool "write decoded" true
        (r.Redo_log.writes = [ Redo_log.W_insert ("kv", 0, [| Value.Int 42 |]) ])
  | _ -> Alcotest.fail "expected one record"

(* -- lock manager: broadcast wakeups, balanced gauge ---------------- *)

let lock_waiting_gauge () =
  let lm = Lock_manager.create ~timeout:10.0 () in
  Lock_manager.acquire lm ~owner:1 (0, 1);
  Lock_manager.acquire lm ~owner:1 (0, 2);
  let granted = ref 0 in
  let g_mu = Mutex.create () in
  let waiter owner key =
    Thread.create
      (fun () ->
        Lock_manager.acquire lm ~owner key;
        Mutex.lock g_mu;
        incr granted;
        Mutex.unlock g_mu)
      ()
  in
  let ta = waiter 2 (0, 1) in
  let tb = waiter 3 (0, 2) in
  let deadline = Unix.gettimeofday () +. 5.0 in
  while Lock_manager.waiting_count lm < 2 && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.005
  done;
  check Alcotest.int "two waiters blocked" 2 (Lock_manager.waiting_count lm);
  check Alcotest.int "none granted yet" 0 !granted;
  let t0 = Unix.gettimeofday () in
  (* one release wakes BOTH waiters (each is the only candidate for its
     key); with a single-wakeup release one of them would sleep until the
     ticker broadcast, far above this bound *)
  Lock_manager.release_all lm ~owner:1;
  Thread.join ta;
  Thread.join tb;
  check Alcotest.bool "broadcast wakes all compatible waiters" true
    (Unix.gettimeofday () -. t0 < 2.0);
  check Alcotest.int "both granted" 2 !granted;
  check Alcotest.int "gauge balanced on grant" 0 (Lock_manager.waiting_count lm);
  Lock_manager.release_all lm ~owner:2;
  Lock_manager.release_all lm ~owner:3;
  (* timeout path must decrement the gauge too *)
  let lm2 = Lock_manager.create ~timeout:0.05 () in
  Lock_manager.acquire lm2 ~owner:1 (0, 9);
  let timed_out = ref false in
  let th =
    Thread.create
      (fun () ->
        try Lock_manager.acquire lm2 ~owner:2 (0, 9)
        with Db_error.Txn_abort _ -> timed_out := true)
      ()
  in
  Thread.join th;
  check Alcotest.bool "waiter timed out" true !timed_out;
  check Alcotest.int "gauge balanced on timeout" 0 (Lock_manager.waiting_count lm2);
  Lock_manager.release_all lm2 ~owner:1

(* -- the one scan loop: snapshot vs latest readers, TID ranges -------- *)

let scan_readers_and_ranges () =
  let h = mk_heap () in
  let t0 = Heap.insert h (row 0 "a") in
  let t1 = Heap.insert h (row 1 "b") in
  let t2 = Heap.insert h (row 2 "c") in
  let ts = Mvcc.now () in
  (* writer 7 updates t1 and inserts t3 without committing, deletes t2 *)
  ignore (Heap.update ~writer:7 h t1 (row 1 "B") : Heap.row);
  let t3 = Heap.insert ~writer:7 h (row 3 "d") in
  ignore (Heap.delete ~writer:7 h t2 : Heap.row);
  let seen ?lo ?hi ~reader () =
    let acc = ref [] in
    Heap.scan ?lo ?hi h ~ts ~reader (fun tid r -> acc := (tid, Value.to_string r.(1)) :: !acc);
    List.rev !acc
  in
  let rows = Alcotest.(list (pair int string)) in
  check rows "other readers see the committed versions" [ (t0, "a"); (t1, "b"); (t2, "c") ]
    (seen ~reader:0 ());
  check rows "the writer sees its own writes" [ (t0, "a"); (t1, "B"); (t3, "d") ]
    (seen ~reader:7 ());
  check rows "latest sees every head, uncommitted included"
    [ (t0, "a"); (t1, "B"); (t3, "d") ]
    (seen ~reader:Heap.latest ());
  check rows "a TID range bounds the scan" [ (t1, "b"); (t2, "c") ] (seen ~lo:1 ~hi:3 ~reader:0 ());
  check rows "a range past the end is clamped" [ (t3, "d") ] (seen ~lo:3 ~hi:99 ~reader:Heap.latest ());
  let live = ref [] in
  Heap.iter_live h (fun tid _ -> live := tid :: !live);
  check Alcotest.(list int) "iter_live is the latest scan" [ t0; t1; t3 ] (List.rev !live)

(* -- fused scan kernel ≡ per-row reference (randomised) ------------- *)

(* A heap history as data: writers 0 (auto-commit), 7 and 8; a write
   names its target slot by index modulo the slots so far, and is
   skipped unless the slot is live and no other writer holds an
   uncommitted head on it (what 2PL guarantees).  [Mark] records a
   snapshot timestamp for the scan to read at. *)
type op =
  | Ins of int * Value.t array
  | Upd of int * int * Value.t array
  | Del of int * int
  | Commit of int
  | Mark

let gen_row =
  QCheck.Gen.(
    array_size (frequency [ (4, return 3); (1, return 2) ]) Test_expr.gen_mixed_value)

let gen_op =
  let open QCheck.Gen in
  let writer = oneofl [ 0; 0; 7; 8 ] in
  frequency
    [
      (4, map2 (fun w r -> Ins (w, r)) writer gen_row);
      (3, map3 (fun w k r -> Upd (w, k, r)) writer nat gen_row);
      (2, map2 (fun w k -> Del (w, k)) writer nat);
      (1, map (fun w -> Commit w) (oneofl [ 7; 8 ]));
      (1, return Mark);
    ]

type scan_case = {
  ops : op list;
  pick_ts : int;  (* index into the marks; past them = the current clock *)
  reader : int;
  lo : int option;
  hi : int option;
  limit : int option;  (* [f] raises [Exit] on the n-th kept row *)
  pred : Expr.t;
  params : Value.t array;
}

let gen_scan_case =
  let open QCheck.Gen in
  let opt g = frequency [ (2, return None); (1, map Option.some g) ] in
  list_size (int_range 0 30) gen_op >>= fun ops ->
  int_range 0 4 >>= fun pick_ts ->
  oneofl [ 0; 7; 8; Heap.latest ] >>= fun reader ->
  opt (int_range (-1) 12) >>= fun lo ->
  opt (int_range 0 40) >>= fun hi ->
  opt (int_range 1 4) >>= fun limit ->
  Test_expr.gen_staged_expr >>= fun pred ->
  array_size (return Test_expr.n_params) Test_expr.gen_mixed_value >>= fun params ->
  return { ops; pick_ts; reader; lo; hi; limit; pred; params }

let print_scan_case c =
  let vals a = String.concat "; " (Array.to_list (Array.map Value.to_string a)) in
  let op = function
    | Ins (w, r) -> Printf.sprintf "ins w%d [%s]" w (vals r)
    | Upd (w, k, r) -> Printf.sprintf "upd w%d #%d [%s]" w k (vals r)
    | Del (w, k) -> Printf.sprintf "del w%d #%d" w k
    | Commit w -> Printf.sprintf "commit w%d" w
    | Mark -> "mark"
  in
  let int_opt = function None -> "-" | Some i -> string_of_int i in
  Printf.sprintf "ops: %s\nts#%d reader %d lo %s hi %s limit %s\npred: %s\nparams: [%s]"
    (String.concat ", " (List.map op c.ops))
    c.pick_ts c.reader (int_opt c.lo) (int_opt c.hi) (int_opt c.limit)
    (Expr.to_string c.pred) (vals c.params)

(* Build the heap; returns it with the marked timestamps, oldest first. *)
let build_heap ops =
  let h =
    Heap.create ~tbl_id:0 ~name:"t"
      (mk_schema [ ("a", Ast.T_int); ("b", Ast.T_int); ("c", Ast.T_int) ])
  in
  let owner = Hashtbl.create 16 and pending = Hashtbl.create 4 and marks = ref [] in
  let own w tid =
    if w > 0 then begin
      Hashtbl.replace owner tid w;
      Hashtbl.replace pending w (tid :: Option.value ~default:[] (Hashtbl.find_opt pending w))
    end
  in
  let target w k =
    let n = Heap.tid_count h in
    if n = 0 then None
    else
      let tid = k mod n in
      let free =
        match Hashtbl.find_opt owner tid with None -> true | Some o -> o = w && w > 0
      in
      if free && Heap.get h tid <> None then Some tid else None
  in
  List.iter
    (function
      | Ins (w, r) -> own w (Heap.insert ~writer:w h r)
      | Upd (w, k, r) ->
          Option.iter
            (fun tid ->
              ignore (Heap.update ~writer:w h tid r : Heap.row);
              own w tid)
            (target w k)
      | Del (w, k) ->
          Option.iter
            (fun tid ->
              ignore (Heap.delete ~writer:w h tid : Heap.row);
              own w tid)
            (target w k)
      | Commit w ->
          let tids = Option.value ~default:[] (Hashtbl.find_opt pending w) in
          ignore
            (Mvcc.commit ~stamp:(fun ts ->
                 List.iter (fun tid -> Heap.stamp h tid ~writer:w ~ts) tids)
              : int);
          List.iter (Hashtbl.remove owner) tids;
          Hashtbl.remove pending w
      | Mark -> marks := Mvcc.now () :: !marks)
    ops;
  (h, List.rev !marks)

(* The per-row loop the fused kernel replaced: a point read per TID and
   the tree interpreter as the filter, counting as the kernel must. *)
let reference_scan ?(lo = 0) ?hi h ~ts ~reader ~pred ~params f =
  let n = Heap.tid_count h in
  let hi = match hi with Some x when x < n -> x | _ -> n in
  let scanned = ref 0 and kept = ref 0 in
  let result =
    match
      for tid = max lo 0 to hi - 1 do
        match Heap.snapshot_get h ~ts ~reader tid with
        | None -> ()
        | Some row ->
            incr scanned;
            if Expr_interp.eval_pred_env params row pred then begin
              incr kept;
              f tid row
            end
      done
    with
    | () -> Ok ()
    | exception Expr.Eval_error m -> Error m
    | exception Exit -> Error "exit"
  in
  (result, !scanned, !kept)

let fused_scan_matches_reference =
  QCheck.Test.make ~name:"fused scan kernel ≡ per-row reference (randomised)" ~count:3000
    (QCheck.make gen_scan_case ~print:print_scan_case)
    (fun c ->
      let h, marks = build_heap c.ops in
      let ts = match List.nth_opt marks c.pick_ts with Some ts -> ts | None -> Mvcc.now () in
      let run scan =
        let out = ref [] and taken = ref 0 in
        let f tid row =
          out := (tid, row) :: !out;
          incr taken;
          if Some !taken = c.limit then raise Exit
        in
        let result, scanned, kept = scan f in
        (result, scanned, kept, List.rev !out)
      in
      let expected =
        run (reference_scan ?lo:c.lo ?hi:c.hi h ~ts ~reader:c.reader ~pred:c.pred ~params:c.params)
      in
      let got =
        run (fun f ->
            let scanned = ref 0 and kept = ref 0 and calls = ref 0 in
            let count s k =
              incr calls;
              scanned := !scanned + s;
              kept := !kept + k
            in
            let filter = (Expr.prepare c.pred).Expr.ce_pred c.params in
            let result =
              match Heap.scan ?lo:c.lo ?hi:c.hi h ~ts ~reader:c.reader ~filter ~count f with
              | () -> Ok ()
              | exception Expr.Eval_error m -> Error m
              | exception Exit -> Error "exit"
            in
            if !calls <> 1 then QCheck.Test.fail_reportf "count called %d times" !calls;
            (result, !scanned, !kept))
      in
      let show (result, scanned, kept, rows) =
        Printf.sprintf "%s, scanned %d, kept %d, tids [%s]"
          (match result with Ok () -> "ok" | Error m -> "raised " ^ m)
          scanned kept
          (String.concat "; " (List.map (fun (tid, _) -> string_of_int tid) rows))
      in
      if expected <> got then
        QCheck.Test.fail_reportf "reference: %s\nfused:     %s" (show expected) (show got);
      true)

let suite =
  [
    Alcotest.test_case "snapshot visibility across update/delete" `Quick visibility;
    Alcotest.test_case "one scan loop: readers and TID ranges" `Quick scan_readers_and_ranges;
    QCheck_alcotest.to_alcotest fused_scan_matches_reference;
    Alcotest.test_case "uncommitted writes and atomic publish" `Quick uncommitted_and_publish;
    Alcotest.test_case "aborts pop uncommitted versions" `Quick abort_pops;
    Alcotest.test_case "gc respects the pin horizon" `Quick gc_horizon_pins;
    Alcotest.test_case "column DDL truncates version history" `Quick rewrite_truncates;
    Alcotest.test_case "pinned snapshot vs read-committed" `Quick pinned_vs_read_committed;
    Alcotest.test_case "deferred de-indexing vs pinned reader" `Quick deferred_deindex;
    Alcotest.test_case "commit timestamps survive replay" `Quick replay_commit_ts;
    Alcotest.test_case "BFRL1 logs still deserialize" `Quick bfrl1_back_compat;
    Alcotest.test_case "lock waiting gauge and broadcast wakeup" `Quick lock_waiting_gauge;
  ]
