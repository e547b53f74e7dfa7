(* Heap, Index (hash and ordered), Txn undo, Lock_manager. *)

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

let heap_crud () =
  let h = mk_heap () in
  let t0 = Heap.insert h (row 1 "a") in
  let t1 = Heap.insert h (row 2 "b") in
  check Alcotest.int "tids dense" 1 t1;
  check Alcotest.int "live" 2 (Heap.live_count h);
  (match Heap.get h t0 with
  | Some r -> check Alcotest.string "row content" "a" (Value.to_string r.(1))
  | None -> Alcotest.fail "row missing");
  let old = Heap.update h t0 (row 1 "a2") in
  check Alcotest.string "old image" "a" (Value.to_string old.(1));
  let deleted = Heap.delete h t1 in
  check Alcotest.string "deleted image" "b" (Value.to_string deleted.(1));
  check Alcotest.int "live after delete" 1 (Heap.live_count h);
  check Alcotest.bool "tombstone" true (Heap.get h t1 = None);
  check Alcotest.int "tid_count keeps tombstones" 2 (Heap.tid_count h);
  (* tombstone slots are not reused: TIDs are stable *)
  let t2 = Heap.insert h (row 3 "c") in
  check Alcotest.int "append-only tids" 2 t2;
  Heap.restore h t1 (row 2 "b");
  check Alcotest.int "restore" 3 (Heap.live_count h);
  Alcotest.check_raises "restore occupied" (Invalid_argument "Heap.restore: slot is occupied")
    (fun () -> Heap.restore h t1 (row 2 "b"))

let heap_iteration () =
  let h = mk_heap () in
  for i = 0 to 9 do
    ignore (Heap.insert h (row i "x") : int)
  done;
  ignore (Heap.delete h 5 : Heap.row);
  let seen = ref [] in
  Heap.iter_live h (fun tid _ -> seen := tid :: !seen);
  check Alcotest.int "iter skips tombstones" 9 (List.length !seen);
  let sum = Heap.fold_live h ~init:0 ~f:(fun acc _ r -> acc + (match r.(0) with Value.Int i -> i | _ -> 0)) in
  check Alcotest.int "fold" (45 - 5) sum

let hash_index () =
  let h = mk_heap () in
  let idx = Index.create ~name:"t_id" ~key_cols:[| 0 |] ~unique:true () in
  Heap.add_index h idx;
  let t0 = Heap.insert h (row 1 "a") in
  ignore (Heap.insert h (row 2 "b") : int);
  check (Alcotest.list Alcotest.int) "find" [ t0 ] (Index.find idx [| Value.Int 1 |]);
  (* unique violation leaves heap unchanged *)
  (try
     ignore (Heap.insert h (row 1 "dup") : int);
     Alcotest.fail "expected unique violation"
   with Db_error.Constraint_violation _ -> ());
  check Alcotest.int "heap unchanged after violation" 2 (Heap.live_count h);
  (* update moves index entries *)
  ignore (Heap.update h t0 (row 10 "a") : Heap.row);
  check (Alcotest.list Alcotest.int) "old key gone" [] (Index.find idx [| Value.Int 1 |]);
  check (Alcotest.list Alcotest.int) "new key" [ t0 ] (Index.find idx [| Value.Int 10 |]);
  (* null keys are not indexed and never conflict *)
  ignore (Heap.insert h [| Value.Null; Value.Str "n1" |] : int);
  ignore (Heap.insert h [| Value.Null; Value.Str "n2" |] : int);
  check Alcotest.int "nulls unindexed" 2 (Index.entry_count idx)

let ordered_index_minmax () =
  let idx = Index.create ~kind:Index.Ordered ~name:"ord" ~key_cols:[| 0; 1 |] ~unique:false () in
  let put w o tid = Index.insert idx [| Value.Int w; Value.Int o |] tid in
  put 1 5 50;
  put 1 3 30;
  put 1 9 90;
  put 2 1 10;
  (match Index.min_with_prefix idx [| Value.Int 1 |] with
  | Some (key, [ 30 ]) -> check Alcotest.int "min key" 3 (match key.(1) with Value.Int i -> i | _ -> -1)
  | _ -> Alcotest.fail "min_with_prefix wrong");
  (match Index.max_with_prefix idx [| Value.Int 1 |] with
  | Some (key, [ 90 ]) -> check Alcotest.int "max key" 9 (match key.(1) with Value.Int i -> i | _ -> -1)
  | _ -> Alcotest.fail "max_with_prefix wrong");
  check Alcotest.bool "missing prefix" true (Index.min_with_prefix idx [| Value.Int 7 |] = None);
  (* removal updates extrema *)
  Index.remove idx [| Value.Int 1; Value.Int 3 |] 30;
  (match Index.min_with_prefix idx [| Value.Int 1 |] with
  | Some (_, [ 50 ]) -> ()
  | _ -> Alcotest.fail "min after removal")

let ordered_index_range () =
  let idx = Index.create ~kind:Index.Ordered ~name:"ord" ~key_cols:[| 0; 1 |] ~unique:false () in
  for o = 1 to 20 do
    Index.insert idx [| Value.Int 1; Value.Int o |] (o * 10)
  done;
  Index.insert idx [| Value.Int 2; Value.Int 1 |] 999;
  let collect ?lo ?hi () =
    Index.fold_prefix_range idx ~prefix:[| Value.Int 1 |] ?lo ?hi ~init:[]
      ~f:(fun acc _ tids -> acc @ tids)
      ()
  in
  check Alcotest.int "full prefix" 20 (List.length (collect ()));
  check (Alcotest.list Alcotest.int) "range [5,8)" [ 50; 60; 70 ]
    (collect ~lo:(Value.Int 5) ~hi:(Value.Int 8) ());
  check Alcotest.int "lo only" 16 (List.length (collect ~lo:(Value.Int 5) ()));
  check Alcotest.int "hi only" 4 (List.length (collect ~hi:(Value.Int 5) ()));
  check Alcotest.int "empty range" 0
    (List.length (collect ~lo:(Value.Int 8) ~hi:(Value.Int 8) ()))

let ordered_unique () =
  let idx = Index.create ~kind:Index.Ordered ~name:"u" ~key_cols:[| 0 |] ~unique:true () in
  Index.insert idx [| Value.Int 1 |] 0;
  try
    Index.insert idx [| Value.Int 1 |] 1;
    Alcotest.fail "expected violation"
  with Db_error.Constraint_violation _ -> ()

let txn_undo () =
  let h = mk_heap () in
  let t0 = Heap.insert h (row 1 "orig") in
  let txn = Txn.make 1 in
  (* update then delete another then insert; abort must restore all *)
  let old = Heap.update h t0 (row 1 "changed") in
  Txn.record_update txn h t0 old;
  let t1 = Heap.insert h (row 2 "new") in
  Txn.record_insert txn h t1;
  let old2 = Heap.update h t0 (row 1 "changed2") in
  Txn.record_update txn h t0 old2;
  Txn.abort txn;
  (match Heap.get h t0 with
  | Some r -> check Alcotest.string "oldest image restored" "orig" (Value.to_string r.(1))
  | None -> Alcotest.fail "row missing");
  check Alcotest.bool "insert rolled back" true (Heap.get h t1 = None);
  check Alcotest.bool "aborted" false (Txn.active txn)

let txn_hooks () =
  let order = ref [] in
  let txn = Txn.make 1 in
  Txn.on_commit txn (fun () -> order := "c1" :: !order);
  Txn.on_commit txn (fun () -> order := "c2" :: !order);
  Txn.commit txn;
  check (Alcotest.list Alcotest.string) "commit hooks in order" [ "c2"; "c1" ] !order;
  let txn2 = Txn.make 2 in
  let fired = ref false in
  Txn.on_abort txn2 (fun () -> fired := true);
  Txn.abort txn2;
  check Alcotest.bool "abort hook" true !fired;
  Alcotest.check_raises "double commit" (Invalid_argument "Txn.commit: transaction 1 is not active")
    (fun () -> Txn.commit txn)

let lock_manager () =
  let lm = Lock_manager.create ~timeout:0.2 () in
  Lock_manager.acquire lm ~owner:1 (0, 5);
  check Alcotest.bool "reentrant" true (Lock_manager.try_acquire lm ~owner:1 (0, 5));
  check Alcotest.bool "other blocked" false (Lock_manager.try_acquire lm ~owner:2 (0, 5));
  check (Alcotest.option Alcotest.int) "holder" (Some 1) (Lock_manager.holder lm (0, 5));
  (* blocking acquire times out and aborts *)
  (try
     Lock_manager.acquire lm ~owner:2 (0, 5);
     Alcotest.fail "expected timeout"
   with Db_error.Txn_abort _ -> ());
  Lock_manager.release_all lm ~owner:1;
  check (Alcotest.option Alcotest.int) "released" None (Lock_manager.holder lm (0, 5));
  Lock_manager.acquire lm ~owner:2 (0, 5);
  check Alcotest.int "held count" 1 (Lock_manager.held_count lm ~owner:2)

let lock_handoff_across_threads () =
  let lm = Lock_manager.create ~timeout:2.0 () in
  Lock_manager.acquire lm ~owner:1 (0, 1);
  let acquired = ref false in
  let th =
    Thread.create
      (fun () ->
        Lock_manager.acquire lm ~owner:2 (0, 1);
        acquired := true)
      ()
  in
  Thread.delay 0.05;
  check Alcotest.bool "still waiting" false !acquired;
  Lock_manager.release_all lm ~owner:1;
  Thread.join th;
  check Alcotest.bool "acquired after release" true !acquired

(* ---------------- bulk load path ---------------- *)

(* reserve is observable only through capacity: contents and counts do not
   change, and inserts after a reserve behave identically *)
let heap_reserve () =
  let h = mk_heap () in
  let pk = Index.create ~name:"pk" ~key_cols:[| 0 |] ~unique:true () in
  Heap.add_index h pk;
  ignore (Heap.insert h (row 1 "a") : int);
  Heap.reserve h 10_000;
  check Alcotest.int "tid_count unchanged" 1 (Heap.tid_count h);
  check Alcotest.int "live unchanged" 1 (Heap.live_count h);
  let tids = Array.init 100 (fun i -> Heap.insert h (row (100 + i) "z")) in
  check (Alcotest.array Alcotest.int) "dense tids after reserve"
    (Array.init 100 (fun i -> 1 + i)) tids;
  check (Alcotest.list Alcotest.int) "indexed after reserve" [ 57 ]
    (Index.find pk [| Value.Int 156 |])

(* Randomised model check of the rewritten hash index: arbitrary
   insert/remove interleavings over a small key space, single- and
   multi-column keys, against a naive association-list model. *)
let index_model_prop =
  let open QCheck in
  Test.make ~name:"hash index ≡ model (randomised insert/remove)" ~count:300
    (pair bool
       (list_of_size (Gen.int_range 0 120)
          (triple bool (int_range 0 15) (int_range 0 30))))
    (fun (two_col, ops) ->
      let key_cols = if two_col then [| 0; 1 |] else [| 0 |] in
      let idx = Index.create ~name:"m" ~key_cols ~unique:false () in
      let key k =
        if two_col then [| Value.Int (k land 3); Value.Int (k lsr 2) |]
        else [| Value.Int k |]
      in
      let model : (int * int list) list ref = ref [] in
      List.iter
        (fun (is_remove, k, tid) ->
          if is_remove then begin
            Index.remove idx (key k) tid;
            model :=
              List.filter_map
                (fun (k', tids) ->
                  if k' = k then
                    match List.filter (fun t -> t <> tid) tids with
                    | [] -> None
                    | tids -> Some (k', tids)
                  else Some (k', tids))
                !model
          end
          else begin
            Index.insert idx (key k) tid;
            model :=
              (match List.assoc_opt k !model with
              | Some tids -> (k, tid :: tids) :: List.remove_assoc k !model
              | None -> (k, [ tid ]) :: !model)
          end)
        ops;
      let total = List.fold_left (fun acc (_, tids) -> acc + List.length tids) 0 !model in
      if Index.entry_count idx <> total then
        Test.fail_reportf "entry_count %d, model %d" (Index.entry_count idx) total;
      for k = 0 to 15 do
        let expect = match List.assoc_opt k !model with Some t -> t | None -> [] in
        if Index.find idx (key k) <> expect then
          Test.fail_reportf "key %d: index disagrees with model" k
      done;
      true)

(* An update that changes only a key's representation still re-keys the
   row: ordered probes return the stored key, so [MIN] must come back
   spelled as the row now spells it.  An update leaving every key
   identical touches no index. *)
let update_rekeys_representation () =
  let h =
    Heap.create ~tbl_id:0 ~name:"r" (mk_schema [ ("k", Ast.T_int); ("p", Ast.T_int) ])
  in
  let ord = Index.create ~kind:Index.Ordered ~name:"ord" ~key_cols:[| 0 |] ~unique:false () in
  Heap.add_index h ord;
  let tid = Heap.insert h [| Value.Int 2; Value.Int 0 |] in
  let stored () =
    match Index.min_with_prefix ord [||] with
    | Some (key, _) -> Value.to_string key.(0)
    | None -> Alcotest.fail "empty index"
  in
  ignore (Heap.update h tid [| Value.Float 2.; Value.Int 0 |] : Heap.row);
  check Alcotest.string "Int 2 -> Float 2. re-keyed" "2.0" (stored ());
  let key_before = match Index.min_with_prefix ord [||] with Some (k, _) -> k | None -> [||] in
  ignore (Heap.update h tid [| Value.Float 2.; Value.Int 1 |] : Heap.row);
  (match Index.min_with_prefix ord [||] with
  | Some (k, [ t ]) ->
      check Alcotest.bool "non-key update leaves the entry in place" true (k == key_before && t = tid)
  | _ -> Alcotest.fail "entry lost");
  ignore (Heap.update h tid [| Value.Int 2; Value.Int 1 |] : Heap.row);
  check Alcotest.string "Float 2. -> Int 2 re-keyed" "2" (stored ())

(* Index maintenance under random writes.  A heap with a unique hash
   primary key on [id], a non-unique hash index on [g] and an ordered
   index on [(v, id)] takes random inserts, updates and deletes.  Updates
   touch non-key columns only, change keys, set keys to or from NULL, or
   change only a key's representation ([Int k] <-> [Float k]).  After
   every operation each index must hold exactly what a rebuild from the
   live rows plus the pending-dead rows would hold, keys compared as the
   indexes compare them ([Value.equal]).  A unique collision must raise
   and leave the heap as it was, so the same rebuild check shows that it
   left every index as it was too. *)
type ix_assign = Ix_set of Value.t | Ix_flip

type ix_op =
  | Ix_insert of Value.t array
  | Ix_update of int * (int * ix_assign) list
  | Ix_delete of int
  | Ix_gc

let show_value = function
  | Value.Null -> "NULL"
  | Value.Int i -> Printf.sprintf "%d" i
  | Value.Float f -> Printf.sprintf "%.1f" f
  | v -> Value.to_string v

let show_ix_op = function
  | Ix_insert vs ->
      Printf.sprintf "insert(%s)" (String.concat "," (Array.to_list (Array.map show_value vs)))
  | Ix_update (i, assigns) ->
      Printf.sprintf "update#%d[%s]" i
        (String.concat ","
           (List.map
              (fun (c, a) ->
                match a with
                | Ix_set v -> Printf.sprintf "%d=%s" c (show_value v)
                | Ix_flip -> Printf.sprintf "%d~" c)
              assigns))
  | Ix_delete i -> Printf.sprintf "delete#%d" i
  | Ix_gc -> "gc"

let flip = function
  | Value.Int i -> Value.Float (float_of_int i)
  | Value.Float f -> Value.Int (int_of_float f)
  | v -> v

(* [(key, sorted tids)] an index would hold for [rows], grouped by
   [Value.equal] keys, in key order. *)
let rebuilt idx rows =
  let groups = ref [] in
  List.iter
    (fun (tid, row) ->
      match Index.key_of_row idx row with
      | None -> ()
      | Some key ->
          let same (k, _) = Array.for_all2 Value.equal k key in
          (match List.find_opt same !groups with
          | Some (k, tids) -> groups := (k, tid :: tids) :: List.filter (fun g -> not (same g)) !groups
          | None -> groups := (key, [ tid ]) :: !groups))
    rows;
  List.sort
    (fun (a, _) (b, _) -> List.compare Value.compare (Array.to_list a) (Array.to_list b))
    (List.map (fun (k, tids) -> (k, List.sort compare tids)) !groups)

let index_rebuild_prop =
  let open QCheck in
  let key_value =
    Gen.(
      frequency
        [
          (1, return Value.Null);
          (4, map (fun i -> Value.Int i) (int_range 0 5));
          (2, map (fun i -> Value.Float (float_of_int i)) (int_range 0 5));
        ])
  in
  let assign =
    Gen.(
      frequency
        [
          (2, map (fun n -> (3, Ix_set (Value.Int n))) (int_range 0 99));
          (3, map2 (fun c v -> (c, Ix_set v)) (int_range 0 2) key_value);
          (2, map (fun c -> (c, Ix_flip)) (int_range 0 2));
        ])
  in
  let op =
    Gen.(
      frequency
        [
          (3, map (fun vs -> Ix_insert (Array.append vs [| Value.Int 0 |])) (array_size (return 3) key_value));
          (5, map2 (fun i a -> Ix_update (i, a)) nat (list_size (int_range 1 3) assign));
          (1, map (fun i -> Ix_delete i) nat);
          (1, return Ix_gc);
        ])
  in
  let ops =
    make
      ~print:(fun ops -> String.concat "; " (List.map show_ix_op ops))
      Gen.(list_size (int_range 1 60) op)
  in
  Test.make ~name:"heap indexes = rebuild from rows (random writes)" ~count:300 ops (fun ops ->
      let h =
        Heap.create ~tbl_id:0 ~name:"ix"
          (mk_schema [ ("id", Ast.T_int); ("g", Ast.T_int); ("v", Ast.T_int); ("p", Ast.T_int) ])
      in
      let pk = Index.create ~name:"pk" ~key_cols:[| 0 |] ~unique:true () in
      let by_g = Index.create ~name:"by_g" ~key_cols:[| 1 |] ~unique:false () in
      let by_v = Index.create ~kind:Index.Ordered ~name:"by_v" ~key_cols:[| 2; 0 |] ~unique:false () in
      (* added last, probed first: a pk collision rolls back the others *)
      List.iter (Heap.add_index h) [ pk; by_g; by_v ];
      let live () = List.rev (Heap.fold_live h ~init:[] ~f:(fun acc tid row -> (tid, row) :: acc)) in
      let ordered_contents () =
        Index.fold_prefix_range by_v ~prefix:[||] ~init:[]
          ~f:(fun acc key tids -> (Array.copy key, List.sort compare tids) :: acc)
          ()
        |> List.rev
      in
      let check_rebuild step =
        let rows = live () @ Hashtbl.fold (fun tid row acc -> (tid, row) :: acc) h.Heap.pending_dead [] in
        List.iter
          (fun idx ->
            let want = rebuilt idx rows in
            let total = List.fold_left (fun acc (_, tids) -> acc + List.length tids) 0 want in
            if Index.entry_count idx <> total then
              Test.fail_reportf "%s: index %s has %d entries, rebuild %d" step (Index.name idx)
                (Index.entry_count idx) total;
            List.iter
              (fun (key, tids) ->
                if List.sort compare (Index.find idx key) <> tids then
                  Test.fail_reportf "%s: index %s disagrees with rebuild on a key" step (Index.name idx))
              want)
          [ pk; by_g; by_v ];
        let got = ordered_contents () and want = rebuilt by_v rows in
        if List.length got <> List.length want then
          Test.fail_reportf "%s: ordered index has %d keys, rebuild %d" step (List.length got)
            (List.length want);
        List.iter2
          (fun (gk, gtids) (wk, wtids) ->
            if gtids <> wtids || not (Array.for_all2 Value.equal gk wk) then
              Test.fail_reportf "%s: ordered index disagrees with rebuild" step)
          got want
      in
      let collides ?except id =
        (not (Value.is_null id))
        && List.exists (fun (tid, row) -> Some tid <> except && Value.equal row.(0) id) (live ())
      in
      let expect_collision step expected f =
        let slots = Heap.tid_count h in
        match f () with
        | () -> if expected then Test.fail_reportf "%s: unique collision not raised" step
        | exception Db_error.Constraint_violation _ ->
            if not expected then Test.fail_reportf "%s: spurious unique violation" step;
            if Heap.tid_count h <> slots then Test.fail_reportf "%s: failed write kept a row" step
      in
      let pick i = match live () with [] -> None | l -> Some (List.nth l (i mod List.length l)) in
      List.iteri
        (fun n op ->
          let step = Printf.sprintf "op %d (%s)" n (show_ix_op op) in
          (match op with
          | Ix_insert row ->
              expect_collision step (collides row.(0)) (fun () -> ignore (Heap.insert h row : int))
          | Ix_update (i, assigns) -> (
              match pick i with
              | None -> ()
              | Some (tid, old) ->
                  let row = Array.copy old in
                  List.iter
                    (fun (c, a) ->
                      row.(c) <- (match a with Ix_set v -> v | Ix_flip -> flip row.(c)))
                    assigns;
                  let clash = collides ~except:tid row.(0) in
                  expect_collision step clash (fun () ->
                      ignore (Heap.update h tid row : Heap.row));
                  let expected = if clash then old else row in
                  if not (Array.for_all2 Value.identical (Heap.get_exn h tid) expected) then
                    Test.fail_reportf "%s: heap row is wrong after the update" step)
          | Ix_delete i -> (
              match pick i with
              | None -> ()
              | Some (tid, _) -> ignore (Heap.delete h tid : Heap.row))
          | Ix_gc -> ignore (Heap.gc h ~horizon:(Mvcc.now ()) : int));
          check_rebuild step)
        ops;
      true)

let suite =
  [
    Alcotest.test_case "heap crud" `Quick heap_crud;
    Alcotest.test_case "heap iteration" `Quick heap_iteration;
    Alcotest.test_case "hash index" `Quick hash_index;
    Alcotest.test_case "heap reserve" `Quick heap_reserve;
    QCheck_alcotest.to_alcotest index_model_prop;
    QCheck_alcotest.to_alcotest index_rebuild_prop;
    Alcotest.test_case "update re-keys a representation change" `Quick update_rekeys_representation;
    Alcotest.test_case "ordered index min/max" `Quick ordered_index_minmax;
    Alcotest.test_case "ordered index range" `Quick ordered_index_range;
    Alcotest.test_case "ordered unique" `Quick ordered_unique;
    Alcotest.test_case "txn undo" `Quick txn_undo;
    Alcotest.test_case "txn hooks" `Quick txn_hooks;
    Alcotest.test_case "lock manager" `Quick lock_manager;
    Alcotest.test_case "lock handoff" `Quick lock_handoff_across_threads;
  ]
