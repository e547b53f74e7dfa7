(* The ordered index's B+-tree against the persistent-map oracle it
   replaced (test/ordered_oracle.ml): the same operations on both must
   give the same answers, the same stored keys and the same TID order.
   Plus a two-thread stress: range probes racing inserts always see a
   sorted, complete prefix. *)

open Bullfrog_db
module O = Ordered_oracle

type op =
  | Insert of Value.t array * int
  | Insert_live of Value.t array * int  (* live: tids in [live_set] *)
  | Remove of Value.t array * int
  | Find of Value.t array
  | Min of Value.t array * bool  (* with [keep] *)
  | Max of Value.t array * bool
  | Fold of Value.t array * Value.t option * Value.t option

(* Liveness and [keep] read the same fixed TID set, so a run is a pure
   function of its ops. *)
let live tid = tid mod 3 <> 0

let keep tid = tid mod 2 = 0

let pp_key k = "[" ^ String.concat "; " (Array.to_list (Array.map Value.to_string k)) ^ "]"

let pp_key_t k =
  "["
  ^ String.concat "; "
      (Array.to_list
         (Array.map
            (function Value.Int i -> Printf.sprintf "I%d" i | v -> "F" ^ Value.to_string v)
            k))
  ^ "]"

let pp_opt = function None -> "-" | Some v -> Value.to_string v

let pp_op = function
  | Insert (k, t) -> Printf.sprintf "insert %s %d" (pp_key_t k) t
  | Insert_live (k, t) -> Printf.sprintf "insert_live %s %d" (pp_key_t k) t
  | Remove (k, t) -> Printf.sprintf "remove %s %d" (pp_key_t k) t
  | Find k -> "find " ^ pp_key_t k
  | Min (p, kp) -> Printf.sprintf "min %s keep=%b" (pp_key_t p) kp
  | Max (p, kp) -> Printf.sprintf "max %s keep=%b" (pp_key_t p) kp
  | Fold (p, lo, hi) -> Printf.sprintf "fold %s lo=%s hi=%s" (pp_key_t p) (pp_opt lo) (pp_opt hi)

(* Components are small Ints and Floats that collide with them (2 and
   2.0 compare equal), so unique checks, stored-key replacement and
   mixed comparisons all fire; keys of one to three components make
   proper prefixes of stored keys common. *)
let gen_value range =
  QCheck.Gen.(
    frequency
      [
        (4, map (fun i -> Value.Int i) (int_bound range));
        (1, map (fun i -> Value.Float (float_of_int i)) (int_bound range));
        (1, map (fun i -> Value.Float (float_of_int i +. 0.5)) (int_bound range));
      ])

let gen_key ~range ~arity =
  QCheck.Gen.(
    int_range 1 arity >>= fun n -> map Array.of_list (list_repeat n (gen_value range)))

let gen_op ~range ~arity ~tids =
  let open QCheck.Gen in
  let key = gen_key ~range ~arity and tid = int_bound tids in
  let prefix = int_bound (arity - 1) >>= fun n -> map Array.of_list (list_repeat n (gen_value range)) in
  frequency
    [
      (6, map2 (fun k t -> Insert (k, t)) key tid);
      (4, map2 (fun k t -> Insert_live (k, t)) key tid);
      (4, map2 (fun k t -> Remove (k, t)) key tid);
      (1, map (fun k -> Find k) key);
      (1, map2 (fun p b -> Min (p, b)) prefix bool);
      (1, map2 (fun p b -> Max (p, b)) prefix bool);
      ( 1,
        map3
          (fun p lo hi -> Fold (p, lo, hi))
          prefix (opt (gen_value range)) (opt (gen_value range)) );
    ]

(* Run [ops] on a fresh index and a fresh oracle; the first difference
   is reported as a string. *)
let run_model ~unique ops =
  let idx =
    Index.create ~kind:Index.Ordered ~name:"m" ~key_cols:[| 0; 1; 2 |] ~unique ()
  in
  let ora = O.create ~unique in
  let fail i op what got want =
    Some (Printf.sprintf "op %d (%s): %s: got %s, oracle %s" i (pp_op op) what got want)
  in
  let tids l = "[" ^ String.concat ";" (List.map string_of_int l) ^ "]" in
  let hit = function None -> "none" | Some (k, l) -> pp_key_t k ^ tids l in
  let outcome f = match f () with () -> "ok" | exception (Db_error.Constraint_violation _ | O.Duplicate) -> "dup" in
  let rec go i = function
    | [] -> None
    | op :: rest -> (
        let res =
          match op with
          | Insert (k, t) ->
              let a = outcome (fun () -> Index.insert idx k t)
              and b = outcome (fun () -> O.insert ora k t) in
              if a <> b then fail i op "outcome" a b else None
          | Insert_live (k, t) ->
              let a = outcome (fun () -> Index.insert_live idx ~live (Array.copy k) t)
              and b = outcome (fun () -> O.insert_live ora ~live (Array.copy k) t) in
              if a <> b then fail i op "outcome" a b else None
          | Remove (k, t) ->
              Index.remove idx (Array.copy k) t;
              O.remove ora (Array.copy k) t;
              None
          | Find k ->
              let a = Index.find idx k and b = O.find ora k in
              if a <> b then fail i op "tids" (tids a) (tids b) else None
          | Min (p, kp) ->
              let keep = if kp then Some keep else None in
              let a = Index.min_with_prefix ?keep idx p and b = O.min_with_prefix ?keep ora p in
              if a <> b then fail i op "hit" (hit a) (hit b) else None
          | Max (p, kp) ->
              let keep = if kp then Some keep else None in
              let a = Index.max_with_prefix ?keep idx p and b = O.max_with_prefix ?keep ora p in
              if a <> b then fail i op "hit" (hit a) (hit b) else None
          | Fold (p, lo, hi) ->
              let f acc k l = (k, l) :: acc in
              let a = Index.fold_prefix_range idx ~prefix:p ?lo ?hi ~init:[] ~f ()
              and b = O.fold_prefix_range ora ~prefix:p ?lo ?hi ~init:[] ~f () in
              if a <> b then
                fail i op "entries"
                  (String.concat "," (List.rev_map (fun (k, l) -> pp_key_t k ^ tids l) a))
                  (String.concat "," (List.rev_map (fun (k, l) -> pp_key_t k ^ tids l) b))
              else None
        in
        match res with
        | Some _ -> res
        | None ->
            if Index.entry_count idx <> ora.O.count then
              fail i op "entry_count" (string_of_int (Index.entry_count idx))
                (string_of_int ora.O.count)
            else if (Index.stats idx).Index.s_keys <> O.key_count ora then
              fail i op "keys" (string_of_int (Index.stats idx).Index.s_keys)
                (string_of_int (O.key_count ora))
            else go (i + 1) rest)
  in
  match go 0 ops with
  | Some _ as r -> r
  | None ->
      (* the whole content, stored keys and TID order included *)
      let all_a = Index.fold_prefix_range idx ~prefix:[||] ~init:[] ~f:(fun acc k l -> (k, l) :: acc) ()
      and all_b = O.fold_prefix_range ora ~prefix:[||] ~init:[] ~f:(fun acc k l -> (k, l) :: acc) () in
      if all_a <> all_b then Some "final contents differ" else None

let model_prop ~name ~count ~range ~arity ~tids ~len =
  let gen =
    QCheck.Gen.(pair bool (list_size (int_range 1 len) (gen_op ~range ~arity ~tids)))
  in
  let print (unique, ops) =
    Printf.sprintf "unique=%b\n%s" unique (String.concat "\n" (List.map pp_op ops))
  in
  QCheck.Test.make ~name ~count (QCheck.make gen ~print) (fun (unique, ops) ->
      match run_model ~unique ops with
      | None -> true
      | Some msg -> QCheck.Test.fail_report msg)

(* Small domain: collisions, duplicate TIDs, unique violations. *)
let prop_small =
  model_prop ~name:"B+-tree = map oracle (colliding keys)" ~count:300 ~range:4 ~arity:3
    ~tids:8 ~len:200

(* Wide domain, long runs: enough keys for several levels of splits,
   then removals that empty and unlink leaves and inner nodes. *)
let prop_deep =
  model_prop ~name:"B+-tree = map oracle (deep trees)" ~count:20 ~range:40 ~arity:3
    ~tids:64 ~len:4000

(* Sequential keys in, most of them out again: the split and unlink
   paths at the tree's edges, checked against the oracle at the end. *)
let sequential_churn () =
  let ops =
    List.init 3000 (fun i -> Insert ([| Value.Int (i mod 3); Value.Int i |], i))
    @ List.init 2900 (fun i -> Remove ([| Value.Int (i mod 3); Value.Int i |], i))
    @ List.init 3000 (fun i -> Insert ([| Value.Int (i mod 3); Value.Int (-i) |], i))
    @ [ Min ([| Value.Int 1 |], false); Max ([| Value.Int 2 |], true); Fold ([| Value.Int 0 |], Some (Value.Int 2950), None) ]
  in
  match run_model ~unique:false ops with
  | None -> ()
  | Some msg -> Alcotest.fail msg

(* One thread appends keys [1; i] in ascending order (with keys under
   the neighbouring prefixes in between, so splits land around the
   probed range); another range-probes prefix [1] meanwhile.  Each
   probe must see keys 0..m-1 in order, every one with its TID, and
   at least every key whose insert finished before the probe began. *)
let concurrent_probe_stress () =
  let idx = Index.create ~kind:Index.Ordered ~name:"s" ~key_cols:[| 0; 1 |] ~unique:true () in
  let n = 20_000 in
  let done_ = Atomic.make 0 in
  let writer () =
    for i = 0 to n - 1 do
      Index.insert idx [| Value.Int 1; Value.Int i |] i;
      Index.insert idx [| Value.Int (2 * (i mod 2)); Value.Int (n - i) |] (n + i);
      Atomic.set done_ (i + 1);
      if i mod 97 = 0 then Thread.yield ()
    done
  in
  let bad = ref None and probes = ref 0 in
  let reader () =
    while Atomic.get done_ < n && !bad = None do
      let before = Atomic.get done_ in
      let got =
        Index.fold_prefix_range idx ~prefix:[| Value.Int 1 |] ~init:[]
          ~f:(fun acc k tids -> (k, tids) :: acc)
          ()
      in
      let m = List.length got in
      if m < before then bad := Some (Printf.sprintf "probe saw %d keys, %d were in" m before);
      List.iteri
        (fun j (k, tids) ->
          let i = m - 1 - j in
          if k <> [| Value.Int 1; Value.Int i |] || tids <> [ i ] then
            bad := Some (Printf.sprintf "probe entry %d is %s" i (pp_key k)))
        got;
      incr probes;
      Thread.yield ()
    done
  in
  let w = Thread.create writer () and r = Thread.create reader () in
  Thread.join w;
  Thread.join r;
  (match !bad with Some msg -> Alcotest.fail msg | None -> ());
  Alcotest.(check bool) "reader probed while the writer ran" true (!probes > 0);
  Alcotest.(check int) "every key in" (2 * n) (Index.entry_count idx)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_small;
    QCheck_alcotest.to_alcotest prop_deep;
    Alcotest.test_case "sequential churn matches the oracle" `Quick sequential_churn;
    Alcotest.test_case "range probes racing inserts" `Quick concurrent_probe_stress;
  ]
