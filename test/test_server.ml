(* Wire-server coverage: protocol round-trips, concurrent sessions
   overlapping a live migration (row-exact against an in-process
   oracle), per-session prepared-statement isolation, the queue-full and
   breaker-open error paths (deterministic via an injected frontend /
   debt gauge), snapshot pins, and clean shutdown draining. *)

open Bullfrog_db
open Bullfrog_server
module Cluster = Bullfrog_cluster.Cluster
module Migration = Bullfrog_core.Migration

let check = Alcotest.check

let with_server ?config ?debt frontend f =
  let server = Server.start ?config ?debt frontend in
  Fun.protect ~finally:(fun () -> Server.stop server) (fun () -> f server)

let with_client server f =
  let cl = Client.connect ~port:(Server.port server) () in
  Fun.protect ~finally:(fun () -> Client.close cl) (fun () -> f cl)

let row_str row =
  String.concat "|" (List.map Value.to_string (Array.to_list row))

(* A frontend whose exec is a closure — lets tests stall statements or
   count applications without any engine underneath. *)
let fn_frontend exec =
  {
    Frontend.f_name = "injected";
    f_exec = (fun ?params sql -> ignore params; exec sql);
    f_query = (fun ?params sql -> ignore params; ignore sql; []);
    f_explain = (fun _ -> "");
  }

(* -- protocol round-trip through a real socket ----------------------- *)

let protocol_roundtrip () =
  let db = Database.create () in
  with_server (Frontend.of_database db) @@ fun server ->
  with_client server @@ fun cl ->
  (match Client.exec cl "CREATE TABLE kv (k INT PRIMARY KEY, v TEXT)" with
  | Protocol.Ok_text _ -> ()
  | _ -> Alcotest.fail "DDL should return TEXT");
  (match Client.exec cl "INSERT INTO kv VALUES (1, 'tab\there'), (2, 'line\nbreak')" with
  | Protocol.Ok_affected 2 -> ()
  | _ -> Alcotest.fail "INSERT should return OK 2");
  (* framing bytes inside values survive the wire *)
  check (Alcotest.list Alcotest.string) "escaped values round-trip"
    [ "1|tab\there"; "2|line\nbreak" ]
    (List.sort compare
       (List.map row_str (Client.query cl "SELECT k, v FROM kv")));
  (match Client.exec cl "SELECT v FROM kv WHERE k = 99" with
  | Protocol.Ok_rows (_, []) -> ()
  | _ -> Alcotest.fail "empty result should still be ROWS");
  (match Client.exec cl "SELEC nonsense" with
  | Protocol.Error (Protocol.Err_sql, _) -> ()
  | _ -> Alcotest.fail "sql error should map to ERR SQL");
  (match Client.request cl Protocol.Quit with
  | Protocol.Bye -> ()
  | _ -> Alcotest.fail "QUIT should answer BYE")

(* -- concurrent sessions during a live migration --------------------- *)

let concurrent_sessions_during_migration () =
  let shards = 4 in
  let c = Cluster.create ~shards () in
  ignore (Cluster.exec c "CREATE TABLE src (id INT PRIMARY KEY, grp INT, v TEXT)"
           : Executor.result);
  ignore
    (Cluster.exec c
       ("INSERT INTO src VALUES "
       ^ String.concat ", "
           (List.init 40 (fun i -> Printf.sprintf "(%d, %d, 'r%02d')" i (i mod 5) i)))
      : Executor.result);
  (* identical single-node oracle, no server in front *)
  let odb = Database.create () in
  ignore (Database.exec odb "CREATE TABLE src (id INT PRIMARY KEY, grp INT, v TEXT)"
           : Executor.result);
  ignore
    (Database.exec odb
       ("INSERT INTO src VALUES "
       ^ String.concat ", "
           (List.init 40 (fun i -> Printf.sprintf "(%d, %d, 'r%02d')" i (i mod 5) i)))
      : Executor.result);
  let obf = Bullfrog_core.Lazy_db.create odb in
  let spec =
    Migration.make ~name:"regroup"
      [ Migration.statement_of_sql "CREATE TABLE dst AS (SELECT grp, id, v FROM src)" ]
  in
  Cluster.start_migration c spec;
  ignore (Bullfrog_core.Lazy_db.start_migration obf spec
           : Bullfrog_core.Migrate_exec.t);
  with_server
    ~debt:(fun () -> Cluster.migration_debt c)
    (Cluster.frontend c)
  @@ fun server ->
  (* N sessions, each mixing reads that drive lazy migration with
     writes through the new schema, all overlapping — every statement
     must succeed *)
  let nconns = 6 and per_conn = 10 in
  let errors = Array.make nconns [] in
  let worker n () =
    with_client server @@ fun cl ->
    for i = 0 to per_conn - 1 do
      let grp = (n + i) mod 5 in
      (match Client.exec cl (Printf.sprintf "SELECT v FROM dst WHERE grp = %d" grp) with
      | Protocol.Ok_rows _ -> ()
      | r ->
          errors.(n) <-
            Printf.sprintf "select got %s"
              (match r with
              | Protocol.Error (_, m) -> m
              | _ -> "unexpected shape")
            :: errors.(n));
      let id = 100 + (n * per_conn) + i in
      match
        Client.exec cl
          (Printf.sprintf "INSERT INTO dst VALUES (%d, %d, 'w%d')" (id mod 5) id id)
      with
      | Protocol.Ok_affected 1 -> ()
      | r ->
          errors.(n) <-
            Printf.sprintf "insert got %s"
              (match r with
              | Protocol.Error (_, m) -> m
              | _ -> "unexpected shape")
            :: errors.(n)
    done
  in
  let threads = List.init nconns (fun n -> Thread.create (worker n) ()) in
  List.iter Thread.join threads;
  Array.iteri
    (fun n errs ->
      check (Alcotest.list Alcotest.string)
        (Printf.sprintf "session %d clean" n)
        [] errs)
    errors;
  (* drain the migration on both engines and compare *)
  let fuel = ref 400 in
  while (not (Cluster.migration_complete c)) && !fuel > 0 do
    decr fuel;
    ignore (Cluster.background_step c ~batch:8 : int)
  done;
  let rec drain () =
    if Bullfrog_core.Lazy_db.background_step obf ~batch:8 > 0 then drain ()
  in
  drain ();
  (* replay the same writes on the oracle *)
  for n = 0 to nconns - 1 do
    for i = 0 to per_conn - 1 do
      let id = 100 + (n * per_conn) + i in
      ignore
        (Bullfrog_core.Lazy_db.exec obf
           (Printf.sprintf "INSERT INTO dst VALUES (%d, %d, 'w%d')" (id mod 5) id id)
          : Executor.result)
    done
  done;
  drain ();
  with_client server @@ fun cl ->
  (* the old schema is write-protected while the migration is in flight *)
  (match Client.exec cl "INSERT INTO src VALUES (999, 0, 'stale')" with
  | Protocol.Error (Protocol.Err_sql, _) -> ()
  | _ -> Alcotest.fail "writes to a migration input must be rejected");
  check (Alcotest.list Alcotest.string) "row-exact vs in-process oracle"
    (List.sort compare
       (List.map row_str (Database.query odb "SELECT grp, id, v FROM dst")))
    (List.sort compare
       (List.map row_str (Client.query cl "SELECT grp, id, v FROM dst")))

(* -- prepared statements are per-session ----------------------------- *)

let prepared_isolation () =
  let db = Database.create () in
  ignore (Database.exec db "CREATE TABLE kv (k INT PRIMARY KEY, v TEXT)"
           : Executor.result);
  ignore (Database.exec db "INSERT INTO kv VALUES (1, 'a'), (2, 'b')"
           : Executor.result);
  with_server (Frontend.of_database db) @@ fun server ->
  with_client server @@ fun cl1 ->
  with_client server @@ fun cl2 ->
  (match Client.prepare cl1 "get" "SELECT v FROM kv WHERE k = $1" with
  | Protocol.Ok_text _ -> ()
  | _ -> Alcotest.fail "prepare should succeed");
  (match Client.exec_prepared cl1 "get" [| Value.Int 2 |] with
  | Protocol.Ok_rows (_, [ [| Value.Str "b" |] ]) -> ()
  | _ -> Alcotest.fail "prepared exec should find row 2");
  (* the name is invisible from the other session *)
  (match Client.exec_prepared cl2 "get" [| Value.Int 2 |] with
  | Protocol.Error (Protocol.Err_bad, _) -> ()
  | _ -> Alcotest.fail "prepared statements must be session-scoped");
  (* bad SQL is rejected at prepare time, and the name stays unbound *)
  (match Client.prepare cl2 "broken" "SELEC nope" with
  | Protocol.Error (Protocol.Err_sql, _) -> ()
  | _ -> Alcotest.fail "prepare must validate");
  match Client.exec_prepared cl2 "broken" [||] with
  | Protocol.Error (Protocol.Err_bad, _) -> ()
  | _ -> Alcotest.fail "failed prepare must not bind the name"

(* -- queue-full backpressure ----------------------------------------- *)

let queue_full_retryable () =
  (* one worker wedged on a slow statement + capacity-1 queue: the third
     concurrent request must bounce with ERR RETRY, not block or drop *)
  let gate = Mutex.create () in
  let gate_cond = Condition.create () in
  let release = ref false in
  let slow_started = ref false in
  let frontend =
    fn_frontend (fun sql ->
        if sql = "SLOW" then begin
          Mutex.lock gate;
          slow_started := true;
          Condition.broadcast gate_cond;
          while not !release do
            Condition.wait gate_cond gate
          done;
          Mutex.unlock gate;
          Executor.Affected 0
        end
        else Executor.Affected 1)
  in
  let config = { Server.default_config with workers = 1; queue_cap = 1 } in
  with_server ~config frontend @@ fun server ->
  let t1 =
    Thread.create
      (fun () ->
        with_client server @@ fun cl ->
        ignore (Client.exec cl "SLOW" : Protocol.response))
      ()
  in
  (* wait until the slow statement occupies the only worker *)
  Mutex.lock gate;
  while not !slow_started do
    Condition.wait gate_cond gate
  done;
  Mutex.unlock gate;
  (* second request parks in the queue (its client thread blocks) *)
  let parked = ref None in
  let t2 =
    Thread.create
      (fun () ->
        with_client server @@ fun cl ->
        parked := Some (Client.exec cl "INSERT 1"))
      ()
  in
  (* give the parked request time to occupy the queue slot *)
  let rec wait_for_depth n =
    if n = 0 then Alcotest.fail "queued request never showed up"
    else if
      List.exists
        (fun st ->
          List.assoc_opt "queue_depth" st.Obs.st_fields = Some 1.0)
        ((Obs.snapshot ()).Obs.snap_stats)
    then ()
    else begin
      Thread.delay 0.01;
      wait_for_depth (n - 1)
    end
  in
  wait_for_depth 200;
  (* third request: queue full -> retryable error, immediately *)
  with_client server (fun cl ->
      match Client.exec cl "INSERT 2" with
      | Protocol.Error (Protocol.Err_retry, msg) ->
          check Alcotest.bool "error names the queue" true
            (msg = "admission queue full")
      | _ -> Alcotest.fail "expected ERR RETRY when the queue is full");
  (* unwedge; both outstanding requests complete *)
  Mutex.lock gate;
  release := true;
  Condition.broadcast gate_cond;
  Mutex.unlock gate;
  Thread.join t1;
  Thread.join t2;
  match !parked with
  | Some (Protocol.Ok_affected 1) -> ()
  | _ -> Alcotest.fail "parked request must complete once the worker frees"

(* -- execution slots bound concurrency --------------------------------- *)

(* No pool enforces [workers] any more: the cap is the admission counter.
   Four sessions hammer a frontend that records how many statements are
   inside it at once; the high-water mark must equal the cap. *)
let max_concurrent ~workers =
  let m = Mutex.create () in
  let inside = ref 0 and high = ref 0 in
  let frontend =
    fn_frontend (fun _ ->
        Mutex.lock m;
        incr inside;
        high := max !high !inside;
        Mutex.unlock m;
        Thread.delay 0.005;
        Mutex.lock m;
        decr inside;
        Mutex.unlock m;
        Executor.Affected 1)
  in
  let config = { Server.default_config with workers } in
  with_server ~config frontend @@ fun server ->
  let ok = Array.make 4 0 in
  let sessions =
    List.init 4 (fun i ->
        Thread.create
          (fun () ->
            with_client server @@ fun cl ->
            for _ = 1 to 8 do
              match Client.exec cl "INSERT x" with
              | Protocol.Ok_affected 1 -> ok.(i) <- ok.(i) + 1
              | _ -> ()
            done)
          ())
  in
  List.iter Thread.join sessions;
  check Alcotest.int "every statement answered" 32 (Array.fold_left ( + ) 0 ok);
  !high

let slots_bound_concurrency () =
  check Alcotest.int "workers = 1 serialises statements" 1
    (max_concurrent ~workers:1);
  check Alcotest.int "workers = 2 runs two at once, never more" 2
    (max_concurrent ~workers:2)

(* -- breaker: sheds reads above the threshold, hysteresis on close ---- *)

let breaker_sheds_with_hysteresis () =
  let debt = ref 0 in
  let applied = ref 0 in
  let frontend =
    fn_frontend (fun sql ->
        if String.length sql >= 6 && String.sub sql 0 6 = "SELECT" then
          Executor.Rows ([ "x" ], [])
        else begin
          incr applied;
          Executor.Affected 1
        end)
  in
  let config =
    { Server.default_config with open_above = 50; close_below = 10 }
  in
  with_server ~config ~debt:(fun () -> !debt) frontend @@ fun server ->
  with_client server @@ fun cl ->
  let select () = Client.exec cl "SELECT 1" in
  let insert () = Client.exec cl "INSERT x" in
  let is_shed = function
    | Protocol.Error (Protocol.Err_shed, _) -> true
    | _ -> false
  in
  (* breaker samples at most every 10ms: step debt, wait out the window *)
  let settle () = Thread.delay 0.03 in
  check Alcotest.bool "closed at zero debt" false (is_shed (select ()));
  debt := 100;
  settle ();
  check Alcotest.bool "opens above threshold" true (is_shed (select ()));
  check Alcotest.bool "writes stay admitted while open" false
    (is_shed (insert ()));
  (* hysteresis: inside the band the breaker stays open *)
  debt := 30;
  settle ();
  check Alcotest.bool "stays open between close_below and open_above" true
    (is_shed (select ()));
  debt := 5;
  settle ();
  check Alcotest.bool "closes below close_below" false (is_shed (select ()));
  check Alcotest.int "one open/close cycle" 1 (Breaker.closes (Server.breaker server));
  check Alcotest.bool "shed statements never reached the frontend" true
    (!applied >= 1)

(* -- session snapshot pin holds the GC horizon ----------------------- *)

let session_pin_holds_horizon () =
  let db = Database.create () in
  ignore (Database.exec db "CREATE TABLE kv (k INT PRIMARY KEY, v TEXT)"
           : Executor.result);
  ignore (Database.exec db "INSERT INTO kv VALUES (1, 'a')" : Executor.result);
  with_server (Frontend.of_database db) @@ fun server ->
  with_client server @@ fun cl ->
  (match Client.pin cl with
  | Protocol.Ok_text _ -> ()
  | _ -> Alcotest.fail "PIN should ack");
  (match Client.pin cl with
  | Protocol.Error (Protocol.Err_bad, _) -> ()
  | _ -> Alcotest.fail "double PIN must be rejected");
  ignore (Client.exec cl "UPDATE kv SET v = 'b' WHERE k = 1" : Protocol.response);
  ignore (Database.vacuum db : int);
  check Alcotest.bool "pinned session blocks version GC" true
    (Database.version_backlog db > 0);
  (match Client.unpin cl with
  | Protocol.Ok_text _ -> ()
  | _ -> Alcotest.fail "UNPIN should ack");
  ignore (Database.vacuum db : int);
  check Alcotest.int "backlog drains after UNPIN" 0 (Database.version_backlog db)

(* a dropped connection releases its pin too *)
let pin_released_on_disconnect () =
  let db = Database.create () in
  ignore (Database.exec db "CREATE TABLE kv (k INT PRIMARY KEY, v TEXT)"
           : Executor.result);
  ignore (Database.exec db "INSERT INTO kv VALUES (1, 'a')" : Executor.result);
  with_server (Frontend.of_database db) @@ fun server ->
  let horizon0 = Mvcc.horizon () in
  with_client server (fun cl ->
      ignore (Client.pin cl : Protocol.response);
      ignore (Client.exec cl "UPDATE kv SET v = 'b' WHERE k = 1"
               : Protocol.response));
  (* client closed; the reader must have unpinned on the way out *)
  let rec wait n =
    if Mvcc.horizon () > horizon0 then ()
    else if n = 0 then Alcotest.fail "disconnect did not release the pin"
    else begin
      Thread.delay 0.01;
      wait (n - 1)
    end
  in
  wait 200

(* -- clean shutdown drains admitted work ----------------------------- *)

let shutdown_drains () =
  let applied = ref 0 in
  let frontend =
    fn_frontend (fun _ ->
        Thread.delay 0.05;
        incr applied;
        Executor.Affected 1)
  in
  let config = { Server.default_config with workers = 2; queue_cap = 32 } in
  let server = Server.start ~config frontend in
  let replies = Array.make 4 None in
  let clients =
    List.init 4 (fun i ->
        Thread.create
          (fun () ->
            with_client server @@ fun cl ->
            replies.(i) <- Some (Client.exec cl "INSERT x"))
          ())
  in
  Thread.delay 0.02;
  (* stop while requests are in flight: every admitted one completes *)
  Server.stop server;
  List.iter Thread.join clients;
  let ok =
    Array.fold_left
      (fun acc r ->
        match r with Some (Protocol.Ok_affected 1) -> acc + 1 | _ -> acc)
      0 replies
  in
  check Alcotest.int "every admitted request was applied and answered" ok
    !applied;
  check Alcotest.bool "shutdown did not drop admitted work" true (ok >= 1);
  (* the port no longer accepts *)
  match Client.connect ~port:(Server.port server) () with
  | exception Unix.Unix_error _ -> ()
  | cl ->
      (* accept backlog raced the close: the stream must at least be dead *)
      (match Client.exec cl "INSERT x" with
      | exception (Client.Closed | Sys_error _ | Unix.Unix_error _) -> ()
      | Protocol.Error _ -> ()
      | _ -> Alcotest.fail "stopped server must not execute new work");
      Client.close cl

(* -- distributed tracing: one wire request, one connected tree -------- *)

(* A 4-shard cluster mid-way through a partition-key-changing migration,
   with the server fronting it.  One traced scan must produce a single
   tree rooted at the app span: client request -> server stmt ->
   router -> per-shard scatter spans, plus the lazy-migrate and 2PC work
   the scan itself triggers.  This is the PR's acceptance shape. *)
let cluster_setup () =
  let c = Cluster.create ~shards:4 () in
  ignore (Cluster.exec c "CREATE TABLE src (id INT PRIMARY KEY, grp INT, v TEXT)"
           : Executor.result);
  ignore
    (Cluster.exec c
       ("INSERT INTO src VALUES "
       ^ String.concat ", "
           (List.init 40 (fun i -> Printf.sprintf "(%d, %d, 'r%02d')" i (i mod 5) i)))
      : Executor.result);
  Cluster.start_migration c
    (Migration.make ~name:"regroup"
       [ Migration.statement_of_sql "CREATE TABLE dst AS (SELECT grp, id, v FROM src)" ]);
  c

let trace_tree_connected () =
  let module T = Obs.Trace in
  let c = cluster_setup () in
  Fun.protect ~finally:(fun () ->
      T.disable ();
      T.clear ();
      Cluster.close c)
  @@ fun () ->
  T.enable ~capacity:16_384 ();
  with_server ~debt:(fun () -> Cluster.migration_debt c) (Cluster.frontend c)
  @@ fun server ->
  with_client server @@ fun cl ->
  let rows =
    T.with_span ~cat:"app" "traced-scan" (fun () ->
        Client.query cl "SELECT grp, id, v FROM dst")
  in
  check Alcotest.int "scan sees every row" 40 (List.length rows);
  let events = T.export () in
  (match T.validate events with
  | Ok _ -> ()
  | Error msg -> Alcotest.fail ("trace invalid: " ^ msg));
  let req =
    try
      List.find
        (fun e ->
          e.T.ev_phase = T.Span_begin && e.T.ev_name = "request"
          && e.T.ev_cat = "client")
        events
    with Not_found -> Alcotest.fail "no client request span"
  in
  let tree =
    List.filter
      (fun e -> e.T.ev_phase = T.Span_begin && e.T.ev_trace = req.T.ev_trace)
      events
  in
  let by_span = Hashtbl.create 64 in
  List.iter (fun e -> Hashtbl.replace by_span e.T.ev_span e) tree;
  (* exactly one root, and every parent link walks back to it *)
  (match List.filter (fun e -> e.T.ev_parent = 0) tree with
  | [ root ] -> check Alcotest.string "root is the app span" "traced-scan" root.T.ev_name
  | roots ->
      Alcotest.fail (Printf.sprintf "expected one tree root, got %d" (List.length roots)));
  let rec reaches_root e seen =
    if e.T.ev_parent = 0 then ()
    else if List.mem e.T.ev_span seen then Alcotest.fail "parent cycle"
    else
      match Hashtbl.find_opt by_span e.T.ev_parent with
      | Some p -> reaches_root p (e.T.ev_span :: seen)
      | None ->
          Alcotest.fail
            (Printf.sprintf "span %S disconnected from the tree" e.T.ev_name)
  in
  List.iter (fun e -> reaches_root e []) tree;
  let names = List.map (fun e -> e.T.ev_name) tree in
  List.iter
    (fun n ->
      check Alcotest.bool (Printf.sprintf "span %S present" n) true (List.mem n names))
    [ "request"; "stmt"; "route"; "2pc"; "lazy-migrate" ];
  check Alcotest.bool "per-shard spans present" true
    (List.exists
       (fun n -> String.length n >= 6 && String.sub n 0 6 = "shard-")
       names)

(* -- STATS round-trips the coordinator's snapshot --------------------- *)

let stats_roundtrip_wire () =
  let c = cluster_setup () in
  Fun.protect ~finally:(fun () -> Cluster.close c) @@ fun () ->
  with_server ~debt:(fun () -> Cluster.migration_debt c) (Cluster.frontend c)
  @@ fun server ->
  with_client server @@ fun cl ->
  ignore (Client.query cl "SELECT grp, id, v FROM dst" : Value.t array list);
  let txt = Client.stats cl in
  (* well-formed exposition text, and the cluster's own stats come back
     with exactly the values the coordinator reports locally *)
  check Alcotest.bool "prometheus samples parse" true
    (List.length (Exposition.parse_prometheus txt) > 0);
  let wire = Exposition.of_prometheus txt in
  let local = Cluster.obs_snapshot c in
  check Alcotest.bool "cluster reports stats" true
    (local.Obs.snap_stats <> []);
  List.iter
    (fun st ->
      match
        List.find_opt
          (fun w ->
            w.Obs.st_source = st.Obs.st_source && w.Obs.st_name = st.Obs.st_name)
          wire.Obs.snap_stats
      with
      | None ->
          Alcotest.fail
            (Printf.sprintf "stat %s/%s missing from the wire" st.Obs.st_source
               st.Obs.st_name)
      | Some w ->
          List.iter
            (fun (f, v) ->
              check (Alcotest.float 0.0)
                (Printf.sprintf "%s/%s.%s exact" st.Obs.st_source st.Obs.st_name f)
                v
                (match List.assoc_opt f w.Obs.st_fields with
                | Some x -> x
                | None -> Alcotest.fail ("field lost on the wire: " ^ f)))
            st.Obs.st_fields)
    local.Obs.snap_stats;
  (* json form is served too *)
  let js = Client.stats ~fmt:"json" cl in
  check Alcotest.bool "json form" true (String.length js > 0 && js.[0] = '{');
  match Client.request cl (Protocol.Stats (Some "xml")) with
  | Protocol.Error (Protocol.Err_bad, _) -> ()
  | _ -> Alcotest.fail "unknown format must be rejected"

(* -- slow-query log captures over-threshold statements ----------------- *)

let slow_query_log () =
  let db = Database.create () in
  ignore (Database.exec db "CREATE TABLE kv (k INT PRIMARY KEY, v TEXT)"
           : Executor.result);
  ignore (Database.exec db "INSERT INTO kv VALUES (1, 'a'), (2, 'b')"
           : Executor.result);
  (* threshold zero: every statement is "slow", deterministically *)
  let config = { Server.default_config with slow_query_s = 0.0 } in
  with_server ~config (Frontend.of_database db) @@ fun server ->
  with_client server @@ fun cl ->
  ignore (Client.query cl "SELECT v FROM kv WHERE k = 1" : Value.t array list);
  (match Client.exec cl "UPDATE kv SET v = 'c' WHERE k = 2" with
  | Protocol.Ok_affected 1 -> ()
  | _ -> Alcotest.fail "update should apply");
  let log = Server.slow_log server in
  let find cls =
    match List.find_opt (fun q -> q.Server.sq_class = cls) log with
    | Some q -> q
    | None -> Alcotest.fail ("no slow " ^ cls ^ " captured")
  in
  let rd = find "point" in
  check Alcotest.string "read sql captured" "SELECT v FROM kv WHERE k = 1"
    rd.Server.sq_sql;
  check Alcotest.bool "read detail has ANALYZE actuals" true
    (let rec contains i =
       i + 11 <= String.length rd.Server.sq_detail
       && (String.sub rd.Server.sq_detail i 11 = "actual rows" || contains (i + 1))
     in
     contains 0);
  let wr = find "write" in
  check Alcotest.bool "write captured with plan, not re-executed" true
    (String.length wr.Server.sq_detail > 0);
  check
    (Alcotest.list Alcotest.string)
    "rerun-for-detail did not double the write" [ "2|c" ]
    (List.map row_str (Client.query cl "SELECT k, v FROM kv WHERE k = 2"));
  check Alcotest.bool "timings non-negative" true
    (List.for_all (fun q -> q.Server.sq_seconds >= 0.0) log)

(* -- stats providers come and go with their owners -------------------- *)

let provider_lifecycle () =
  let sources () =
    List.sort_uniq compare
      (List.map (fun s -> s.Obs.st_source) (Obs.snapshot ()).Obs.snap_stats)
  in
  let db = Database.create () in
  let s1 = Server.start (Frontend.of_database db) in
  let s2 = Server.start (Frontend.of_database db) in
  let p1 = Printf.sprintf "server:%d" (Server.port s1)
  and p2 = Printf.sprintf "server:%d" (Server.port s2) in
  check Alcotest.bool "both servers publish distinct providers" true
    (p1 <> p2 && List.mem p1 (sources ()) && List.mem p2 (sources ()));
  Server.stop s1;
  check Alcotest.bool "stop removes exactly its provider" true
    ((not (List.mem p1 (sources ()))) && List.mem p2 (sources ()));
  Server.stop s2;
  check Alcotest.bool "second stop removes the second provider" false
    (List.mem p2 (sources ()));
  (* diff against what was already registered: other tests may hold
     live clusters of their own *)
  let before = sources () in
  let c = Cluster.create ~shards:2 () in
  let fresh = List.filter (fun s -> not (List.mem s before)) (sources ()) in
  check Alcotest.bool "cluster publishes a fresh provider" true (fresh <> []);
  Cluster.close c;
  List.iter
    (fun src ->
      check Alcotest.bool ("closed cluster provider gone: " ^ src) false
        (List.mem src (sources ())))
    fresh

let suite =
  [
    Alcotest.test_case "protocol round-trip over socket" `Quick protocol_roundtrip;
    Alcotest.test_case "concurrent sessions during migration" `Quick
      concurrent_sessions_during_migration;
    Alcotest.test_case "prepared statements are session-scoped" `Quick
      prepared_isolation;
    Alcotest.test_case "queue-full requests bounce retryable" `Quick
      queue_full_retryable;
    Alcotest.test_case "execution slots bound concurrency" `Quick
      slots_bound_concurrency;
    Alcotest.test_case "breaker sheds with hysteresis" `Quick
      breaker_sheds_with_hysteresis;
    Alcotest.test_case "session pin holds the GC horizon" `Quick
      session_pin_holds_horizon;
    Alcotest.test_case "disconnect releases the session pin" `Quick
      pin_released_on_disconnect;
    Alcotest.test_case "clean shutdown drains admitted work" `Quick
      shutdown_drains;
    Alcotest.test_case "one wire request, one connected trace tree" `Quick
      trace_tree_connected;
    Alcotest.test_case "STATS round-trips the coordinator snapshot" `Quick
      stats_roundtrip_wire;
    Alcotest.test_case "slow-query log captures with actuals" `Quick
      slow_query_log;
    Alcotest.test_case "stats providers unregister with owners" `Quick
      provider_lifecycle;
  ]
