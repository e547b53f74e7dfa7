open Bullfrog_db

(* Long-running wire server: an accept thread hands each connection to a
   dedicated reader thread, which does admission control (token bucket,
   breaker, bounded wait for an execution slot) and then runs the
   statement itself, so a session's requests execute and answer strictly
   in order.  No worker pool: OCaml threads share one runtime lock, so a
   hand-off to another thread buys no parallelism, only a round-trip. *)

let c_conns = Obs.Counters.make "server.conns_opened"
let c_conns_closed = Obs.Counters.make "server.conns_closed"
let c_requests = Obs.Counters.make "server.requests"
let c_ok = Obs.Counters.make "server.ok"
let c_sql_errors = Obs.Counters.make "server.sql_errors"
let c_bad = Obs.Counters.make "server.bad_requests"
let c_rate_limited = Obs.Counters.make "server.rate_limited"
let c_queue_rejects = Obs.Counters.make "server.queue_rejects"
let c_shed = Obs.Counters.make "server.shed"
let c_drain_rejects = Obs.Counters.make "server.drain_rejects"
let c_slow = Obs.Counters.make "server.slow_queries"

type config = {
  host : string;
  port : int;  (** 0 = ephemeral; read the bound port back with {!port} *)
  workers : int;  (** statements executing at once, across all sessions *)
  queue_cap : int;  (** admitted requests waiting for one of those slots *)
  rate : float;
  burst : float;
  open_above : int;
  close_below : int;
  slow_query_s : float;
}

let default_config =
  {
    host = "127.0.0.1";
    port = 0;
    workers = 4;
    queue_cap = 64;
    rate = infinity;
    burst = 32.0;
    open_above = max_int;
    close_below = max_int;
    slow_query_s = infinity;
  }

type slow_query = {
  sq_sql : string;
  sq_class : string;
  sq_seconds : float;
  sq_detail : string;  (** EXPLAIN ANALYZE actuals / plan + routing note *)
}

type session = {
  s_id : int;
  s_prepared : (string, string) Hashtbl.t;  (* name -> validated SQL *)
  mutable s_pinned : int option;
}

(* Latency classes: point read / scan / write / DDL.  Histograms are not
   thread-safe, so the reader takes [o_mutex] per observation — only
   when counters are enabled, keeping the disabled path at one atomic
   load. *)
let latency_classes = [ "point"; "scan"; "write"; "ddl"; "other" ]

let slow_log_cap = 64

type t = {
  cfg : config;
  frontend : Frontend.t;
  breaker : Breaker.t;
  listen_sock : Unix.file_descr;
  bound_port : int;
  prov : string;  (* per-instance Obs provider name, "server:<port>" *)
  q_mutex : Mutex.t;  (* guards the admission counts + stopping *)
  q_slot : Condition.t;  (* an execution slot freed *)
  q_drained : Condition.t;  (* the last admitted request was answered *)
  mutable running : int;  (* statements executing, at most [cfg.workers] *)
  mutable waiting : int;  (* admitted, waiting for a slot; at most [queue_cap] *)
  mutable admitted : int;  (* admitted and not yet answered *)
  mutable stopping : bool;
  mutable accept_thread : Thread.t option;
  mutable readers : Thread.t list;
  r_mutex : Mutex.t;  (* guards readers + conns *)
  mutable conns : Unix.file_descr list;
  mutable next_session : int;
  o_mutex : Mutex.t;  (* guards latencies + slow log *)
  latencies : (string * Histogram.t) list;  (* per statement class *)
  slow : slow_query Queue.t;  (* newest at the back, bounded *)
}

let port t = t.bound_port

(* -- per-class latency + slow-query log ----------------------------- *)

let sql_of session = function
  | Protocol.Exec sql -> Some sql
  | Protocol.Exec_prepared (name, _) -> Hashtbl.find_opt session.s_prepared name
  | _ -> None

(* First-keyword classification; SELECT splits point-vs-scan on whether
   the WHERE contains an equality — the same cheap scan-not-parse
   approach as [non_essential_sql], run only when counters are on. *)
let class_of_sql sql =
  let up = String.uppercase_ascii sql in
  let n = String.length up in
  let rec skip i =
    if i < n && (up.[i] = ' ' || up.[i] = '\t' || up.[i] = '\n' || up.[i] = '\r' || up.[i] = '(')
    then skip (i + 1)
    else i
  in
  let i = skip 0 in
  let rec stop j = if j < n && 'A' <= up.[j] && up.[j] <= 'Z' then stop (j + 1) else j in
  let word = String.sub up i (stop i - i) in
  match word with
  | "INSERT" | "UPDATE" | "DELETE" -> "write"
  | "CREATE" | "DROP" | "ALTER" -> "ddl"
  | "SELECT" ->
      (* a WHERE with an equality is point-ish; anything else scans *)
      let rec find_sub pat k =
        if k + String.length pat > n then false
        else if String.sub up k (String.length pat) = pat then true
        else find_sub pat (k + 1)
      in
      if find_sub " WHERE " 0 && String.contains up '=' then "point" else "scan"
  | "EXPLAIN" -> "scan"
  | _ -> "other"

let observe_latency t session req dt =
  if Obs.Counters.enabled () then begin
    match sql_of session req with
    | None -> ()
    | Some sql ->
        let cls = class_of_sql sql in
        Mutex.lock t.o_mutex;
        (match List.assoc_opt cls t.latencies with
        | Some h -> Histogram.add h dt
        | None -> ());
        Mutex.unlock t.o_mutex
  end

(* Over-threshold statements are re-explained for the log: reads rerun
   under EXPLAIN ANALYZE (side-effect-free, and the rerun's actuals are
   the point), writes and DDL get the plan + routing decision only —
   re-executing them would double their effects. *)
let capture_slow t session req dt =
  match sql_of session req with
  | None -> ()
  | Some sql ->
      Obs.Counters.bump c_slow;
      let cls = class_of_sql sql in
      let detail =
        try
          if cls = "point" || cls = "scan" then
            match t.frontend.Frontend.f_exec ("EXPLAIN ANALYZE " ^ sql) with
            | Executor.Explained s | Executor.Done s -> s
            | _ -> "(no plan)"
          else t.frontend.Frontend.f_explain sql
        with e -> Printf.sprintf "(explain failed: %s)" (Printexc.to_string e)
      in
      let entry = { sq_sql = sql; sq_class = cls; sq_seconds = dt; sq_detail = detail } in
      Mutex.lock t.o_mutex;
      Queue.push entry t.slow;
      if Queue.length t.slow > slow_log_cap then ignore (Queue.pop t.slow : slow_query);
      Mutex.unlock t.o_mutex

let slow_log t =
  Mutex.lock t.o_mutex;
  let l = List.of_seq (Queue.to_seq t.slow) in
  Mutex.unlock t.o_mutex;
  l

(* -- statement classification --------------------------------------- *)

(* Essential = anything that writes or changes schema; reads are the
   load the breaker sheds while the engine digs out of migration debt.
   (Predicate-driven migration work rides on writes too, so admitted
   traffic still advances the backfill.) *)
let non_essential_sql sql =
  let n = String.length sql in
  let rec skip i = if i < n && (sql.[i] = ' ' || sql.[i] = '\t' || sql.[i] = '\n' || sql.[i] = '\r' || sql.[i] = '(') then skip (i + 1) else i in
  let i = skip 0 in
  let word =
    let rec stop j =
      if j < n && (('a' <= sql.[j] && sql.[j] <= 'z') || ('A' <= sql.[j] && sql.[j] <= 'Z')) then stop (j + 1) else j
    in
    String.uppercase_ascii (String.sub sql i (stop i - i))
  in
  word = "SELECT" || word = "EXPLAIN"

let non_essential session = function
  | Protocol.Exec sql -> non_essential_sql sql
  | Protocol.Exec_prepared (name, _) -> (
      match Hashtbl.find_opt session.s_prepared name with
      | Some sql -> non_essential_sql sql
      | None -> false)
  | Protocol.Prepare _ | Protocol.Pin | Protocol.Unpin | Protocol.Stats _
  | Protocol.Quit ->
      false

(* -- execution ------------------------------------------------------ *)

let result_to_response = function
  | Executor.Affected n -> Protocol.Ok_affected n
  | Executor.Rows (header, rows) -> Protocol.Ok_rows (header, rows)
  | Executor.Done s | Executor.Explained s -> Protocol.Ok_text s

let run_request t session req =
  try
    match req with
    | Protocol.Exec sql ->
        Obs.Trace.with_span ~cat:"server" "stmt" @@ fun () ->
        result_to_response (t.frontend.Frontend.f_exec sql)
    | Protocol.Exec_prepared (name, params) -> (
        match Hashtbl.find_opt session.s_prepared name with
        | None ->
            Protocol.Error
              (Protocol.Err_bad, Printf.sprintf "no prepared statement %S" name)
        | Some sql ->
            Obs.Trace.with_span ~cat:"server" "stmt" @@ fun () ->
            result_to_response (t.frontend.Frontend.f_exec ~params sql))
    | Protocol.Prepare (name, sql) ->
        (* parse now so the session learns about bad SQL at prepare time *)
        ignore (Bullfrog_sql.Parser.parse_one sql : Bullfrog_sql.Ast.stmt);
        Hashtbl.replace session.s_prepared name sql;
        Protocol.Ok_text "PREPARED"
    | Protocol.Pin | Protocol.Unpin | Protocol.Stats _ | Protocol.Quit ->
        (* answered in [handle_request]; never admitted *)
        Protocol.Error (Protocol.Err_bad, "unroutable request")
  with
  | Db_error.Sql_error msg ->
      Obs.Counters.bump c_sql_errors;
      Protocol.Error (Protocol.Err_sql, msg)
  | Bullfrog_sql.Parser.Parse_error msg ->
      Obs.Counters.bump c_sql_errors;
      Protocol.Error (Protocol.Err_sql, msg)
  | Bullfrog_sql.Lexer.Lex_error (msg, off) ->
      Obs.Counters.bump c_sql_errors;
      Protocol.Error (Protocol.Err_sql, Printf.sprintf "%s (at byte %d)" msg off)
  | e ->
      Obs.Counters.bump c_bad;
      (* an unclassified exception escaping the engine is the "server
         abort" the flight recorder is for: dump before answering *)
      Obs.Flight.notef ~cat:"server" "request aborted: %s" (Printexc.to_string e);
      ignore (Obs.Flight.crash_dump ~reason:"server-abort" : string option);
      Protocol.Error (Protocol.Err_bad, Printexc.to_string e)

(* Run an admitted request on the calling reader thread; the wire CTX
   joins its spans to the client's trace tree. *)
let execute t session ctx req =
  (* time the request only when someone consumes the timing *)
  let timing = Obs.Counters.enabled () || t.cfg.slow_query_s < infinity in
  let t0 = if timing then Unix.gettimeofday () else 0.0 in
  let reply =
    Obs.Trace.with_context ctx (fun () -> run_request t session req)
  in
  if timing then begin
    let dt = Unix.gettimeofday () -. t0 in
    observe_latency t session req dt;
    if dt >= t.cfg.slow_query_s then capture_slow t session req dt
  end;
  reply

(* -- admission ------------------------------------------------------ *)

(* Admit under the caps, wait for one of the [workers] execution slots,
   run, and answer through [respond].  The request stays counted in
   [admitted] until [respond] has written its reply, which is what
   [stop] drains.  Beyond [queue_cap] waiters, or once [stop] is called,
   nothing runs and the reply is retryable. *)
let submit t session ctx req respond =
  Mutex.lock t.q_mutex;
  if t.stopping then begin
    Mutex.unlock t.q_mutex;
    Obs.Counters.bump c_drain_rejects;
    respond (Protocol.Error (Protocol.Err_retry, "server shutting down"))
  end
  else if t.running >= t.cfg.workers && t.waiting >= t.cfg.queue_cap then begin
    Mutex.unlock t.q_mutex;
    Obs.Counters.bump c_queue_rejects;
    respond (Protocol.Error (Protocol.Err_retry, "admission queue full"))
  end
  else begin
    t.admitted <- t.admitted + 1;
    if t.running >= t.cfg.workers then begin
      t.waiting <- t.waiting + 1;
      while t.running >= t.cfg.workers do
        Condition.wait t.q_slot t.q_mutex
      done;
      t.waiting <- t.waiting - 1
    end;
    t.running <- t.running + 1;
    Mutex.unlock t.q_mutex;
    let reply = execute t session ctx req in
    Mutex.lock t.q_mutex;
    t.running <- t.running - 1;
    Condition.signal t.q_slot;
    Mutex.unlock t.q_mutex;
    Fun.protect
      ~finally:(fun () ->
        Mutex.lock t.q_mutex;
        t.admitted <- t.admitted - 1;
        if t.admitted = 0 then Condition.broadcast t.q_drained;
        Mutex.unlock t.q_mutex)
      (fun () -> respond reply)
  end

(* -- reader side ---------------------------------------------------- *)

let handle_request t session bucket ctx req respond =
  Obs.Counters.bump c_requests;
  match req with
  | Protocol.Quit -> respond Protocol.Bye
  | Protocol.Stats fmt -> (
      (* metrics must stay readable when admission is saturated: served
         on the reader thread, no token, no slot, like PIN *)
      let snap = Obs.snapshot () in
      match fmt with
      | None | Some "prometheus" ->
          respond (Protocol.Ok_text (Exposition.to_prometheus snap))
      | Some "json" -> respond (Protocol.Ok_text (Exposition.to_json snap))
      | Some other ->
          respond
            (Protocol.Error
               ( Protocol.Err_bad,
                 Printf.sprintf "unknown STATS format %S (prometheus|json)"
                   other )))
  | Protocol.Pin -> (
      match session.s_pinned with
      | Some _ -> respond (Protocol.Error (Protocol.Err_bad, "already pinned"))
      | None ->
          let ts = Mvcc.now () in
          Mvcc.pin ts;
          session.s_pinned <- Some ts;
          respond (Protocol.Ok_text (Printf.sprintf "PINNED %d" ts)))
  | Protocol.Unpin -> (
      match session.s_pinned with
      | None -> respond (Protocol.Error (Protocol.Err_bad, "not pinned"))
      | Some ts ->
          Mvcc.unpin ts;
          session.s_pinned <- None;
          respond (Protocol.Ok_text "UNPINNED"))
  | req ->
      if not (Token_bucket.take bucket) then begin
        Obs.Counters.bump c_rate_limited;
        respond (Protocol.Error (Protocol.Err_retry, "rate limited"))
      end
      else if Breaker.is_open t.breaker && non_essential session req then begin
        Obs.Counters.bump c_shed;
        respond
          (Protocol.Error
             ( Protocol.Err_shed,
               "breaker open: non-essential statements shed during migration \
                backlog" ))
      end
      else submit t session ctx req respond

let reader_loop t sock =
  let session =
    Mutex.lock t.r_mutex;
    let id = t.next_session in
    t.next_session <- id + 1;
    Mutex.unlock t.r_mutex;
    { s_id = id; s_prepared = Hashtbl.create 8; s_pinned = None }
  in
  Logs.debug (fun m -> m "server: session %d opened" session.s_id);
  let bucket = Token_bucket.create ~rate:t.cfg.rate ~burst:t.cfg.burst in
  let inc = Unix.in_channel_of_descr sock in
  let out = Unix.out_channel_of_descr sock in
  let closed = ref false in
  let respond resp =
    Protocol.write_response out resp;
    (match resp with
    | Protocol.Ok_affected _ | Protocol.Ok_rows _ | Protocol.Ok_text _ ->
        Obs.Counters.bump c_ok
    | _ -> ());
    if resp = Protocol.Bye then closed := true
  in
  (try
     while not !closed do
       match (try Some (input_line inc) with End_of_file -> None) with
       | None -> closed := true
       | Some line -> (
           match Protocol.parse_request line with
           | ctx, req -> handle_request t session bucket ctx req respond
           | exception Protocol.Bad_request msg ->
               Obs.Counters.bump c_bad;
               respond (Protocol.Error (Protocol.Err_bad, msg)))
     done
   with Sys_error _ | Unix.Unix_error _ -> ());
  (match session.s_pinned with
  | Some ts ->
      Mvcc.unpin ts;
      session.s_pinned <- None
  | None -> ());
  (try Unix.close sock with Unix.Unix_error _ -> ());
  Mutex.lock t.r_mutex;
  t.conns <- List.filter (fun fd -> fd != sock) t.conns;
  Mutex.unlock t.r_mutex;
  Obs.Counters.bump c_conns_closed

let accept_loop t =
  let continue = ref true in
  while !continue do
    match Unix.accept t.listen_sock with
    | sock, _ ->
        if t.stopping then begin
          (* the wake-up connection [stop] makes, or a raced client *)
          (try Unix.close sock with Unix.Unix_error _ -> ());
          continue := false
        end
        else begin
          Obs.Counters.bump c_conns;
          Mutex.lock t.r_mutex;
          t.conns <- sock :: t.conns;
          t.readers <-
            Thread.create (fun () -> reader_loop t sock) () :: t.readers;
          Mutex.unlock t.r_mutex
        end
    | exception Unix.Unix_error _ -> continue := false
  done

(* -- lifecycle ------------------------------------------------------ *)

let start ?(config = default_config) ?(debt = fun () -> 0) frontend =
  (* a client vanishing mid-response must surface as EPIPE, not SIGPIPE *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let listen_sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt listen_sock Unix.SO_REUSEADDR true;
  Unix.bind listen_sock
    (Unix.ADDR_INET (Unix.inet_addr_of_string config.host, config.port));
  Unix.listen listen_sock 64;
  let bound_port =
    match Unix.getsockname listen_sock with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> assert false
  in
  let t =
    {
      cfg = { config with workers = max 1 config.workers };
      frontend;
      breaker =
        Breaker.create ~open_above:config.open_above
          ~close_below:config.close_below debt;
      listen_sock;
      bound_port;
      prov = Printf.sprintf "server:%d" bound_port;
      q_mutex = Mutex.create ();
      q_slot = Condition.create ();
      q_drained = Condition.create ();
      running = 0;
      waiting = 0;
      admitted = 0;
      stopping = false;
      accept_thread = None;
      readers = [];
      r_mutex = Mutex.create ();
      conns = [];
      next_session = 0;
      o_mutex = Mutex.create ();
      latencies = List.map (fun c -> (c, Histogram.create ())) latency_classes;
      slow = Queue.create ();
    }
  in
  t.accept_thread <- Some (Thread.create accept_loop t);
  Obs.register_stats t.prov
    (fun () ->
      let admission =
        {
          Obs.st_source = t.prov;
          st_name = "admission";
          st_fields =
            [
              ("queue_depth", float_of_int t.waiting);
              ("busy_workers", float_of_int t.running);
              ("breaker_open", if Breaker.is_open t.breaker then 1.0 else 0.0);
              ("migration_debt", float_of_int (Breaker.debt t.breaker));
              ("slow_queries", float_of_int (Queue.length t.slow));
            ];
        }
      in
      let lat =
        Mutex.lock t.o_mutex;
        let l =
          List.filter_map
            (fun (cls, h) ->
              if Histogram.count h = 0 then None
              else
                Some
                  {
                    Obs.st_source = t.prov;
                    st_name = "latency_" ^ cls;
                    st_fields =
                      [
                        ("count", float_of_int (Histogram.count h));
                        ("p50_ms", Histogram.percentile h 50.0 *. 1e3);
                        ("p95_ms", Histogram.percentile h 95.0 *. 1e3);
                        ("p99_ms", Histogram.percentile h 99.0 *. 1e3);
                      ];
                  })
            t.latencies
        in
        Mutex.unlock t.o_mutex;
        l
      in
      admission :: lat);
  Obs.Flight.notef ~cat:"server" "listening on %s:%d (%d workers)" config.host
    bound_port config.workers;
  Logs.info (fun m ->
      m "server: listening on %s:%d (%d workers, queue %d)" config.host
        bound_port config.workers config.queue_cap);
  t

let breaker t = t.breaker

(* Drain, then stop: new submissions are refused as retryable the moment
   [stop] is called, every request already admitted completes and its
   response is written, and only then are sockets closed and threads
   joined. *)
let stop t =
  Mutex.lock t.q_mutex;
  if t.stopping then Mutex.unlock t.q_mutex
  else begin
    t.stopping <- true;
    while t.admitted > 0 do
      Condition.wait t.q_drained t.q_mutex
    done;
    Mutex.unlock t.q_mutex;
    (* Closing the listening fd does not wake a thread blocked in
       accept(2) on Linux; pop it with a throwaway self-connection, which
       the accept loop recognises via [stopping] and discards. *)
    (try
       let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
       Fun.protect
         ~finally:(fun () ->
           try Unix.close s with Unix.Unix_error _ -> ())
         (fun () ->
           Unix.connect s
             (Unix.ADDR_INET
                (Unix.inet_addr_of_string t.cfg.host, t.bound_port)))
     with Unix.Unix_error _ -> ());
    (match t.accept_thread with Some th -> Thread.join th | None -> ());
    (try Unix.close t.listen_sock with Unix.Unix_error _ -> ());
    t.accept_thread <- None;
    (* waking blocked readers: closing the socket makes input_line fail *)
    Mutex.lock t.r_mutex;
    let conns = t.conns and readers = t.readers in
    t.readers <- [];
    Mutex.unlock t.r_mutex;
    List.iter
      (fun fd ->
        try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
      conns;
    List.iter Thread.join readers;
    Obs.unregister_stats t.prov;
    Obs.Flight.notef ~cat:"server" "stopped (port %d)" t.bound_port;
    Logs.info (fun m -> m "server: stopped (port %d)" t.bound_port)
  end
