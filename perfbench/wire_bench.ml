(* wire-regroup: a 4-shard Cluster behind the wire Server, in its own
   process, loaded over TCP by this process.

   The server process is this executable started with [--serve].  It
   loads [src], measures the read statements through [Cluster.frontend]
   (traced runs), starts the server and then obeys a line protocol on
   stdin/stdout — the control channel:

     COUNT     -> OK                           counters on (traced runs)
     FLIP      -> OK <flip_s> <lint_s>         start the regroup migration
     BG <n>    -> OK <granules> <0|1 complete> <step_s> <queue_depth>
     SAMPLE    -> OK <queue_depth>
     STOP      -> OK <peak_heap_mb>            stop the server and exit

   The load is closed loop: [connections] threads, each with one
   connection, each sending its next request when the previous one
   returns.  Flip and background steps go over the control channel at a
   request-count cadence, so no thread paces anything by sleeping. *)

open Bullfrog_db
open Bullfrog_core
module Cluster = Bullfrog_cluster.Cluster
module Server = Bullfrog_server.Server
module Client = Bullfrog_server.Client
module Protocol = Bullfrog_server.Protocol

let shards = 4

let rows = 8_000

let groups = 1_600

let warmup_reqs = 1_000

let steady_reqs = 10_000

let mig_pool_reqs = 20_000

(* Load sizing follows the machine: one connection per core, at most
   two, against a two-worker server. *)
let connections = max 1 (min 2 (Domain.recommended_domain_count ()))

let workers = 2

let bg_every = 20

let bg_batch = 12

(* Read statements timed through [Cluster.frontend] per traced cycle. *)
let cluster_probes = 500

let spec () =
  Migration.make ~name:"regroup"
    [ Migration.statement_of_sql "CREATE TABLE dst AS (SELECT grp, id, v FROM src)" ]

let now = Stats.now

(* -- inputs ---------------------------------------------------------- *)

type req =
  | Point of int * int  (** id, and its grp *)
  | Group of int
  | Insert of int * int * string  (** id, grp, v *)

let src_rows seed =
  let rng = Rng.create seed in
  Array.init rows (fun id -> (id, Rng.int rng groups, Rng.alpha_string rng 8 16))

(* Half point reads of loaded rows, a quarter per-group reads, a quarter
   inserts of fresh ids starting at [first_id]. *)
let gen_reqs rng src n ~first_id =
  Array.init n (fun i ->
      let r = Rng.int rng 4 in
      if r < 2 then
        let id, g, _ = src.(Rng.int rng rows) in
        Point (id, g)
      else if r = 2 then Group (Rng.int rng groups)
      else Insert (first_id + i, Rng.int rng groups, Rng.alpha_string rng 8 16))

type inputs = { src : (int * int * string) array; warmup : req array; steady : req array; mig : req array }

let gen_inputs seed =
  let src = src_rows seed in
  let rng = Rng.create (seed + 1_000_003) in
  let warmup =
    Array.init warmup_reqs (fun i ->
        if i mod 2 = 0 then
          let id, g, _ = src.(Rng.int rng rows) in
          Point (id, g)
        else Group (Rng.int rng groups))
  in
  let steady = gen_reqs rng src steady_reqs ~first_id:rows in
  let mig = gen_reqs rng src mig_pool_reqs ~first_id:1_000_000 in
  { src; warmup; steady; mig }

let class_of = function Point _ -> "point" | Group _ -> "scan" | Insert _ -> "write"

(* Statement names prepared on every connection; [s_] on src before the
   flip, [d_] on dst after it.  Point reads pin the table's partition
   key, so they route to one shard: id on src, (grp, id) on dst.
   Per-group reads scatter: over src's shards before the flip, and
   after it through the lazy migration of the group, whose rows live on
   every src shard and move to one dst shard by 2PC.  They use IN so
   the server's classifier files them as scans. *)
let prepared =
  [
    ("s_point", "SELECT grp, v FROM src WHERE id = $1");
    ("s_scan", "SELECT id, v FROM src WHERE grp IN ($1)");
    ("s_write", "INSERT INTO src VALUES ($1, $2, $3)");
    ("d_point", "SELECT grp, v FROM dst WHERE grp = $1 AND id = $2");
    ("d_scan", "SELECT id, v FROM dst WHERE grp IN ($1)");
    ("d_write", "INSERT INTO dst VALUES ($1, $2, $3)");
  ]

let to_request ~migrated r =
  match r with
  | Point (id, g) ->
      if migrated then Protocol.Exec_prepared ("d_point", [| Value.Int g; Value.Int id |])
      else Protocol.Exec_prepared ("s_point", [| Value.Int id |])
  | Group g -> Protocol.Exec_prepared ((if migrated then "d_scan" else "s_scan"), [| Value.Int g |])
  | Insert (id, g, v) ->
      if migrated then Protocol.Exec_prepared ("d_write", [| Value.Int g; Value.Int id; Value.Str v |])
      else Protocol.Exec_prepared ("s_write", [| Value.Int id; Value.Int g; Value.Str v |])

let fill exec src =
  let batch = 400 in
  let k = ref 0 in
  while !k < Array.length src do
    let hi = min (Array.length src) (!k + batch) in
    let values =
      String.concat ", "
        (List.init (hi - !k) (fun i ->
             let id, g, v = src.(!k + i) in
             Printf.sprintf "(%d, %d, '%s')" id g v))
    in
    exec ("INSERT INTO src VALUES " ^ values);
    k := hi
  done

let create_src = "CREATE TABLE src (id INT PRIMARY KEY, grp INT, v TEXT)"

(* -- server process -------------------------------------------------- *)

let queue_depth port =
  let prov = Printf.sprintf "server:%d" port in
  List.fold_left
    (fun acc (s : Obs.stat) ->
      if s.Obs.st_source = prov && s.Obs.st_name = "admission" then
        Option.value ~default:acc (List.assoc_opt "queue_depth" s.Obs.st_fields)
      else acc)
    0.0 (Obs.snapshot ()).Obs.snap_stats

let serve ~seed ~traced =
  (* stdout is the control channel; keep library output off it *)
  let ctl = Unix.out_channel_of_descr (Unix.dup Unix.stdout) in
  Unix.dup2 Unix.stderr Unix.stdout;
  let reply fmt = Printf.ksprintf (fun s -> output_string ctl (s ^ "\n"); flush ctl) fmt in
  let c = Cluster.create ~shards () in
  let fe = Cluster.frontend c in
  ignore (Cluster.exec c create_src : Executor.result);
  fill (fun sql -> ignore (Cluster.exec c sql : Executor.result)) (src_rows seed);
  (* the cluster's own latency for the read statements, no wire in front *)
  let cluster_p50 sql args =
    let s = Stats.samples () in
    Array.iter
      (fun a ->
        let t = now () in
        ignore (fe.Frontend.f_exec ~params:[| Value.Int a |] sql : Executor.result);
        Stats.add s (now () -. t))
      args;
    Stats.pct s 0.5
  in
  let cpoint, cscan =
    if traced then
      ( cluster_p50 (List.assoc "s_point" prepared) (Array.init cluster_probes (fun i -> i * 7919 mod rows)),
        cluster_p50 (List.assoc "s_scan" prepared) (Array.init cluster_probes (fun i -> i * 7919 mod groups)) )
    else (0.0, 0.0)
  in
  let config = { Server.default_config with Server.workers } in
  let server = Server.start ~config ~debt:(fun () -> Cluster.migration_debt c) fe in
  let port = Server.port server in
  reply "READY %d %.9f %.9f" port cpoint cscan;
  let spec = spec () in
  let rec loop () =
    match String.split_on_char ' ' (input_line stdin) with
    | [ "FLIP" ] ->
        let lint_s =
          if traced then begin
            let t = now () in
            ignore (Mig_lint.lint (Cluster.shard_db c 0).Database.catalog spec : Mig_lint.t);
            now () -. t
          end
          else 0.0
        in
        let t = now () in
        Cluster.start_migration c spec;
        reply "OK %.9f %.9f" (now () -. t) lint_s;
        loop ()
    | [ "BG"; n ] ->
        let t = now () in
        let g = Cluster.background_step c ~batch:(int_of_string n) in
        let dt = now () -. t in
        let complete = Cluster.migration_complete c in
        reply "OK %d %d %.9f %g" g (if complete then 1 else 0) dt
          (if traced then queue_depth port else 0.0);
        loop ()
    | [ "COUNT" ] ->
        Obs.Counters.set_enabled traced;
        reply "OK";
        loop ()
    | [ "SAMPLE" ] ->
        reply "OK %g" (queue_depth port);
        loop ()
    | [ "STOP" ] ->
        Server.stop server;
        Cluster.close c;
        reply "OK %.6f" (E2e.peak_heap_mb ())
    | _ -> failwith "serve: bad control command"
  in
  loop ();
  exit 0

(* -- load process ---------------------------------------------------- *)

type server_proc = { pid : int; to_srv : out_channel; from_srv : in_channel; ctl_lock : Mutex.t }

let control sp cmd =
  Mutex.lock sp.ctl_lock;
  output_string sp.to_srv (cmd ^ "\n");
  flush sp.to_srv;
  let line = input_line sp.from_srv in
  Mutex.unlock sp.ctl_lock;
  match String.split_on_char ' ' line with
  | "OK" :: rest -> rest
  | _ -> failwith ("control: " ^ line)

let spawn ~seed ~traced =
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process Sys.executable_name
      [|
        Sys.executable_name; "--workload"; "wire-regroup"; "--seed"; string_of_int seed;
        "--serve"; (if traced then "1" else "0");
      |]
      in_r out_w Unix.stderr
  in
  Unix.close in_r;
  Unix.close out_w;
  {
    pid;
    to_srv = Unix.out_channel_of_descr in_w;
    from_srv = Unix.in_channel_of_descr out_r;
    ctl_lock = Mutex.create ();
  }

type layers = {
  wire_lat : (string * Stats.samples) list;  (** client side, per class *)
  mutable server_stats : (string * float) list;  (** STATS at the end of the cycle *)
  mutable cluster_point_s : float;
  mutable cluster_scan_s : float;
  bg_step : Stats.samples;
  mutable bg_granules : int;
  mutable flip_s : float;
  mutable lint_s : float;
  mutable queue_max : float;
  mutable reqs : int;
  self : (string, float) Hashtbl.t;
}

let layers () =
  {
    wire_lat = List.map (fun c -> (c, Stats.samples ())) [ "point"; "scan"; "write" ];
    server_stats = [];
    cluster_point_s = 0.0;
    cluster_scan_s = 0.0;
    bg_step = Stats.samples ();
    bg_granules = 0;
    flip_s = 0.0;
    lint_s = 0.0;
    queue_max = 0.0;
    reqs = 0;
    self = Hashtbl.create 4;
  }

let first_error = ref None

let ok_response = function
  | Protocol.Ok_rows _ | Protocol.Ok_affected _ | Protocol.Ok_text _ -> true
  | Protocol.Error (code, msg) ->
      if !first_error = None then
        first_error := Some (Protocol.error_code_to_string code ^ ": " ^ msg);
      false
  | Protocol.Bye -> false

(* One closed-loop phase over [reqs]: every connection's thread takes
   the next request index, sends it and waits.  [after i] runs on the
   thread that completed request [i] and returns whether to stop.
   Returns the number of requests sent. *)
let run_phase ~conns ~reqs ~migrated ~lat ~done_ ~t0 ~ok ~outcome ~req_base ~after =
  let next = Atomic.make 0 in
  let stop = Atomic.make false in
  let outcome_lock = Mutex.create () in
  let worker cl () =
    let rec loop () =
      if not (Atomic.get stop) then begin
        let i = Atomic.fetch_and_add next 1 in
        if i < Array.length reqs then begin
          let a = now () in
          let good = ok_response (Client.request cl (to_request ~migrated reqs.(i))) in
          let b = now () in
          Spans.record ("wire." ^ class_of reqs.(i)) ~req:(req_base + i) ~start:a ~stop:b;
          Mutex.lock outcome_lock;
          Stats.add lat (b -. a);
          Stats.add done_ (b -. t0);
          outcome good;
          Mutex.unlock outcome_lock;
          ok.(i) <- good;
          if after i then Atomic.set stop true;
          loop ()
        end
      end
    in
    loop ()
  in
  List.iter Thread.join (List.map (fun cl -> Thread.create (worker cl) ()) conns);
  min (Atomic.get next) (Array.length reqs)

(* Replays the admitted writes against an in-process Lazy_db running the
   same migration, and compares [src] and [dst] row-exactly with what
   the server returns. *)
let check ~conn ~inputs ~steady_ok ~mig_ok ~mig_n =
  let db = Database.create () in
  ignore (Database.exec db create_src : Executor.result);
  fill (fun sql -> ignore (Database.exec db sql : Executor.result)) inputs.src;
  let ldb = Lazy_db.create db in
  let replay ~migrated reqs okv n =
    for i = 0 to n - 1 do
      match reqs.(i) with
      | Insert (id, g, v) when okv.(i) ->
          let sql =
            if migrated then Printf.sprintf "INSERT INTO dst VALUES (%d, %d, '%s')" g id v
            else Printf.sprintf "INSERT INTO src VALUES (%d, %d, '%s')" id g v
          in
          ignore (Lazy_db.exec ldb sql : Executor.result)
      | _ -> ()
    done
  in
  replay ~migrated:false inputs.steady steady_ok (Array.length inputs.steady);
  ignore (Lazy_db.start_migration ldb (spec ()) : Migrate_exec.t);
  replay ~migrated:true inputs.mig mig_ok mig_n;
  while Lazy_db.background_step ldb ~batch:1024 > 0 do () done;
  let render rows =
    List.sort compare (List.map (fun r -> String.concat "|" (List.map Value.to_string (Array.to_list r))) rows)
  in
  List.for_all
    (fun sql ->
      let wire = render (Client.query conn sql) and local = render (Database.query db sql) in
      if wire <> local then
        prerr_endline
          (Printf.sprintf "wire-regroup: %S returned %d rows over the wire, oracle has %d" sql
             (List.length wire) (List.length local));
      wire = local)
    [ "SELECT id, grp, v FROM src"; "SELECT grp, id, v FROM dst" ]

type result = { e2e : E2e.cycle; ly : layers option; correct : bool }

let cycle ~seed ~traced =
  let inputs = gen_inputs seed in
  let ly = layers () in
  let lat_steady = Stats.samples () and lat_mig = Stats.samples () in
  let done_steady = Stats.samples () and done_mig = Stats.samples () in
  let attempted = ref 0 and ok_n = ref 0 in
  let outcome ok =
    incr attempted;
    if ok then incr ok_n
  in
  let probe_s = E2e.probe () in
  let t_setup = now () in
  let sp = spawn ~seed ~traced in
  (* on any failure, stop the server process before giving up *)
  Fun.protect ~finally:(fun () ->
      match Unix.waitpid [ Unix.WNOHANG ] sp.pid with
      | 0, _ -> (
          try
            Unix.kill sp.pid Sys.sigkill;
            ignore (Unix.waitpid [] sp.pid : int * Unix.process_status)
          with Unix.Unix_error _ -> ())
      | _ -> ()
      | exception Unix.Unix_error _ -> ())
  @@ fun () ->
  let port =
    match String.split_on_char ' ' (input_line sp.from_srv) with
    | [ "READY"; p; a; b ] ->
        ly.cluster_point_s <- float_of_string a;
        ly.cluster_scan_s <- float_of_string b;
        int_of_string p
    | _ -> failwith "wire-regroup: server did not start"
  in
  let conns = List.init connections (fun _ -> Client.connect ~port ()) in
  List.iter
    (fun cl ->
      List.iter
        (fun (name, sql) ->
          if not (ok_response (Client.prepare cl name sql)) then failwith ("prepare " ^ name))
        prepared)
    conns;
  let warm_ok = Array.make warmup_reqs false in
  ignore
    (run_phase ~conns ~reqs:inputs.warmup ~migrated:false ~lat:(Stats.samples ()) ~done_:(Stats.samples ())
       ~t0:t_setup ~ok:warm_ok
       ~outcome:ignore ~req_base:0 ~after:(fun _ -> false)
      : int);
  if not (Array.for_all Fun.id warm_ok) then failwith "wire-regroup: warm-up request failed";
  let setup_s = now () -. t_setup in
  ignore (control sp "COUNT" : string list);
  Spans.enabled := traced;
  (* steady phase *)
  let sample i =
    if traced && (i + 1) mod bg_every = 0 then
      ly.queue_max <- Float.max ly.queue_max (float_of_string (List.hd (control sp "SAMPLE")))
  in
  let steady_ok = Array.make steady_reqs false in
  let t0 = now () in
  let steady_n =
    run_phase ~conns ~reqs:inputs.steady ~migrated:false ~lat:lat_steady ~done_:done_steady ~t0 ~ok:steady_ok
      ~outcome
      ~req_base:0 ~after:(fun i ->
        sample i;
        false)
  in
  let steady_s = now () -. t0 in
  (* flip, then the migrating phase until the migration completes *)
  let tf = now () in
  (match control sp "FLIP" with
  | [ f; l ] ->
      ly.flip_s <- float_of_string f;
      ly.lint_s <- float_of_string l
  | _ -> failwith "wire-regroup: bad FLIP reply");
  let t_done = ref 0.0 in
  let mig_ok = Array.make mig_pool_reqs false in
  let after i =
    if (i + 1) mod bg_every <> 0 then false
    else
      match control sp (Printf.sprintf "BG %d" bg_batch) with
      | [ g; complete; dt; q ] ->
          ly.bg_granules <- ly.bg_granules + int_of_string g;
          Stats.add ly.bg_step (float_of_string dt);
          ly.queue_max <- Float.max ly.queue_max (float_of_string q);
          if complete = "1" && !t_done = 0.0 then t_done := now ();
          complete = "1"
      | _ -> failwith "wire-regroup: bad BG reply"
  in
  let mig_n =
    run_phase ~conns ~reqs:inputs.mig ~migrated:true ~lat:lat_mig ~done_:done_mig ~t0:tf ~ok:mig_ok ~outcome
      ~req_base:steady_reqs ~after
  in
  if !t_done = 0.0 then failwith "wire-regroup: migration did not complete within the request pool";
  let window_s = !t_done -. tf in
  Spans.enabled := false;
  let conn = List.hd conns in
  if traced then begin
    ly.reqs <- steady_n + mig_n;
    let snap = Exposition.of_prometheus (Client.stats conn) in
    let prov = Printf.sprintf "server:%d" port in
    ly.server_stats <-
      List.map (fun (k, v) -> (k, float_of_int v)) snap.Obs.snap_counters
      @ List.concat_map
          (fun (s : Obs.stat) ->
            if s.Obs.st_source = prov then
              List.map (fun (f, v) -> (Printf.sprintf "server.%s.%s" s.Obs.st_name f, v)) s.Obs.st_fields
            else [])
          snap.Obs.snap_stats;
    List.iter (fun (c, s) -> Spans.durations_into s ("wire." ^ c)) ly.wire_lat;
    Hashtbl.iter (Hashtbl.replace ly.self) (Spans.self_by_layer ())
  end;
  let correct = check ~conn ~inputs ~steady_ok ~mig_ok ~mig_n in
  List.iter Client.close conns;
  let peak_heap_mb =
    match control sp "STOP" with [ h ] -> float_of_string h | _ -> failwith "wire-regroup: bad STOP reply"
  in
  close_out sp.to_srv;
  close_in sp.from_srv;
  (match Unix.waitpid [] sp.pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> failwith "wire-regroup: server process failed");
  {
    e2e =
      {
        E2e.traced;
        setup_s;
        steady_s;
        window_s;
        lat_steady;
        done_steady;
        lat_mig;
        done_mig;
        attempted = !attempted;
        ok = !ok_n;
        peak_heap_mb;
        probe_s;
      };
    ly = (if traced then Some ly else None);
    correct;
  }

(* -- per-layer metrics, pooled over the traced cycles ------------------ *)

let metrics (lys : layers list) =
  let pool f = Stats.concat (List.map f lys) in
  let us name s q = Stats.pct_metric name ~scale:1e6 s q in
  let med f = Stats.median_list (List.map f lys) in
  let stat k l = Option.value ~default:0.0 (List.assoc_opt k l.server_stats) in
  let total k = List.fold_left (fun a l -> a +. stat k l) 0.0 lys in
  let reqs = float_of_int (List.fold_left (fun a l -> a + l.reqs) 0 lys) in
  let per_req k = total k /. Float.max 1.0 reqs in
  let ratio a b = if a +. b = 0.0 then 0.0 else a /. (a +. b) in
  let wire c = pool (fun l -> List.assoc c l.wire_lat) in
  (* The server's and the cluster's percentiles come one per traced
     cycle; the metric is their median, and each rests on the smallest
     per-cycle sample count. *)
  let per_cycle name ~samples q v =
    Stats.note_evidence name ~samples:(List.fold_left (fun a l -> min a (samples l)) max_int lys) q;
    (name, med v)
  in
  let server c q =
    per_cycle
      (Printf.sprintf "server.%s.p%g_ms" c (q *. 100.0))
      ~samples:(fun l -> int_of_float (stat (Printf.sprintf "server.latency_%s.count" c) l))
      q
      (stat (Printf.sprintf "server.latency_%s.p%g_ms" c (q *. 100.0)))
  in
  let wire_point_p50 = us "wire.point.p50_us" (wire "point") 0.50 in
  wire_point_p50 :: us "wire.point.p99_us" (wire "point") 0.99
  :: List.concat_map
       (fun c -> [ us (Printf.sprintf "wire.%s.p50_us" c) (wire c) 0.50; us (Printf.sprintf "wire.%s.p99_us" c) (wire c) 0.99 ])
       [ "scan"; "write" ]
  @ List.concat_map (fun c -> [ server c 0.50; server c 0.99 ]) [ "point"; "scan"; "write" ]
  @ [
      ("server.queue_depth_max", List.fold_left (fun a l -> Float.max a l.queue_max) 0.0 lys);
      ("wire.overhead_p50_us", snd wire_point_p50 -. (med (stat "server.latency_point.p50_ms") *. 1e3));
      per_cycle "cluster.point.p50_us" ~samples:(fun _ -> cluster_probes) 0.50 (fun l -> l.cluster_point_s *. 1e6);
      per_cycle "cluster.scan.p50_us" ~samples:(fun _ -> cluster_probes) 0.50 (fun l -> l.cluster_scan_s *. 1e6);
      ("shard.routed_single_ratio", total "shard.routed_single" /. Float.max 1.0 (total "shard.stmts"));
      ("shard.scatters", total "shard.scatters");
      ("shard.2pc_commits", total "shard.2pc_commits");
      ("shard.rows_moved", total "shard.rows_moved");
      ("flip_ms", med (fun l -> l.flip_s) *. 1e3);
      ("lint_ms", med (fun l -> l.lint_s) *. 1e3);
      ("db.index.probes_per_txn", per_req "db.index.probes");
      ("db.stmt_cache.hit_ratio", ratio (total "db.stmt_cache.hits") (total "db.stmt_cache.misses"));
      ("db.plan_cache.hit_ratio", ratio (total "db.plan_cache.hits") (total "db.plan_cache.misses"));
      ("mvcc.version_walks_per_txn", per_req "mvcc.version_walks");
      ("core.bitmap.word_skips", total "core.bitmap.word_skips");
    ]
  @ Spans.bg_metrics (pool (fun l -> l.bg_step)) ~granules:(List.fold_left (fun a l -> a + l.bg_granules) 0 lys)
  @ Spans.self_metrics (List.map (fun l -> l.self) lys) ~txns:(List.fold_left (fun a l -> a + l.reqs) 0 lys)
