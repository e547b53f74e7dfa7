(* Discrete-event model of the sharded coordinator (DESIGN.md §4.2g).

   The real cluster runs its shards in one process under one OCaml
   runtime lock, so a scatter visits them one after another and
   wall-clock numbers cannot show shared-nothing scaling.  This model
   gives each shard its own FIFO service queue in virtual time — the
   same device the fig-3 simulator uses — and charges:

   - routed point reads: one shard busy for [service_read];
   - broadcast reads: EVERY shard busy for [service_read], completion at
     the latest finish (a scatter/gather holds its slowest shard);
   - cross-shard writes: two-phase commit — prepare on each participant
     ([service_write] apiece), one serialised decision append on the
     coordinator's log ([log_latency]), then a per-participant
     resolution append (also [log_latency]).

   Requests are processed in arrival order and each shard serves FIFO,
   so a single left-to-right pass with one running "free at" clock per
   shard is an exact simulation — no event heap needed. *)

type config = {
  shards : int;
  rate : float;
  duration : float;
  read_frac : float;
  routed_frac : float;
  write_spread : int;
  service_read : float;
  service_write : float;
  log_latency : float;
  seed : int;
}

let default_config =
  {
    shards = 4;
    rate = 4000.0;
    duration = 4.0;
    read_frac = 1.0;
    routed_frac = 1.0;
    write_spread = 2;
    service_read = 0.001;
    service_write = 0.0015;
    log_latency = 0.0002;
    seed = 42;
  }

type result = {
  completed : int;
  makespan : float;
  throughput : float;
  mean_latency : float;
  p95_latency : float;
  shard_util : float array;
  coord_util : float;
}

let validate cfg =
  if cfg.shards < 1 then invalid_arg "Shard_sim: shards < 1";
  if cfg.rate <= 0.0 || cfg.duration <= 0.0 then
    invalid_arg "Shard_sim: non-positive rate or duration";
  if cfg.read_frac < 0.0 || cfg.read_frac > 1.0 then
    invalid_arg "Shard_sim: read_frac outside [0,1]";
  if cfg.routed_frac < 0.0 || cfg.routed_frac > 1.0 then
    invalid_arg "Shard_sim: routed_frac outside [0,1]"

let run cfg =
  validate cfg;
  let rng = Rng.create cfg.seed in
  let free = Array.make cfg.shards 0.0 in
  let busy = Array.make cfg.shards 0.0 in
  let coord_free = ref 0.0 and coord_busy = ref 0.0 in
  let latencies = ref [] in
  let completed = ref 0 and makespan = ref 0.0 in
  (* occupy shard [i] from (no earlier than) [at] for [cost] *)
  let serve i ~at cost =
    let start = Float.max at free.(i) in
    let fin = start +. cost in
    free.(i) <- fin;
    busy.(i) <- busy.(i) +. cost;
    fin
  in
  let finish ~arrival fin =
    incr completed;
    latencies := (fin -. arrival) :: !latencies;
    if fin > !makespan then makespan := fin
  in
  let now = ref 0.0 in
  let continue = ref true in
  while !continue do
    now := !now +. Rng.exponential rng cfg.rate;
    if !now >= cfg.duration then continue := false
    else begin
      let a = !now in
      if Rng.float rng 1.0 < cfg.read_frac then
        if Rng.float rng 1.0 < cfg.routed_frac then
          (* routed point read: exactly one shard does work *)
          finish ~arrival:a (serve (Rng.int rng cfg.shards) ~at:a cfg.service_read)
        else begin
          (* broadcast scan: all shards work; gather waits for the last *)
          let fin = ref 0.0 in
          for i = 0 to cfg.shards - 1 do
            let f = serve i ~at:a cfg.service_read in
            if f > !fin then fin := f
          done;
          finish ~arrival:a !fin
        end
      else begin
        (* cross-shard write: 2PC over [write_spread] participants *)
        let k = max 1 (min cfg.write_spread cfg.shards) in
        let base = Rng.int rng cfg.shards in
        let parts = List.init k (fun j -> (base + j) mod cfg.shards) in
        let prepared =
          List.fold_left
            (fun acc i -> Float.max acc (serve i ~at:a cfg.service_write))
            0.0 parts
        in
        let dstart = Float.max prepared !coord_free in
        let decided = dstart +. cfg.log_latency in
        coord_free := decided;
        coord_busy := !coord_busy +. cfg.log_latency;
        let fin =
          List.fold_left
            (fun acc i -> Float.max acc (serve i ~at:decided cfg.log_latency))
            0.0 parts
        in
        finish ~arrival:a fin
      end
    end
  done;
  let span = Float.max !makespan cfg.duration in
  let lats = List.sort compare !latencies in
  let n = List.length lats in
  let mean =
    if n = 0 then 0.0 else List.fold_left ( +. ) 0.0 lats /. float_of_int n
  in
  let p95 =
    if n = 0 then 0.0 else List.nth lats (min (n - 1) (n * 95 / 100))
  in
  {
    completed = !completed;
    makespan = span;
    throughput = float_of_int !completed /. span;
    mean_latency = mean;
    p95_latency = p95;
    shard_util = Array.map (fun b -> b /. span) busy;
    coord_util = !coord_busy /. span;
  }

let capacity ?(cfg = default_config) ~shards ~routed_frac () =
  (* saturate: offer ~4x one shard's service capacity per shard so the
     bottleneck is the engine, not the arrival process *)
  let rate =
    4.0 *. float_of_int shards /. cfg.service_read
  in
  (run { cfg with shards; routed_frac; read_frac = 1.0; rate }).throughput
