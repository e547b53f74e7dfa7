(* End-to-end figures of one cycle, and how a run combines its cycles.

   A cycle is: set up, steady phase (fixed transaction count), flip,
   migrating phase (until the migration completes).  Each cycle runs in
   a fresh process on the same pre-generated inputs, so the cycles of a
   run are repeats of one measurement. *)

type cycle = {
  traced : bool;
  setup_s : float;
  steady_s : float;  (** steady phase, start to end *)
  window_s : float;  (** flip call to migration complete *)
  lat_steady : Stats.samples;  (** seconds per steady-phase txn, in completion order *)
  done_steady : Stats.samples;  (** each one's completion, seconds from phase start *)
  lat_mig : Stats.samples;  (** the same for the migrating phase ... *)
  done_mig : Stats.samples;  (** ... with completions counted from the flip call *)
  attempted : int;
  ok : int;
  peak_heap_mb : float;  (** of the process hosting the engine *)
  probe_s : float;  (** [probe ()] at the start of the cycle *)
}

let steady_segment = 100

let mig_segment = 50

(* A shared machine slows a process down in spells of seconds to minutes
   (README.md, "Noise"); interference only ever slows a segment down.  Every
   cycle repeats the same inputs, so the k-th segment of a phase does the
   same work in every cycle.  A phase's figures are taken from its
   fastest observed execution of each segment: per segment of [size]
   completions, the cycle with the least time per txn.  Only the first
   [n] completions count, [n] being the shortest cycle's, so every
   segment has a candidate in every cycle.  Returns that composite
   phase's time, txn count and pooled latency samples. *)
let fastest ~size (cs : cycle list) ~lat ~done_ ~total =
  let n = List.fold_left (fun m c -> min m (Stats.count (done_ c))) max_int cs in
  let time = ref 0.0 and count = ref 0 and pool = Stats.samples () in
  for j = 0 to ((n + size - 1) / size) - 1 do
    let lo = j * size and hi = min n ((j + 1) * size) in
    let seg_time c =
      let start = if lo = 0 then 0.0 else (done_ c).Stats.data.(lo - 1) in
      let stop = if hi = Stats.count (done_ c) then total c else (done_ c).Stats.data.(hi - 1) in
      stop -. start
    in
    let best =
      List.fold_left (fun b c -> match b with Some (bt, _) when bt <= seg_time c -> b | _ -> Some (seg_time c, c)) None cs
    in
    Option.iter
      (fun (t, c) ->
        time := !time +. t;
        count := !count + (hi - lo);
        for i = lo to hi - 1 do
          Stats.add pool (lat c).Stats.data.(i)
        done)
      best
  done;
  (!time, !count, pool)

let steady cs =
  fastest ~size:steady_segment cs ~lat:(fun c -> c.lat_steady) ~done_:(fun c -> c.done_steady) ~total:(fun c -> c.steady_s)

let mig cs = fastest ~size:mig_segment cs ~lat:(fun c -> c.lat_mig) ~done_:(fun c -> c.done_mig) ~total:(fun c -> c.window_s)

let metrics (cs : cycle list) =
  let st, sn, slat = steady cs and mt, mn, mlat = mig cs in
  let attempted = List.fold_left (fun a c -> a + c.attempted) 0 cs in
  let ok = List.fold_left (fun a c -> a + c.ok) 0 cs in
  [
    ("setup_s", Stats.median_list (List.map (fun c -> c.setup_s) cs));
    ("txn_per_s", float_of_int sn /. st);
    Stats.pct_metric "txn_p50_ms" ~scale:1e3 slat 0.50;
    Stats.pct_metric "txn_p99_ms" ~scale:1e3 slat 0.99;
    ("mig_txn_per_s", float_of_int mn /. mt);
    Stats.pct_metric "mig_p50_ms" ~scale:1e3 mlat 0.50;
    Stats.pct_metric "mig_p99_ms" ~scale:1e3 mlat 0.99;
    (* a whole window, not a composite: the fastest cycle's *)
    ("mig_window_s", List.fold_left (fun m c -> Float.min m c.window_s) infinity cs);
    ("ok_share", float_of_int ok /. float_of_int (max 1 attempted));
    ("peak_heap_mb", Stats.median_list (List.map (fun c -> c.peak_heap_mb) cs));
  ]

(* Signed tracing overhead: how much slower the traced cycles' steady
   phase ran than the untraced ones', as a share of the untraced rate.
   Each side is read from as many cycles, the first of its kind. *)
let trace_overhead cs =
  let kind traced = List.filter (fun c -> c.traced = traced) cs in
  let k = min (List.length (kind true)) (List.length (kind false)) in
  let rate traced =
    let t, n, _ = steady (List.filteri (fun i _ -> i < k) (kind traced)) in
    if t = 0.0 then 0.0 else float_of_int n /. t
  in
  let u = rate false and t = rate true in
  if u = 0.0 then 0.0 else (u -. t) /. u

let tps c = float_of_int (Stats.count c.done_steady) /. c.steady_s

let header (cs : cycle list) =
  let ints f = Stats.Arr (List.map (fun c -> Stats.Int (f c)) cs) in
  let nums f = Stats.Arr (List.map (fun c -> Stats.Num (f c)) cs) in
  [
    ("cycles", Stats.Int (List.length cs));
    ("traced_cycles", Stats.Arr (List.map (fun c -> Stats.Bool c.traced) cs));
    ("steady_txns_per_cycle", ints (fun c -> Stats.count c.done_steady));
    ("mig_txns_per_cycle", ints (fun c -> Stats.count c.done_mig));
    ("setup_s_per_cycle", nums (fun c -> c.setup_s));
    ("txn_per_s_per_cycle", nums tps);
    ("mig_window_s_per_cycle", nums (fun c -> c.window_s));
    ("probe_ms_per_cycle", nums (fun c -> c.probe_s *. 1e3));
    ("segment_txns", Stats.Obj [ ("steady", Stats.Int steady_segment); ("mig", Stats.Int mig_segment) ]);
  ]

let peak_heap_mb () =
  let st = Gc.quick_stat () in
  float_of_int (st.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

(* Machine speed at the start of a cycle: the best of five runs of a
   fixed loop that allocates and sorts.  Reported in the header only, so
   a reader can tell a run made in a slow spell of the machine. *)
let probe () =
  let once () =
    let t = Stats.now () in
    let a = Array.init 20_000 (fun i -> float_of_int ((i * 7919) mod 20_011)) in
    Array.sort compare a;
    ignore (Sys.opaque_identity a : float array);
    Stats.now () -. t
  in
  List.fold_left (fun m _ -> Float.min m (once ())) infinity [ 1; 2; 3; 4; 5 ]
