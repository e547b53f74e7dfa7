(* In-memory span recorder for the traced run.

   Spans are recorded from the benchmark's own code, around its calls
   into each layer's public functions: name, start, end, parent span and
   request id.  Storage is struct-of-arrays so recording a span does not
   allocate.  Nothing is recorded unless [enabled] is set, so the
   untraced runs pay one branch per call site.

   [open_]/[close] keep a parent stack and are for the single load
   thread; [record] takes pre-measured times and a lock, for the wire
   load threads, whose spans are roots. *)

let enabled = ref false

let lock = Mutex.create ()

let name_ids : (string, int) Hashtbl.t = Hashtbl.create 64

let names = ref [||]

let intern name =
  match Hashtbl.find_opt name_ids name with
  | Some i -> i
  | None ->
      let i = Array.length !names in
      Hashtbl.add name_ids name i;
      names := Array.append !names [| name |];
      i

let n = ref 0

let s_name = ref (Array.make 4096 0)

let s_parent = ref (Array.make 4096 (-1))

let s_req = ref (Array.make 4096 0)

let s_start = ref (Array.make 4096 0.0)

let s_end = ref (Array.make 4096 0.0)

let current = ref (-1)

let grow () =
  let cap = Array.length !s_name in
  let g a fill =
    let b = Array.make (2 * cap) fill in
    Array.blit !a 0 b 0 cap;
    a := b
  in
  g s_name 0;
  g s_parent (-1);
  g s_req 0;
  g s_start 0.0;
  g s_end 0.0

let push name ~parent ~req ~start ~stop =
  if !n = Array.length !s_name then grow ();
  let i = !n in
  !s_name.(i) <- intern name;
  !s_parent.(i) <- parent;
  !s_req.(i) <- req;
  !s_start.(i) <- start;
  !s_end.(i) <- stop;
  incr n;
  i

(* Opens a span under the current one; -1 when tracing is off. *)
let open_ name ~req =
  if not !enabled then -1
  else begin
    let t = Stats.now () in
    let i = push name ~parent:!current ~req ~start:t ~stop:t in
    current := i;
    i
  end

(* Closes span [i], optionally renaming it (a statement is only known to
   have done migration work once it returns). *)
let close ?name i =
  if i >= 0 then begin
    !s_end.(i) <- Stats.now ();
    (match name with Some nm -> !s_name.(i) <- intern nm | None -> ());
    current := !s_parent.(i)
  end

let span name ~req f =
  let i = open_ name ~req in
  match f () with
  | v ->
      close i;
      v
  | exception e ->
      close i;
      raise e

let record name ~req ~start ~stop =
  if !enabled then begin
    Mutex.lock lock;
    ignore (push name ~parent:(-1) ~req ~start ~stop : int);
    Mutex.unlock lock
  end

(* -- rollups -------------------------------------------------------- *)

let dur i = !s_end.(i) -. !s_start.(i)

(* Durations (seconds) of every span named [name], appended to [into]. *)
let durations_into into name =
  match Hashtbl.find_opt name_ids name with
  | None -> ()
  | Some id ->
      for i = 0 to !n - 1 do
        if !s_name.(i) = id then Stats.add into (dur i)
      done

(* [f name duration req] for spans [lo, hi) in recording order. *)
let iter_range lo hi f =
  for i = lo to hi - 1 do
    f !names.(!s_name.(i)) (dur i) !s_req.(i)
  done

(* The layers a span name's prefix names. *)
let layers = [ "tpcc"; "lazy_db"; "db"; "bg"; "wire" ]

let layer_of name =
  match String.index_opt name '.' with Some k -> String.sub name 0 k | None -> name

(* Self time (seconds) per layer: each span's duration minus the time its
   children cover.  Children of one span never overlap (one thread), so
   their durations add. *)
let self_by_layer () =
  let child = Array.make !n 0.0 in
  for i = 0 to !n - 1 do
    let p = !s_parent.(i) in
    if p >= 0 then child.(p) <- child.(p) +. dur i
  done;
  let tbl = Hashtbl.create 16 in
  for i = 0 to !n - 1 do
    let l = layer_of !names.(!s_name.(i)) in
    let prev = Option.value ~default:0.0 (Hashtbl.find_opt tbl l) in
    Hashtbl.replace tbl l (prev +. (dur i -. child.(i)))
  done;
  tbl

(* -- per-layer metrics both workloads report --------------------------- *)

(* Background migration: step latency (seconds) and granules moved. *)
let bg_metrics steps ~granules =
  let busy = Stats.sum steps in
  [
    Stats.pct_metric "bg.step.p50_ms" ~scale:1e3 steps 0.50;
    Stats.pct_metric "bg.step.p99_ms" ~scale:1e3 steps 0.99;
    ("bg.granules", float_of_int granules);
    ("bg.us_per_granule", if granules = 0 then 0.0 else busy *. 1e6 /. float_of_int granules);
    ("bg.busy_s", busy);
  ]

(* Self time per layer, summed over the traced cycles' rollups, per txn. *)
let self_metrics rollups ~txns =
  List.map
    (fun layer ->
      ( Printf.sprintf "self.%s.us_per_txn" layer,
        List.fold_left (fun a t -> a +. Option.value ~default:0.0 (Hashtbl.find_opt t layer)) 0.0 rollups
        *. 1e6 /. float_of_int (max 1 txns) ))
    layers

(* One line per span: name, start and end in microseconds from the
   first span, parent index, request id. *)
let write path =
  let oc = open_out path in
  let t0 = if !n > 0 then !s_start.(0) else 0.0 in
  output_string oc "# index\tname\tstart_us\tend_us\tparent\treq\n";
  for i = 0 to !n - 1 do
    Printf.fprintf oc "%d\t%s\t%.1f\t%.1f\t%d\t%d\n" i !names.(!s_name.(i))
      ((!s_start.(i) -. t0) *. 1e6)
      ((!s_end.(i) -. t0) *. 1e6)
      !s_parent.(i) !s_req.(i)
  done;
  close_out oc
