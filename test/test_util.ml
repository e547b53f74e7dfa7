(* Unit and property tests for the utility substrate: Vec, Rng, Stats,
   Histogram, Pqueue, Striped_mutex. *)

let check = Alcotest.check

let vec_basic () =
  let v = Vec.create () in
  check Alcotest.int "empty length" 0 (Vec.length v);
  for i = 0 to 99 do
    Vec.push v i
  done;
  check Alcotest.int "length after pushes" 100 (Vec.length v);
  check Alcotest.int "get 0" 0 (Vec.get v 0);
  check Alcotest.int "get 99" 99 (Vec.get v 99);
  Vec.set v 50 (-1);
  check Alcotest.int "set/get" (-1) (Vec.get v 50);
  check (Alcotest.option Alcotest.int) "pop" (Some 99) (Vec.pop v);
  check Alcotest.int "length after pop" 99 (Vec.length v);
  Vec.truncate v 10;
  check Alcotest.int "truncate" 10 (Vec.length v);
  Vec.clear v;
  check Alcotest.int "clear" 0 (Vec.length v)

let vec_bounds () =
  let v = Vec.of_list [ 1; 2; 3 ] in
  Alcotest.check_raises "get out of bounds"
    (Invalid_argument "Vec: index 3 out of bounds [0,3)") (fun () ->
      ignore (Vec.get v 3));
  Alcotest.check_raises "negative index"
    (Invalid_argument "Vec: index -1 out of bounds [0,3)") (fun () ->
      ignore (Vec.get v (-1)))

let vec_iterators () =
  let v = Vec.of_list [ 1; 2; 3; 4 ] in
  check (Alcotest.list Alcotest.int) "to_list" [ 1; 2; 3; 4 ] (Vec.to_list v);
  check Alcotest.int "fold" 10 (Vec.fold_left ( + ) 0 v);
  check Alcotest.bool "exists" true (Vec.exists (fun x -> x = 3) v);
  check Alcotest.bool "not exists" false (Vec.exists (fun x -> x = 9) v);
  let acc = ref [] in
  Vec.iteri (fun i x -> acc := (i, x) :: !acc) v;
  check Alcotest.int "iteri count" 4 (List.length !acc)

let rng_determinism () =
  let a = Rng.create 7 and b = Rng.create 7 in
  for _ = 1 to 100 do
    check Alcotest.int "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done;
  let c = Rng.create 8 in
  let differs = ref false in
  for _ = 1 to 20 do
    if Rng.int a 1_000_000 <> Rng.int c 1_000_000 then differs := true
  done;
  check Alcotest.bool "different seeds differ" true !differs

let rng_ranges () =
  let rng = Rng.create 1 in
  for _ = 1 to 10_000 do
    let v = Rng.int_range rng 5 10 in
    if v < 5 || v > 10 then Alcotest.fail "int_range out of range"
  done;
  for _ = 1 to 1000 do
    let f = Rng.float rng 2.5 in
    if f < 0.0 || f >= 2.5 then Alcotest.fail "float out of range"
  done;
  Alcotest.check_raises "int 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let rng_uniformity () =
  let rng = Rng.create 3 in
  let buckets = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let i = Rng.int rng 10 in
    buckets.(i) <- buckets.(i) + 1
  done;
  Array.iter
    (fun c ->
      let expected = n / 10 in
      if abs (c - expected) > expected / 5 then
        Alcotest.failf "bucket count %d too far from %d" c expected)
    buckets

let stats_moments () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
  check Alcotest.int "count" 8 (Stats.count s);
  check (Alcotest.float 1e-9) "mean" 5.0 (Stats.mean s);
  check (Alcotest.float 1e-9) "min" 2.0 (Stats.min s);
  check (Alcotest.float 1e-9) "max" 9.0 (Stats.max s);
  check (Alcotest.float 1e-6) "stddev (sample)" 2.13809 (Stats.stddev s)

let stats_merge () =
  let xs = List.init 50 (fun i -> float_of_int i) in
  let ys = List.init 50 (fun i -> float_of_int (i * 3)) in
  let all = Stats.create () in
  List.iter (Stats.add all) (xs @ ys);
  let a = Stats.create () and b = Stats.create () in
  List.iter (Stats.add a) xs;
  List.iter (Stats.add b) ys;
  let m = Stats.merge a b in
  check Alcotest.int "merged count" (Stats.count all) (Stats.count m);
  check (Alcotest.float 1e-9) "merged mean" (Stats.mean all) (Stats.mean m);
  check (Alcotest.float 1e-6) "merged var" (Stats.variance all) (Stats.variance m)

let histogram_percentiles () =
  let h = Histogram.create () in
  for i = 1 to 1000 do
    Histogram.add h (float_of_int i /. 1000.0)
  done;
  check Alcotest.int "count" 1000 (Histogram.count h);
  let p50 = Histogram.percentile h 50.0 in
  if p50 < 0.4 || p50 > 0.6 then Alcotest.failf "p50=%f not near 0.5" p50;
  let p99 = Histogram.percentile h 99.0 in
  if p99 < 0.9 || p99 > 1.1 then Alcotest.failf "p99=%f not near 0.99" p99;
  let cdf = Histogram.cdf_points h 10 in
  check Alcotest.int "cdf points" 10 (List.length cdf);
  let fracs = List.map snd cdf in
  check (Alcotest.float 1e-9) "last frac" 1.0 (List.nth fracs 9)

let histogram_merge_reset () =
  let a = Histogram.create () and b = Histogram.create () in
  Histogram.add a 0.1;
  Histogram.add b 10.0;
  Histogram.merge_into ~dst:a b;
  check Alcotest.int "merged count" 2 (Histogram.count a);
  Histogram.reset a;
  check Alcotest.int "reset count" 0 (Histogram.count a);
  check (Alcotest.float 0.0) "empty percentile" 0.0 (Histogram.percentile a 50.0)

let pqueue_order () =
  let q = Pqueue.create () in
  List.iter (fun (p, v) -> Pqueue.push q p v) [ (3.0, "c"); (1.0, "a"); (2.0, "b") ];
  check (Alcotest.option (Alcotest.pair (Alcotest.float 0.0) Alcotest.string))
    "peek" (Some (1.0, "a")) (Pqueue.peek q);
  let order = List.init 3 (fun _ -> snd (Option.get (Pqueue.pop q))) in
  check (Alcotest.list Alcotest.string) "pop order" [ "a"; "b"; "c" ] order;
  check Alcotest.bool "empty" true (Pqueue.is_empty q)

let pqueue_fifo_ties () =
  let q = Pqueue.create () in
  List.iteri (fun i v -> ignore i; Pqueue.push q 1.0 v) [ "x"; "y"; "z" ];
  let order = List.init 3 (fun _ -> snd (Option.get (Pqueue.pop q))) in
  check (Alcotest.list Alcotest.string) "FIFO among equal priorities" [ "x"; "y"; "z" ] order

let pqueue_prop =
  QCheck.Test.make ~name:"pqueue pops in nondecreasing priority order" ~count:200
    QCheck.(list (float_bound_exclusive 1000.0))
    (fun floats ->
      let q = Pqueue.create () in
      List.iteri (fun i f -> Pqueue.push q f i) floats;
      let rec drain last =
        match Pqueue.pop q with
        | None -> true
        | Some (p, _) -> p >= last && drain p
      in
      drain neg_infinity)

let striped_mutex_exclusion () =
  let sm = Striped_mutex.create 4 in
  let counter = ref 0 in
  let threads =
    List.init 8 (fun _ ->
        Thread.create
          (fun () ->
            for _ = 1 to 1000 do
              Striped_mutex.with_stripe sm 42 (fun () ->
                  let v = !counter in
                  Thread.yield ();
                  counter := v + 1)
            done)
          ())
  in
  List.iter Thread.join threads;
  check Alcotest.int "same-stripe operations are serialised" 8000 !counter

let striped_mutex_exceptions () =
  let sm = Striped_mutex.create 2 in
  (try Striped_mutex.with_stripe sm 0 (fun () -> failwith "boom") with Failure _ -> ());
  (* The latch must have been released. *)
  check Alcotest.int "latch released after exception" 1
    (Striped_mutex.with_stripe sm 0 (fun () -> 1))

let suite =
  [
    Alcotest.test_case "vec basic" `Quick vec_basic;
    Alcotest.test_case "vec bounds" `Quick vec_bounds;
    Alcotest.test_case "vec iterators" `Quick vec_iterators;
    Alcotest.test_case "rng determinism" `Quick rng_determinism;
    Alcotest.test_case "rng ranges" `Quick rng_ranges;
    Alcotest.test_case "rng uniformity" `Slow rng_uniformity;
    Alcotest.test_case "stats moments" `Quick stats_moments;
    Alcotest.test_case "stats merge" `Quick stats_merge;
    Alcotest.test_case "histogram percentiles" `Quick histogram_percentiles;
    Alcotest.test_case "histogram merge/reset" `Quick histogram_merge_reset;
    Alcotest.test_case "pqueue order" `Quick pqueue_order;
    Alcotest.test_case "pqueue fifo ties" `Quick pqueue_fifo_ties;
    QCheck_alcotest.to_alcotest pqueue_prop;
    Alcotest.test_case "striped mutex exclusion" `Quick striped_mutex_exclusion;
    Alcotest.test_case "striped mutex exceptions" `Quick striped_mutex_exceptions;
  ]
