(* Harness: cost model algebra, metrics collection, and small end-to-end
   simulations checking queueing behaviour (throughput caps at the arrival
   rate under capacity; queues build beyond capacity; eager downtime gates
   affected transactions). *)

open Bullfrog_db
open Bullfrog_core
open Bullfrog_tpcc
open Bullfrog_harness

let check = Alcotest.check

let cost_model_linear () =
  let m = Cost_model.default in
  let c = Txn.zero_counters () in
  check (Alcotest.float 1e-12) "overhead only" m.Cost_model.txn_overhead
    (Cost_model.txn_cost m c);
  c.Txn.rows_read <- 10;
  c.Txn.rows_written <- 2;
  let expect =
    m.Cost_model.txn_overhead +. (10.0 *. m.Cost_model.row_read)
    +. (2.0 *. m.Cost_model.row_write)
  in
  check (Alcotest.float 1e-12) "linear" expect (Cost_model.txn_cost m c);
  let r = Migrate_exec.new_report () in
  r.Migrate_exec.r_rows_migrated <- 4;
  r.Migrate_exec.r_txns <- 1;
  let expect =
    (4.0 *. m.Cost_model.row_migrate) +. m.Cost_model.mig_txn_overhead
  in
  check (Alcotest.float 1e-12) "migration cost" expect (Cost_model.migration_cost m r)

let cost_model_calibration () =
  let m = Cost_model.default in
  let calibrated = Cost_model.calibrate m ~workers:8 ~target_tps:700.0 ~mean_txn_cost:0.02 in
  (* after calibration, a mean-cost txn implies capacity = target *)
  let implied_mean = 0.02 *. (calibrated.Cost_model.row_read /. m.Cost_model.row_read) in
  check (Alcotest.float 1e-9) "capacity calibrated" 700.0 (8.0 /. implied_mean);
  (* migration coefficients are anchored, not rescaled *)
  check (Alcotest.float 1e-15) "row_migrate anchored" m.Cost_model.row_migrate
    calibrated.Cost_model.row_migrate;
  check (Alcotest.float 1e-15) "input_row anchored" m.Cost_model.input_row
    calibrated.Cost_model.input_row

let metrics_collection () =
  let m = Metrics.create ~duration:10.0 in
  Metrics.record m ~arrive:0.5 ~finish:1.2 ~kind:"NewOrder";
  Metrics.record m ~arrive:1.0 ~finish:2.5 ~kind:"Payment";
  Metrics.record m ~arrive:5.0 ~finish:5.1 ~kind:"NewOrder";
  check Alcotest.int "completed" 3 (Metrics.completed m);
  let series = Metrics.throughput_series m in
  check Alcotest.int "bucket 1" 1 (snd series.(1));
  check Alcotest.int "bucket 2" 1 (snd series.(2));
  check Alcotest.int "bucket 5" 1 (snd series.(5));
  (* latency window: only txns arriving after the cut *)
  let m2 = Metrics.create ~duration:10.0 in
  Metrics.set_latency_window m2 4.0;
  Metrics.record m2 ~arrive:1.0 ~finish:9.0 ~kind:"NewOrder";
  Metrics.record m2 ~arrive:5.0 ~finish:5.5 ~kind:"NewOrder";
  let pcts = Metrics.latency_percentiles m2 [ 100.0 ] in
  (match pcts with
  | [ (_, p100) ] ->
      if p100 > 1.0 then Alcotest.failf "pre-window latency leaked in: %f" p100
  | _ -> Alcotest.fail "percentiles");
  Metrics.mark m2 3.0 "migration start";
  check Alcotest.int "markers" 1 (List.length (Metrics.markers m2))

let tiny_ctx scenario =
  Systems.make_ctx ~seed:21 ~scale:Tpcc_schema.tiny ~cost:Cost_model.default ~workers:4
    scenario

let sim_config ?(rate = 100.0) ?(duration = 6.0) ?mig_time ctx =
  {
    Sim.workers = 4;
    rate;
    duration;
    mig_time;
    seed = 3;
    gen =
      (fun rng ->
        Tpcc_txns.generate rng
          { Tpcc_txns.scale = ctx.Systems.scale; hot_customers = None });
    cdf_from_migration = true;
    arrivals = Sim.Uniform;
  }

let sim_baseline_throughput () =
  let ctx = tiny_ctx Tpcc_migrations.Split in
  (* calibrate so 4 workers ≈ 400 tps *)
  let mean = Systems.measure_mean_txn_cost ctx ~samples:100 ~seed:2 in
  let cost = Cost_model.calibrate Cost_model.default ~workers:4 ~target_tps:400.0 ~mean_txn_cost:mean in
  let ctx = { ctx with Systems.cost } in
  let r = Sim.run (sim_config ~rate:100.0 ctx) (Systems.baseline ctx) in
  (* under capacity: completions ≈ arrivals *)
  let expected = int_of_float (100.0 *. 6.0) in
  if abs (r.Sim.completed - expected) > expected / 10 then
    Alcotest.failf "baseline completed %d, expected ~%d" r.Sim.completed expected;
  check Alcotest.bool "queue stays small" true (r.Sim.peak_queue < 30)

let sim_overload_queues () =
  let ctx = tiny_ctx Tpcc_migrations.Split in
  let mean = Systems.measure_mean_txn_cost ctx ~samples:100 ~seed:2 in
  let cost = Cost_model.calibrate Cost_model.default ~workers:4 ~target_tps:100.0 ~mean_txn_cost:mean in
  let ctx = { ctx with Systems.cost } in
  (* arrivals at 2x capacity: the queue must grow roughly linearly *)
  let r = Sim.run (sim_config ~rate:200.0 ctx) (Systems.baseline ctx) in
  check Alcotest.bool "overload builds a queue" true (r.Sim.peak_queue > 200)

let sim_eager_gates_affected () =
  let ctx = tiny_ctx Tpcc_migrations.Split in
  let mean = Systems.measure_mean_txn_cost ctx ~samples:100 ~seed:2 in
  let cost = Cost_model.calibrate Cost_model.default ~workers:4 ~target_tps:400.0 ~mean_txn_cost:mean in
  (* raise migration cost so the downtime window is visible *)
  let cost = { cost with Cost_model.row_migrate = 2e-2 } in
  let ctx = { ctx with Systems.cost } in
  let r = Sim.run (sim_config ~rate:100.0 ~duration:8.0 ~mig_time:2.0 ctx) (Systems.eager ctx) in
  (match r.Sim.mig_end with
  | Some t -> check Alcotest.bool "downtime window" true (t > 3.0)
  | None -> Alcotest.fail "eager must finish");
  (* during the gate, throughput of affected txns collapses: the bucket at
     t=3 should be well under the arrival rate *)
  let series = Metrics.throughput_series r.Sim.metrics in
  check Alcotest.bool "dip during downtime" true (snd series.(3) < 60)

let sim_lazy_completes () =
  let ctx = tiny_ctx Tpcc_migrations.Split in
  let mean = Systems.measure_mean_txn_cost ctx ~samples:100 ~seed:2 in
  let cost = Cost_model.calibrate Cost_model.default ~workers:4 ~target_tps:400.0 ~mean_txn_cost:mean in
  let ctx = { ctx with Systems.cost } in
  let sys = Systems.bullfrog ~bg_delay:0.5 ~bg_batch:64 ctx in
  let r = Sim.run (sim_config ~rate:100.0 ~duration:8.0 ~mig_time:1.0 ctx) sys in
  (match r.Sim.mig_end with
  | Some t -> check Alcotest.bool "lazy+bg completes in window" true (t < 8.0)
  | None -> Alcotest.fail "migration must complete");
  check Alcotest.bool "migration actually done" true (sys.Sim.migration_complete ())

(* fig3 golden series: the four headline systems (lazy BullFrog, eager,
   multistep, Tesseract) at a pinned tiny scale, seed and calibration.
   The simulation is purely virtual-time, so the per-second series are
   bit-exact; an engine change that shifts the fig3 curves fails here
   and must regenerate the goldens (FIG3_GOLDEN=print dune runtest
   dumps the new lines). *)
let fig3_run build =
  let ctx = tiny_ctx Tpcc_migrations.Split in
  let mean = Systems.measure_mean_txn_cost ctx ~samples:100 ~seed:2 in
  let cost =
    Cost_model.calibrate Cost_model.default ~workers:4 ~target_tps:400.0
      ~mean_txn_cost:mean
  in
  (* tiny scale makes the migration nearly free; raise the per-row cost
     (as the eager-downtime test does) so the four curves separate *)
  let cost = { cost with Cost_model.row_migrate = 2e-2 } in
  let ctx = { ctx with Systems.cost } in
  Sim.run (sim_config ~rate:100.0 ~duration:8.0 ~mig_time:2.0 ctx) (build ctx)

let fig3_series_string r =
  (* the under-capacity series plus the migration-end time: the paper's
     systems differ in WHEN they finish as much as in the dip shape *)
  Printf.sprintf "%s end=%s"
    (String.concat " "
       (List.map
          (fun (t, n) -> Printf.sprintf "%d:%d" t n)
          (Array.to_list (Metrics.throughput_series r.Sim.metrics))))
    (match r.Sim.mig_end with
    | Some t -> Printf.sprintf "%.2f" t
    | None -> "-")

let fig3_golden_series () =
  let systems =
    [
      ("lazy", fun ctx -> Systems.bullfrog ~bg_delay:0.5 ~bg_batch:64 ctx);
      ("eager", Systems.eager);
      ("multistep", fun ctx -> Systems.multistep ctx);
      ("tesseract", fun ctx -> Systems.tesseract ctx);
    ]
  in
  let got =
    List.map
      (fun (name, build) ->
        Printf.sprintf "%s %s" name (fig3_series_string (fig3_run build)))
      systems
  in
  if Sys.getenv_opt "FIG3_GOLDEN" = Some "print" then
    List.iter print_endline got;
  let golden =
    [
      "lazy 0:98 1:100 2:99 3:102 4:100 5:100 6:98 7:102 8:1 9:0 10:0 end=2.50";
      "eager 0:98 1:100 2:4 3:4 4:258 5:135 6:98 7:102 8:1 9:0 10:0 end=4.40";
      "multistep 0:98 1:100 2:99 3:102 4:100 5:100 6:98 7:102 8:1 9:0 10:0 end=2.00";
      "tesseract 0:98 1:100 2:99 3:102 4:100 5:100 6:98 7:102 8:1 9:0 10:0 end=2.00";
    ]
  in
  check (Alcotest.list Alcotest.string) "fig3 series match goldens" golden got

(* A BullFrog system is named after the trackers its runtime installed:
   the aggregate's group-key hashmap, the join's pair tracker. *)
let bullfrog_labels () =
  List.iter
    (fun (scenario, want) ->
      let sys = Systems.bullfrog (tiny_ctx scenario) in
      ignore (sys.Sim.begin_migration ~now:0.0 : float);
      check Alcotest.string (Tpcc_migrations.scenario_name scenario) want sys.Sim.sys_name)
    [
      (Tpcc_migrations.Split, "bullfrog(bitmap)");
      (Tpcc_migrations.Aggregate, "bullfrog(hashmap)");
      (Tpcc_migrations.Join, "bullfrog(hashmap)");
    ]

let suite =
  [
    Alcotest.test_case "bullfrog named by its trackers" `Quick bullfrog_labels;
    Alcotest.test_case "cost model linearity" `Quick cost_model_linear;
    Alcotest.test_case "cost model calibration" `Quick cost_model_calibration;
    Alcotest.test_case "metrics collection" `Quick metrics_collection;
    Alcotest.test_case "sim: baseline under capacity" `Slow sim_baseline_throughput;
    Alcotest.test_case "sim: overload queues" `Slow sim_overload_queues;
    Alcotest.test_case "sim: eager downtime gate" `Slow sim_eager_gates_affected;
    Alcotest.test_case "sim: lazy completes" `Slow sim_lazy_completes;
    Alcotest.test_case "fig3 golden series" `Slow fig3_golden_series;
  ]
