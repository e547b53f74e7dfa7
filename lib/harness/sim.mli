(** Discrete-event simulation of an open-loop client against a c-worker
    transaction engine (the OLTP-Bench + 8-core-server substitute; see
    DESIGN.md §1).

    Arrivals are Poisson at [rate]; queued requests are served FIFO by
    [workers] virtual workers.  Each dispatched transaction {e executes
    for real} against the system under test, which returns its virtual
    service cost plus the migration granules it committed or found
    already-migrated; the simulator models

    - queueing delay (latency = wait + service, as in the paper),
    - Algorithm 1 lock waits: a granule migrated by a transaction still
      in flight blocks a later transaction needing it until the
      migrator's virtual commit (§3.3/Fig. 1); in ON CONFLICT mode the
      overlap duplicates work instead of blocking (§3.7),
    - eager downtime: affected transactions queue behind the migration
      window,
    - background threads: once active they occupy [bg_workers] of the
      worker pool (§2.2; multistep's copier starts immediately, BullFrog's
      background threads after [bg_delay]). *)

type exec_outcome = {
  eo_cost : float;  (** virtual service seconds *)
  eo_migrated : (int * Bullfrog_core.Migrate_exec.granule) list;
  eo_already : (int * Bullfrog_core.Migrate_exec.granule) list;
  eo_row_keys : Bullfrog_core.Migrate_exec.granule list;
      (** rows this transaction locks exclusively for its duration; a later
          transaction needing one waits for the holder's virtual commit
          (the §4.4.2 lock-contention mechanism) *)
}

type system = {
  mutable sys_name : string;
      (** a system may rename itself once its migration is installed *)
  begin_migration : now:float -> float;
      (** perform the switch; returns downtime (eager) or 0 *)
  exec : now:float -> Bullfrog_tpcc.Tpcc_txns.input -> exec_outcome;
  background_batch : now:float -> float;
      (** run one background batch; virtual cost, 0 when no work left *)
  migration_complete : unit -> bool;
  progress : unit -> float option;
      (** migration progress in [0;1]; [None] before the switch (or for
          systems without one).  Sampled into the metrics timeline as the
          ["migrated"] series. *)
  is_affected : Bullfrog_tpcc.Tpcc_txns.input -> bool;
      (** queued during eager downtime *)
  on_conflict : bool;
  overlap_cost : int -> float;
      (** extra cost for n overlapping granules in ON CONFLICT mode *)
  bg_delay : float option;  (** [None]: no background threads *)
  bg_workers : int;
}

type arrival_process = Uniform | Poisson

type config = {
  workers : int;
  rate : float;
  duration : float;
  mig_time : float option;
  seed : int;
  gen : Rng.t -> Bullfrog_tpcc.Tpcc_txns.input;
  cdf_from_migration : bool;
  arrivals : arrival_process;  (** OLTP-Bench paces requests uniformly *)
}

type result = {
  metrics : Metrics.t;
  mig_end : float option;
  completed : int;
  peak_queue : int;
}

val run : config -> system -> result
