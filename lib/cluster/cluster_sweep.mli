(** The cluster's 2PC crash scenario for the {!Bullfrog_core.Fault_sweep}
    matrix.

    Cross-shard INSERTs and a cross-shard DELETE on a 4-shard hash
    partition, crashed at the coordinator's prepare-sent / decision-logged
    / commit-acked boundaries, recovered with {!Cluster.recover}, and
    checked for statement atomicity (a result set labelled ["atomicity"]
    that must stay empty) before converging to the oracle's final rows. *)

val scenario : Bullfrog_core.Fault_sweep.scenario

val mig_scenario : Bullfrog_core.Fault_sweep.scenario
(** ["cluster_mig"]: crash {e mid-migration}.  A partition-key-changing
    migration (input hashed by [id], output by [grp]) is driven by
    predicate queries so migrated rows move home through 2PC; the armed
    point fires during a move, {!Cluster.recover} must re-install the
    migration from the coordinator log and resume it (probe result set
    ["resumed"] stays empty), and after convergence + finalize the
    output table must be row-exact against the disarmed oracle, with the
    migration closed and the input dropped on every shard (probe
    ["finalized"]), also when the crash hits finalize itself. *)

val points : int list
(** [p_2pc_prepare; p_2pc_decision; p_2pc_ack]. *)

val mig_points : int list
(** {!points} and [p_cluster_finalize]: the points {!mig_scenario}
    reaches. *)

val register : unit -> unit
(** Add both scenarios to {!Bullfrog_core.Fault_sweep}'s registry
    (idempotent). *)

val run_bounded : unit -> Bullfrog_core.Fault_sweep.cell list
(** One oracle run plus one recovery cell per crash point, for both
    scenarios: {!points} for {!scenario}, {!mig_points} for
    {!mig_scenario}. *)
