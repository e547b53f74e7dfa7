(** Crash recovery for the tracking structures (paper §3.5).

    BullFrog's trackers live in volatile memory.  After a (simulated)
    crash, [rebuild_report] scans the redo log and, for every granule
    found in a committed migration transaction, sets its status back to
    migrated — in-progress granules of uncommitted transactions are
    naturally lost and will be re-migrated.  The paper lists this as unimplemented
    future work (footnote 5); it is implemented here. *)

type rebuild_report = {
  rb_restored : int;  (** granule statuses set back to migrated *)
  rb_dropped : int;
      (** [G_tid] marks beyond the rebuilt bitmap's granule range (the
          heap shrank across the restart) — counted, not silently lost *)
}

val rebuild_report : Migrate_exec.t -> Bullfrog_db.Redo_log.t -> rebuild_report
(** Only marks matching the runtime's migration id are applied; the match
    is by input-table name and granule kind. *)

val simulate_crash : Migrate_exec.t -> Migrate_exec.t
(** Fresh runtime over the same database and spec with empty trackers —
    the runtime re-installed ([Migrate_exec.install ~resume]) with the
    settings it was installed with, as a restart would before replaying
    the log.  Output tables and their data survive (they are "disk");
    only tracker state is lost. *)

val recover : Migrate_exec.t -> Migrate_exec.t * rebuild_report
(** [simulate_crash] followed by [rebuild_report] against the database's
    own redo log: a runtime-level restart, for runtimes outside
    [Lazy_db] (the multistep baseline) and tests.  A node restarts
    through [Lazy_db.recover]. *)
