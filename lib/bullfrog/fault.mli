(** Deterministic fault injection for crash-recovery tests.

    Every commit-adjacent site in the migration engine carries a numbered
    [point] hook.  Arming a point makes its nth hit raise {!Crash} —
    simulating a process failure at that exact spot — after which the
    point auto-disarms, so recovery code re-running the same path does
    not crash again.  With nothing armed a hook costs one int compare. *)

exception Crash of string
(** Argument is the point name.  Deliberately not a [Db_error]: nothing in
    the engine catches it, so it unwinds like a real crash would. *)

(** Registered crash points (ids are stable; the sweep enumerates them). *)

val p_mark_commit : int
(** granule marks recorded, before the migration txn commits — data and
    log entry are lost, trackers roll back *)

val p_flip_batched : int
(** inside a tracker group's on-commit flip — data and log are already
    durable, only some tracker groups have flipped (torn commit) *)

val p_pair_commit : int
(** pair-mode marks recorded, before the shared-tracker txn commits *)

val p_pair_flip : int
(** inside the pair tracker's batched on-commit flip *)

val p_bg_batch : int
(** between background migration batches (outside any transaction) *)

val p_eager_copy : int
(** inside the eager copy transaction — the whole statement's copy
    aborts *)

val p_multistep_copy : int
(** after a multistep copier step *)

val p_commit_ts : int
(** inside the timestamped-commit critical section of a migration-marked
    transaction: versions stamped with the reserved timestamp, clock not
    yet published, redo record not yet appended — nothing of the commit
    is durable or visible (installed into {!Database.commit_test_hook}) *)

val p_gc_sweep : int
(** mid version-chain GC: some tables already swept, the rest not —
    exercises that GC carries no logical state across a crash (installed
    into {!Database.gc_test_hook}) *)

val p_2pc_prepare : int
(** between participant prepare appends in a cross-shard commit: some
    shards hold a durable [E_prepare] for the global id, the others have
    nothing — recovery must presume abort everywhere *)

val p_2pc_decision : int
(** after the coordinator durably logs its commit decision but before any
    participant is resolved: every prepared shard is in doubt and must
    find the outcome in the coordinator log *)

val p_2pc_ack : int
(** between participant resolutions: some shards carry the shard-local
    decision marker, the rest still resolve via the coordinator *)

val p_cluster_finalize : int
(** after a shard finalizes a cluster migration: that shard's [drop_old]
    tables are dropped and its log closed, later shards still hold theirs
    — recovery must finish the drops everywhere, not resume *)

val p_cluster_rollback : int
(** after a shard rolls back a cluster migration that dropped nothing:
    that shard's outputs are dropped and its log closed, later shards
    still hold theirs — recovery must finish the drops, not resume *)

val p_cluster_start : int
(** after a shard switches to a cluster migration: that shard logged its
    Start record, later shards have not switched — recovery must start
    them, rolling the migration forward *)

val count : int

val name_of : int -> string

val all : unit -> (int * string) list

val point : int -> unit
(** Site hook.  @raise Crash when this point is armed and its countdown
    has elapsed. *)

val arm : ?after:int -> int -> unit
(** Arm one point; [after] (default 0) skips that many hits before
    firing, so later occurrences of the same site are reachable. *)

val disarm : unit -> unit

val armed : unit -> int option

val fired : unit -> bool
(** Whether the armed point actually fired since [arm] (a scenario may
    never reach a given site — the sweep treats that as vacuous). *)

val hits : unit -> int
(** Hits of the armed point since [arm], fired or not. *)
