(** Hash-table tracker for n:1 and n:n migrations (paper §3.4, Algorithm 3).

    Granules are group keys (e.g. the GROUP BY attribute values, or the
    join-attribute value of an n:n join); a key absent from the table has
    not started migrating.  States follow the algorithm: [In_progress]
    (locked, not migrated), [Migrated], and [Aborted] — a worker finding
    [Aborted] may re-acquire the key (Alg. 3 lines 7–9).

    The table is partitioned; each partition has its own latch (footnote 4:
    deadlock-free because no operation holds two latches). *)

type t

type key = Bullfrog_db.Value.t array

type state = In_progress | Migrated | Aborted

val create : ?stripes:int -> unit -> t

val try_acquire : t -> key list -> Tracker.decision list
(** Algorithm 3 over a list of keys, minus the worker-local WIP/SKIP
    short-circuits, which live in the migration loop ({!Migrate_exec}).
    Decisions are aligned with the input; a duplicate key resolves like
    two calls in a row (first wins, second skips).  Keys are grouped by
    partition first, so each partition latch is taken once per call;
    latches are never nested, so a list may span partitions. *)

val mark_migrated : t -> key list -> unit
(** Flip every key to migrated, latching like {!try_acquire}.
    @raise Invalid_argument when a key is absent or already migrated; the
    flips made before it (partition by partition, in order of first
    appearance) are kept and counted. *)

val mark_aborted : t -> key list -> unit
(** In-progress → aborted (the key stays in the table, per Alg. 3). *)

val force_migrated : t -> key -> unit

val state_of : t -> key -> state option

val is_migrated : t -> key -> bool

val stats : t -> Tracker.stats
(** [total] counts keys ever inserted (group population is discovered
    lazily, so this is a lower bound until the background pass ends). *)

val iter : t -> (key -> state -> unit) -> unit
