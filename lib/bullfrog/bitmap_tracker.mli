(** Bitmap tracker for 1:1 and 1:n migrations (paper §3.3, Algorithm 2).

    Two bits per granule, stored adjacently so one byte read sees both:
    [lock] (in-progress) and [migrate].  Legal states are [0 0] (not
    started), [1 0] (in progress) and [0 1] (migrated); [1 1] is asserted
    unreachable.  A granule is a tuple (TID) by default, or a page of
    [page_size] consecutive TIDs (§4.4.3).

    The bitmap is partitioned into chunks, each guarded by its own latch
    (a {!Bullfrog_util.Striped_mutex}), to reduce cross-worker latch
    contention.  All operations are thread-safe. *)

type t

val create : ?page_size:int -> ?stripes:int -> size:int -> unit -> t
(** [size] is the number of TIDs to cover ([Heap.tid_count] of the input
    table).  [page_size] defaults to 1 (tuple granularity); [stripes] to
    64. *)

val page_size : t -> int

val granule_of_tid : t -> int -> int
(** [tid / page_size]. *)

val granule_count : t -> int

val try_acquire : t -> int list -> Tracker.decision list
(** Algorithm 2 over a list of granule indices: each granule's migrate and
    lock bits are read under its chunk's latch, and a free granule gets its
    lock bit set.  Decisions are aligned with the input; a duplicate
    resolves like two calls in a row (first wins, second skips).  Each
    chunk latch is taken once per maximal run of same-chunk granules in the
    input (a sorted list within one chunk takes exactly one latch); latches
    are never nested, so a list may span chunks. *)

val mark_migrated : t -> int list -> unit
(** Alg. 1 line 9: flip every granule [1 0] → [0 1], latching like
    {!try_acquire}.  Also accepts [0 0] → [0 1] (recovery / eager paths).
    @raise Invalid_argument on an already-migrated granule (double
    completion indicates a tracker misuse); the flips before it in the
    list are kept and counted. *)

val mark_aborted : t -> int list -> unit
(** §3.5: reset every granule [1 0] → [0 0] so another worker can migrate
    it. *)

val is_migrated : t -> int -> bool

val is_in_progress : t -> int -> bool

val force_migrated : t -> int -> unit
(** Recovery: set migrated regardless of current state. *)

val stats : t -> Tracker.stats
(** [in_progress] is counted word-at-a-time (all-zero 8-byte words are
    skipped, set lock bits are table-popcounted per byte), so stats calls
    are cheap even on multi-million-granule bitmaps. *)

val complete : t -> bool
(** Every granule migrated. *)

val next_unmigrated_run : ?max_len:int -> t -> from:int -> (int * int) option
(** [(start, len)] of the first run of granules [>= from] that are
    neither migrated nor in progress: maximal, or [max_len] long when
    the free stretch is longer (default: unbounded).  A caller that will
    take only [k] granules passes [~max_len:k], so the call costs
    O(k / 32) word probes past the skipped prefix instead of a walk to
    the end of the free region.  The scan reads the bitmap 8
    granule-bytes at a time ({!Bytes.get_int64_ne}) and skips fully
    settled words, so a mostly-migrated bitmap is crossed at 32 granules
    per probe.  Unlatched: the result is a hint that {!try_acquire}
    re-checks under the chunk latch.
    @raise Invalid_argument when [max_len < 1]. *)

val pending_tids : t -> int -> (int * int) option
(** The candidate scan's TID ranges: [pending_tids t tid] is the first
    range [(lo, hi)] ([hi] exclusive, [tid <= lo]) of TIDs whose
    granules are not migrated — free or in progress — found with the
    same word skips as {!next_unmigrated_run}.  TIDs past the bitmap's
    coverage (appended after it was sized) are not tracked and count as
    pending.  Never [None]; the range may start past the table's end. *)
