(** Secondary indexes mapping composite key values to TIDs.

    Two kinds, mirroring PostgreSQL's hash and btree access methods:

    - {b Hash} (default): O(1) exact-key probes.  Used for primary-key /
      UNIQUE enforcement and point lookups.
    - {b Ordered}: keys kept in lexicographic {!Value.compare} order;
      additionally supports minimum/maximum-under-prefix probes (what
      TPC-C's Delivery and OrderStatus lean on) and prefix + range scans
      (StockLevel's recent-orders window).

    Rows whose key contains a NULL are not indexed (SQL semantics: NULLs
    never collide in a UNIQUE index). *)

type kind = Hash | Ordered

type t

val create :
  ?kind:kind ->
  ?expected:int ->
  name:string ->
  key_cols:int array ->
  unique:bool ->
  unit ->
  t
(** [expected] pre-sizes the hash store (default 1024 keys). *)

val presize : t -> int -> unit
(** [presize t n] makes room for [n] further entries without incremental
    rehash-doubling (bulk loads).  No-op on ordered indexes. *)

val name : t -> string

val kind : t -> kind

val key_cols : t -> int array

val is_unique : t -> bool

val key_of_row : t -> Value.t array -> Value.t array option
(** [None] when any key component is NULL. *)

val insert : t -> Value.t array -> int -> unit
(** [insert t key tid].  The key array is defensively copied.
    @raise Db_error.Constraint_violation when the index is unique and the
    key is already present. *)

val insert_owned : t -> Value.t array -> int -> unit
(** Like {!insert} but takes ownership of the key array (no copy).  The
    caller must never mutate it afterwards — use only with freshly
    allocated keys (e.g. {!key_of_row} output). *)

val insert_live : t -> live:(int -> bool) -> Value.t array -> int -> unit
(** Liveness-aware {!insert_owned} for heaps that defer de-indexing:
    on a unique-index collision, the duplicate-key violation is raised
    only when one of the entry's existing TIDs satisfies [live];
    otherwise the new TID is chained alongside the dead ones (their
    entries survive until version-chain GC so pinned snapshots can
    still probe deleted rows, DESIGN.md §4.2f). *)

val remove : t -> Value.t array -> int -> unit

val find : t -> Value.t array -> int list
(** TIDs with this key. *)

val mem : t -> Value.t array -> bool

val entry_count : t -> int

val iter_sorted_tids : (int -> unit) -> int list -> unit
(** Apply [f] to a probe's TIDs in ascending order (the order rows are
    fetched in).  A list already ascending or descending is walked
    without a sort: range callers prepend each key's newest-first list
    ([ts @ acc]), which is descending when keys were written in TID
    order. *)

type stats = {
  s_entries : int;  (** TID entries (duplicates counted) *)
  s_keys : int;  (** distinct keys *)
  s_buckets : int;  (** 0 on ordered indexes *)
  s_max_chain : int;
  s_load : float;  (** keys per bucket; 0 on ordered indexes *)
}

val stats : t -> stats
(** Walks the hash store's buckets; intended for snapshots, not hot
    paths. *)

val clear : t -> unit

(** {2 Ordered-index operations}

    These raise [Invalid_argument] on a hash index. *)

val min_with_prefix :
  ?keep:(int -> bool) -> t -> Value.t array -> (Value.t array * int list) option
(** Smallest full key whose first components equal the prefix.  With
    [keep], keys none of whose TIDs satisfy it are skipped — callers
    pass a visibility check so index entries awaiting GC (deferred
    de-indexing) cannot surface a deleted key. *)

val max_with_prefix :
  ?keep:(int -> bool) -> t -> Value.t array -> (Value.t array * int list) option

val fold_prefix_range :
  t ->
  prefix:Value.t array ->
  ?lo:Value.t ->
  ?hi:Value.t ->
  init:'a ->
  f:('a -> Value.t array -> int list -> 'a) ->
  unit ->
  'a
(** Fold over keys extending [prefix] whose next component [v] satisfies
    [lo <= v] and [v < hi] (either bound optional), in key order. *)
