type row = Value.t array

(* Deleted slots hold this physically unique sentinel instead of a
   [row option] box: storing rows unboxed saves one [Some] block per
   insert (allocation + minor-GC promotion + a word the major collector
   traces forever).  Real rows are distinct arrays, so [==] against the
   tombstone never aliases one. *)
let tombstone : row = Array.make 1 Value.Null

(* Multi-version metadata (DESIGN.md §4.2f): each slot carries an
   immutable version descriptor; the newest-first chain of older
   committed versions hangs off it.  Replacing a slot's descriptor is a
   single pointer store, so snapshot readers take no latch: one [Vec.get]
   yields a self-consistent (row, begin-timestamp, writer, chain) tuple,
   and the chain nodes it reaches are immutable forever after.  A
   version's *end* timestamp is materialized as the begin timestamp of
   the next-newer version in the chain (a tombstone row is the deleted
   marker), so the classical [begin, end) interval check reduces to
   "newest version with v_begin <= ts". *)
type version = {
  v_row : row;  (* tombstone == no row at this version *)
  v_begin : int;  (* commit timestamp; [unstamped] while the writer runs *)
  v_writer : int;  (* owning txn while uncommitted, 0 once stamped *)
  v_older : version option;
}

(* Uncommitted versions sit above every possible clock value, so readers
   reject them by the same comparison that rejects too-new commits. *)
let unstamped = max_int

let empty_version = { v_row = tombstone; v_begin = 0; v_writer = 0; v_older = None }

type t = {
  tbl_id : int;
  mutable name : string;
  mutable schema : Schema.t;
  latch : Mutex.t;
  slots : row Vec.t;
  vers : version Vec.t;  (* parallel to [slots]: version descriptors *)
  mutable indexes : Index.t list;
  mutable live : int;
  mutable chained : int;  (* versions held in older chains (GC backlog) *)
  written : int Vec.t;
      (* TIDs whose head had no older chain when a write gave it one:
         the only slots GC needs to visit.  A slot's chain can vanish
         without GC (an abort pops it, column DDL cuts it), so the list
         may hold chainless TIDs, and now and then one TID twice; GC
         drops both. *)
  pending_dead : (int, row) Hashtbl.t;
      (* tid -> deleted row whose index entries are deliberately still
         installed: de-indexing is deferred until GC proves no pinned
         snapshot can reach the row through its version chain, so a
         snapshot pinned before the delete still finds it by index
         probe (DESIGN.md §4.2f) *)
}

let create ~tbl_id ~name schema =
  {
    tbl_id;
    name;
    schema;
    latch = Mutex.create ();
    slots = Vec.create ();
    vers = Vec.create ();
    indexes = [];
    live = 0;
    chained = 0;
    written = Vec.create ();
    pending_dead = Hashtbl.create 16;
  }

let with_latch t f =
  Mutex.lock t.latch;
  match f () with
  | v ->
      Mutex.unlock t.latch;
      v
  | exception e ->
      Mutex.unlock t.latch;
      raise e

(* A TID counts against unique constraints only while its slot holds a
   row: deferred de-indexing leaves deleted rows' entries installed, and
   those must neither block a re-insert of the key nor make the reaper
   double-count.  A TID at or past the slot vector is an in-flight
   insert (batch rows are indexed before their slots are pushed) and is
   live.  (An uncommitted DELETE has already tombstoned the slot; its
   writer holds the 2PL row lock, so treating it as dead here matches
   the pre-MVCC eager-de-index behaviour.) *)
let tid_live t tid = tid >= Vec.length t.slots || Vec.get t.slots tid != tombstone

(* Insert into each of [indexes], rolling back prior entries when a unique
   index rejects the key, so a failed insert leaves the indexes untouched.
   [key_of_row] allocates a fresh key array, so the no-copy insert is
   safe. *)
let index_all t indexes row tid =
  let live = tid_live t in
  match indexes with
  | [] -> ()
  | [ idx ] -> (
      (* single index: a failed insert added nothing, so no trail *)
      match Index.key_of_row idx row with
      | None -> ()
      | Some key -> Index.insert_live idx ~live key tid)
  | indexes ->
      let done_ = ref [] in
      (try
         List.iter
           (fun idx ->
             match Index.key_of_row idx row with
             | None -> ()
             | Some key ->
                 Index.insert_live idx ~live key tid;
                 done_ := (idx, key) :: !done_)
           indexes
       with e ->
         List.iter (fun (idx, key) -> Index.remove idx key tid) !done_;
         raise e)

let deindex_all indexes row tid =
  List.iter
    (fun idx ->
      match Index.key_of_row idx row with
      | None -> ()
      | Some key -> Index.remove idx key tid)
    indexes

let key_changed old row idx =
  Array.exists (fun c -> not (Value.identical old.(c) row.(c))) (Index.key_cols idx)

(* Re-key [tid] from [old] to [row] in only the indexes whose key columns
   differ, in the manner of PostgreSQL's heap-only-tuple updates: an
   index whose key is unchanged already holds the right entry.
   "Unchanged" is [Value.identical], not [Value.equal]: an [Int 2] ->
   [Float 2.] change still re-indexes, because ordered probes return the
   stored key.  On a unique violation only the re-keyed indexes are
   restored. *)
let reindex t tid ~old row =
  match List.filter (key_changed old row) t.indexes with
  | [] -> ()
  | changed -> (
      deindex_all changed old tid;
      try index_all t changed row tid
      with e ->
        index_all t changed old tid;
        raise e)

let c_inserts = Obs.Counters.make "db.heap.inserts"

let c_tombstones = Obs.Counters.make "db.heap.tombstones"

let c_versions = Obs.Counters.make "mvcc.versions_chained"

let c_walks = Obs.Counters.make "mvcc.version_walks"

(* ------------------------------------------------------------------ *)
(* Version bookkeeping (call with the latch held)                      *)
(* ------------------------------------------------------------------ *)

(* Fresh descriptor for a row written by [writer]; begin stamp:
   - writer > 0: [unstamped] — invisible until Database.commit stamps it
   - writer = 0: committed immediately, at [ts] when given (redo replay
     carries the original commit timestamp) or at the current clock
     (loader / DDL backfill / direct Heap API use). *)
let fresh_version ~writer ~ts row older =
  if writer > 0 then { v_row = row; v_begin = unstamped; v_writer = writer; v_older = older }
  else
    let b = match ts with Some ts -> ts | None -> Mvcc.now () in
    { v_row = row; v_begin = b; v_writer = 0; v_older = older }

(* Rebuild the written-slot list as its chained TIDs, each once. *)
let compact_written t =
  let a = Vec.to_array t.written in
  Array.sort Int.compare a;
  Vec.clear t.written;
  Array.iteri
    (fun j tid ->
      if (j = 0 || a.(j - 1) <> tid) && (Vec.get t.vers tid).v_older != None then
        Vec.push t.written tid)
    a

(* Replace slot [tid]'s descriptor with a new head for [row].  The
   previous head is chained unless it is the shared empty descriptor or
   an uncommitted head by the same writer (a transaction re-writing its
   own row replaces in place, so chains only ever hold committed
   versions).  An abort drops a chain without GC, so a slot aborted
   over and over would join the written list once per abort; once the
   list outgrows twice the slot count it is compacted, which keeps it
   bounded where no vacuum runs. *)
let install_version t tid ~writer ~ts row =
  let cur = Vec.get t.vers tid in
  let older =
    if cur == empty_version then None
    else if writer > 0 && cur.v_writer = writer then cur.v_older
    else begin
      t.chained <- t.chained + 1;
      Obs.Counters.bump c_versions;
      if cur.v_older == None then Vec.push t.written tid;
      Some cur
    end
  in
  Vec.set t.vers tid (fresh_version ~writer ~ts row older);
  if Vec.length t.written > (2 * Vec.length t.vers) + 64 then compact_written t

(* Abort: pop an uncommitted head back to its committed predecessor.
   Returns [true] when a pop happened (the committed pre-image is the
   chained node, physically the same array the undo log saved). *)
let pop_uncommitted t tid =
  let cur = Vec.get t.vers tid in
  if cur.v_writer > 0 then begin
    (match cur.v_older with
    | Some older ->
        Vec.set t.vers tid older;
        t.chained <- t.chained - 1
    | None -> Vec.set t.vers tid empty_version);
    true
  end
  else false

(* ------------------------------------------------------------------ *)
(* Mutations                                                           *)
(* ------------------------------------------------------------------ *)

let insert ?(writer = 0) t row =
  Obs.Counters.bump c_inserts;
  with_latch t (fun () ->
      let tid = Vec.length t.slots in
      index_all t t.indexes row tid;
      Vec.push t.slots row;
      Vec.push t.vers (fresh_version ~writer ~ts:None row None);
      t.live <- t.live + 1;
      tid)

(* Exact-position insert for redo replay: committed inserts carry the tid
   they were assigned originally, and aborted transactions burn tids, so
   replay must reproduce the slot layout (bitmap granules are tid-derived)
   rather than re-append.  Gaps are padded with tombstones.  [ts] is the
   original commit timestamp from the log, so recovery rebuilds a
   newest-version heap whose stamps are consistent with the clock. *)
let insert_at ?ts t tid row =
  with_latch t (fun () ->
      let n = Vec.length t.slots in
      if tid < n then begin
        if Vec.get t.slots tid != tombstone then
          invalid_arg
            (Printf.sprintf "Heap.insert_at: tid %d of %s is occupied" tid t.name);
        index_all t t.indexes row tid;
        Vec.set t.slots tid row;
        install_version t tid ~writer:0 ~ts row;
        t.live <- t.live + 1
      end
      else begin
        for _ = n to tid - 1 do
          Vec.push t.slots tombstone;
          Vec.push t.vers empty_version
        done;
        index_all t t.indexes row tid;
        Vec.push t.slots row;
        Vec.push t.vers (fresh_version ~writer:0 ~ts row None);
        t.live <- t.live + 1
      end)

let reserve t n =
  with_latch t (fun () ->
      Vec.reserve t.slots n tombstone;
      Vec.reserve t.vers n empty_version;
      List.iter (fun idx -> Index.presize idx n) t.indexes)

let get t tid =
  let r = Vec.get t.slots tid in
  if r == tombstone then None else Some r

let get_exn t tid =
  let r = Vec.get t.slots tid in
  if r == tombstone then
    invalid_arg (Printf.sprintf "Heap.get_exn: tid %d of %s is a tombstone" tid t.name)
  else r

let update ?(writer = 0) ?ts t tid row =
  with_latch t (fun () ->
      let old = Vec.get t.slots tid in
      if old == tombstone then
        invalid_arg (Printf.sprintf "Heap.update: tid %d of %s is a tombstone" tid t.name)
      else begin
          reindex t tid ~old row;
          Vec.set t.slots tid row;
          install_version t tid ~writer ~ts row;
          old
      end)

let delete ?(writer = 0) ?ts t tid =
  with_latch t (fun () ->
      let old = Vec.get t.slots tid in
      if old == tombstone then
        invalid_arg (Printf.sprintf "Heap.delete: tid %d of %s is a tombstone" tid t.name)
      else begin
        (* De-indexing is deferred: the entries stay probe-able for
           pinned snapshots until GC proves the row unreachable.  A
           slot can only be deleted while occupied, and every path that
           re-occupies it (restore / abort_delete / GC) clears the
           binding first, so at most one pending row exists per tid. *)
        (match Hashtbl.find_opt t.pending_dead tid with
        | Some prev when prev != old -> deindex_all t.indexes prev tid
        | _ -> ());
        Hashtbl.replace t.pending_dead tid old;
        Vec.set t.slots tid tombstone;
        install_version t tid ~writer ~ts tombstone;
        t.live <- t.live - 1;
        Obs.Counters.bump c_tombstones;
        old
      end)

(* Undoing a delete whose index entries are still pending must not
   re-index (the entries are already installed); it just cancels the
   deferred removal.  Returns [true] when the entries were reused. *)
let reclaim_pending t tid row =
  match Hashtbl.find_opt t.pending_dead tid with
  | Some prev when prev == row ->
      Hashtbl.remove t.pending_dead tid;
      true
  | Some prev ->
      (* different row resurrected at this tid: the pending one is gone
         for good *)
      deindex_all t.indexes prev tid;
      Hashtbl.remove t.pending_dead tid;
      false
  | None -> false

let restore t tid row =
  with_latch t (fun () ->
      if Vec.get t.slots tid != tombstone then invalid_arg "Heap.restore: slot is occupied"
      else begin
        if not (reclaim_pending t tid row) then index_all t t.indexes row tid;
        Vec.set t.slots tid row;
        install_version t tid ~writer:0 ~ts:None row;
        t.live <- t.live + 1
      end)

let uninsert t tid =
  with_latch t (fun () ->
      let old = Vec.get t.slots tid in
      if old == tombstone then
        invalid_arg (Printf.sprintf "Heap.uninsert: tid %d of %s is a tombstone" tid t.name);
      deindex_all t.indexes old tid;
      Vec.set t.slots tid tombstone;
      t.live <- t.live - 1;
      Obs.Counters.bump c_tombstones;
      (* abort of an insert: the row never existed for anyone else *)
      if not (pop_uncommitted t tid) then install_version t tid ~writer:0 ~ts:None tombstone)

(* ------------------------------------------------------------------ *)
(* Abort helpers (Txn.abort)                                           *)
(* ------------------------------------------------------------------ *)

(* Reverting an aborted write must NOT create a new version — it pops the
   uncommitted head so the committed pre-image descriptor (the same array
   the undo log saved) becomes current again.  When the head is already
   committed (direct Heap API writes rolled back by a test, or a later
   undo entry for a slot whose head was popped by an earlier one), the
   slot content is restored but the descriptor is already correct or is
   replaced by a fresh committed version. *)

let abort_insert t tid = uninsert t tid

let abort_delete t tid row =
  with_latch t (fun () ->
      if Vec.get t.slots tid != tombstone then
        invalid_arg "Heap.abort_delete: slot is occupied"
      else begin
        if not (reclaim_pending t tid row) then index_all t t.indexes row tid;
        Vec.set t.slots tid row;
        if not (pop_uncommitted t tid) then install_version t tid ~writer:0 ~ts:None row;
        t.live <- t.live + 1
      end)

let abort_update t tid old_row =
  with_latch t (fun () ->
      let cur = Vec.get t.slots tid in
      if cur == tombstone then
        invalid_arg (Printf.sprintf "Heap.abort_update: tid %d of %s is a tombstone" tid t.name);
      reindex t tid ~old:cur old_row;
      Vec.set t.slots tid old_row;
      if not (pop_uncommitted t tid) then install_version t tid ~writer:0 ~ts:None old_row)

(* ------------------------------------------------------------------ *)
(* Commit stamping                                                     *)
(* ------------------------------------------------------------------ *)

(* Called by Database.commit under the global commit latch, with [ts]
   strictly above the published clock: stamping is invisible until the
   clock is published, so a commit's writes appear all-or-nothing. *)
let stamp t tid ~writer ~ts =
  with_latch t (fun () ->
      let cur = Vec.get t.vers tid in
      if cur.v_writer = writer then
        Vec.set t.vers tid { cur with v_begin = ts; v_writer = 0 })

(* ------------------------------------------------------------------ *)
(* Snapshot reads (latch-free)                                         *)
(* ------------------------------------------------------------------ *)

(* The reader id that sees every head version — the newest write of any
   transaction, committed or not.  BullFrog's interception scans read
   this way (trigger semantics); it never walks a chain. *)
let latest = -1

let rec chain_row ~ts v =
  if v.v_writer = 0 && v.v_begin <= ts then v.v_row
  else match v.v_older with None -> tombstone | Some o -> chain_row ~ts o

(* Visibility: the newest version with a committed begin timestamp at or
   below the snapshot, or the reader's own uncommitted write ([tombstone]
   when none is visible).  One [Vec.get] loads an immutable descriptor,
   so the check never tears and never latches.  The head test is inline
   and returns the row itself — no [option] box — so a scan allocates
   nothing per row; the chain walk is the (counted) slow path. *)
let[@inline] visible_row ~ts ~reader v =
  if reader < 0 || (if v.v_writer = 0 then v.v_begin <= ts else v.v_writer = reader) then
    v.v_row
  else begin
    Obs.Counters.bump c_walks;
    match v.v_older with None -> tombstone | Some o -> chain_row ~ts o
  end

let snapshot_get t ~ts ~reader tid =
  let row = visible_row ~ts ~reader (Vec.get t.vers tid) in
  if row == tombstone then None else Some row

(* The one full-scan loop of the engine (DESIGN.md §4.2f): snapshot
   reads, [latest] reads and every executor / access-path / migration
   scan run through it.  One pass does the visibility test, the bound
   filter and the row counts: [count scanned kept] is called once, when
   the loop ends or when [filter] or [f] raises, with the visible rows
   reached and the rows [filter] kept (the raising row counts as
   reached, and as kept if [f] raised on it).

   The descriptor read skips [Vec.get]'s call and bounds check.  That is
   safe because [vers] only grows (nothing truncates it) and the loop's
   bound is its length at entry: every reallocation installs an array at
   least as long as the length, so [tid < n] stays in bounds.  The
   backing array is re-read per row, so a descriptor [f] itself installs
   (an UPDATE, or an insert that grew the array) is seen, as through
   [Vec.get]. *)
let scan ?(lo = 0) ?hi ?(filter = Expr.always) ?(count = fun _ _ -> ()) t ~ts ~reader f =
  let vers = t.vers in
  let n = vers.Vec.len in
  let hi = match hi with Some h when h < n -> h | _ -> n in
  let keep = filter.Expr.holds in
  let every = filter == Expr.always in
  let scanned = ref 0 and kept = ref 0 in
  match
    for tid = max lo 0 to hi - 1 do
      let row = visible_row ~ts ~reader (Array.unsafe_get vers.Vec.data tid) in
      if row != tombstone then begin
        incr scanned;
        if every || keep row then begin
          incr kept;
          f tid row
        end
      end
    done
  with
  | () -> count !scanned !kept
  | exception e ->
      count !scanned !kept;
      raise e

(* Every row slot [tid]'s versions carry, newest first, tombstones
   skipped: one descriptor load, then the immutable chain. *)
let iter_versions t tid f =
  let rec walk v =
    if v.v_row != tombstone then f v.v_row;
    match v.v_older with None -> () | Some o -> walk o
  in
  if tid < Vec.length t.vers then walk (Vec.get t.vers tid)

(* ------------------------------------------------------------------ *)
(* DDL in-place rewrite                                                *)
(* ------------------------------------------------------------------ *)

(* Column add/drop rewrites every row to the new layout without creating
   versions (the rows did not logically change), and truncates the
   slot's chain so stale-arity rows can never surface through a snapshot:
   column DDL cuts version history for the table, exactly as it
   invalidates cached plans via the catalog epoch. *)
let rewrite_in_place t tid row =
  with_latch t (fun () ->
      Vec.set t.slots tid row;
      let cur = Vec.get t.vers tid in
      let dropped = ref 0 in
      let rec count = function
        | None -> ()
        | Some v ->
            incr dropped;
            count v.v_older
      in
      count cur.v_older;
      t.chained <- t.chained - !dropped;
      Vec.set t.vers tid { cur with v_row = row; v_older = None })

(* ------------------------------------------------------------------ *)
(* Version-chain GC                                                    *)
(* ------------------------------------------------------------------ *)

let rec chain_len = function None -> 0 | Some v -> 1 + chain_len v.v_older

(* Drop everything below the newest committed version visible at the
   horizon: no pinned snapshot can reach those nodes.  Returns the
   rebuilt descriptor and the number of nodes reclaimed; the common
   no-chain case allocates nothing. *)
let rec trim_chain ~horizon v =
  if v.v_writer = 0 && v.v_begin <= horizon then begin
    let n = chain_len v.v_older in
    if n = 0 then (v, 0) else ({ v with v_older = None }, n)
  end
  else
    match v.v_older with
    | None -> (v, 0)
    | Some o ->
        let o', n = trim_chain ~horizon o in
        if n = 0 then (v, 0) else ({ v with v_older = Some o' }, n)

(* Deferred de-indexing pay-off: once a deleted row's array is no longer
   reachable through its slot's (trimmed) version chain, no snapshot at
   or above the horizon can see it, and its index entries can finally
   go.  Physical equality is sound because the slot and its versions
   share the very row arrays.  Chains not yet trimmed keep their rows
   reachable, so purging is safe to run against any trim progress. *)
let row_reachable row v =
  let rec go v =
    v.v_row == row || (match v.v_older with None -> false | Some o -> go o)
  in
  go v

let purge_pending t =
  if Hashtbl.length t.pending_dead > 0 then begin
    let dead =
      Hashtbl.fold
        (fun tid row acc ->
          if row_reachable row (Vec.get t.vers tid) then acc else (tid, row) :: acc)
        t.pending_dead []
    in
    List.iter
      (fun (tid, row) ->
        deindex_all t.indexes row tid;
        Hashtbl.remove t.pending_dead tid)
      dead
  end

let c_gc_visited = Obs.Counters.make "mvcc.gc_slots_visited"

(* Walk the written-slot list from its front, trimming each slot's
   chain, until [budget] versions are reclaimed.  A visited slot stays
   listed only while it still holds a chain; the slots not reached stay
   listed behind those.  A listed slot with a chain holds at least one
   chained version, so after a full pass more listed slots than chained
   versions can only mean repeats: the list is then sorted and its
   repeats dropped. *)
let gc ?(budget = max_int) t ~horizon =
  if Vec.length t.written = 0 && Hashtbl.length t.pending_dead = 0 then 0
  else
    with_latch t (fun () ->
        let w = t.written in
        let n = Vec.length w in
        let reclaimed = ref 0 and kept = ref 0 and i = ref 0 in
        while !i < n && !reclaimed < budget do
          let tid = Vec.get w !i in
          let v = Vec.get t.vers tid in
          if v.v_older != None then begin
            let v', k = trim_chain ~horizon v in
            if k > 0 then begin
              Vec.set t.vers tid v';
              reclaimed := !reclaimed + k
            end;
            if v'.v_older != None then begin
              Vec.set w !kept tid;
              incr kept
            end
          end;
          incr i
        done;
        let visited = !i in
        for j = visited to n - 1 do
          Vec.set w (!kept + j - visited) (Vec.get w j)
        done;
        Vec.truncate w (!kept + n - visited);
        t.chained <- t.chained - !reclaimed;
        if visited = n && !kept > t.chained then compact_written t;
        Obs.Counters.add c_gc_visited visited;
        purge_pending t;
        !reclaimed)

let chained_versions t = t.chained

let pending_dead_count t = Hashtbl.length t.pending_dead

(* Force every deferred de-index through immediately (schema rewrites
   that rebuild the index set must not leave ghost bindings whose rows
   have the old layout). *)
let flush_pending t =
  with_latch t (fun () ->
      Hashtbl.iter (fun tid row -> deindex_all t.indexes row tid) t.pending_dead;
      Hashtbl.reset t.pending_dead)

(* ------------------------------------------------------------------ *)

let tid_count t = Vec.length t.slots

let live_count t = t.live

let iter_live t f = scan t ~ts:max_int ~reader:latest f

let fold_live t ~init ~f =
  let acc = ref init in
  iter_live t (fun tid row -> acc := f !acc tid row);
  !acc

let add_index t idx =
  with_latch t (fun () ->
      let added = ref [] in
      (try
         iter_live t (fun tid row ->
             match Index.key_of_row idx row with
             | None -> ()
             | Some key ->
                 Index.insert idx key tid;
                 added := (key, tid) :: !added)
       with e ->
         List.iter (fun (key, tid) -> Index.remove idx key tid) !added;
         raise e);
      t.indexes <- idx :: t.indexes)

let drop_index t idx_name =
  with_latch t (fun () ->
      let before = List.length t.indexes in
      t.indexes <- List.filter (fun i -> Index.name i <> idx_name) t.indexes;
      List.length t.indexes < before)

(* Readers below must take the latch: [add_index]/[drop_index] mutate
   [t.indexes] under it.  (The mutations above pass the field to
   [index_all]/[deindex_all] directly because they already hold the
   latch.) *)

let indexes t = with_latch t (fun () -> t.indexes)

let find_index t idx_name =
  with_latch t (fun () -> List.find_opt (fun i -> Index.name i = idx_name) t.indexes)

let same_col_set a b =
  Array.length a = Array.length b
  &&
  let sort x = List.sort Int.compare (Array.to_list x) in
  List.equal Int.equal (sort a) (sort b)

let unique_index_on t cols =
  with_latch t (fun () ->
      List.find_opt
        (fun i -> Index.is_unique i && same_col_set (Index.key_cols i) cols)
        t.indexes)

let index_covering t cols =
  with_latch t (fun () ->
      List.find_opt (fun i -> same_col_set (Index.key_cols i) cols) t.indexes)
