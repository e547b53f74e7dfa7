type kind = Hash | Ordered

module Key = struct
  type t = Value.t array

  (* The loops below are top-level functions: a local [let rec] would
     allocate its closure on every call, and an ordered descent makes
     about [log2 n] of these calls.  Int/Int pairs, the common key
     component, skip the generic [Value] comparison; every other pair
     (mixed Int/Float included) falls back to it, so the order is
     exactly [Value.compare]'s. *)
  let[@inline] value_equal x y =
    match (x, y) with Value.Int a, Value.Int b -> Int.equal a b | _ -> Value.equal x y

  let[@inline] value_compare x y =
    match (x, y) with Value.Int a, Value.Int b -> Int.compare a b | _ -> Value.compare x y

  let rec equal_from a b i n =
    i >= n || (value_equal (Array.unsafe_get a i) (Array.unsafe_get b i) && equal_from a b (i + 1) n)

  let equal a b = Array.length a = Array.length b && equal_from a b 0 (Array.length a)

  let hash = Value.hash_key

  (* Lexicographic; a proper prefix sorts before its extensions. *)
  let rec compare_from a b i la lb =
    if i >= la then if i >= lb then 0 else -1
    else if i >= lb then 1
    else
      let c = value_compare (Array.unsafe_get a i) (Array.unsafe_get b i) in
      if c <> 0 then c else compare_from a b (i + 1) la lb

  let compare a b = compare_from a b 0 (Array.length a) (Array.length b)

  (* [key]'s first components equal [prefix]. *)
  let has_prefix key prefix =
    Array.length key >= Array.length prefix && equal_from key prefix 0 (Array.length prefix)
end

(* Array-chained hash table specialised for index cells: entry [e] lives
   in parallel arrays ([keys], [tids], [next]), buckets hold entry indices
   (-1 = empty), and deleted slots are threaded through [next] as a free
   list.  Two properties the stdlib [Hashtbl] cannot offer drive the bulk
   path: [find_or_add] probes and installs in a single bucket traversal,
   and an entry costs no per-entry heap blocks — no [Cons], no cell [ref]
   — so a bulk load neither pays allocation + minor-GC promotion per key
   nor grows the block count the major collector must trace forever
   after. *)
module Htab = struct
  type t = {
    arity1 : bool; (* single-column index: keys live unboxed in [vals] *)
    mutable buckets : int array; (* head entry index per bucket, -1 empty *)
    mutable next : int array; (* chain link, -1 end; free-list link for dead slots *)
    mutable vals : Value.t array; (* arity-1 key values; == [dummy_val] = dead slot *)
    mutable keys : Key.t array; (* multi-column keys; == [dummy_key] = dead slot *)
    mutable tid0 : int array; (* newest TID of the entry, stored unboxed *)
    mutable rest : int list array; (* older TIDs, [] in the common unique case *)
    mutable size : int; (* live entries *)
    mutable limit : int; (* high-water mark of allocated entry slots *)
    mutable free : int; (* free-list head, -1 none *)
  }

  (* Physically unique sentinels: real keys are distinct blocks, so [==]
     against these never aliases one. *)
  let dummy_key : Key.t = Array.make 1 Value.Null

  let dummy_val : Value.t = Value.Str "\000htab-dead-slot"

  let rec pow2_above x n =
    if x >= n || x * 2 > Sys.max_array_length then x else pow2_above (x * 2) n

  let create ~arity1 n =
    let cap = pow2_above 16 n in
    {
      arity1;
      buckets = Array.make cap (-1);
      next = Array.make cap (-1);
      vals = (if arity1 then Array.make cap dummy_val else [||]);
      keys = (if arity1 then [||] else Array.make cap dummy_key);
      tid0 = Array.make cap (-1);
      rest = Array.make cap [];
      size = 0;
      limit = 0;
      free = -1;
    }

  let num_buckets t = Array.length t.buckets

  let slot t key = Key.hash key land (Array.length t.buckets - 1)

  let dead t e = if t.arity1 then t.vals.(e) == dummy_val else t.keys.(e) == dummy_key

  let entry_hash t e = if t.arity1 then (17 * 31) + Value.hash t.vals.(e) else Key.hash t.keys.(e)

  (* Grow to [cap'] slots and rebuild the chains; dead slots are
     re-threaded onto the free list as we pass them. *)
  let grow_to t cap' =
    let limit = t.limit in
    let grown dummy arr =
      if Array.length arr = 0 then arr
      else begin
        let a = Array.make cap' dummy in
        Array.blit arr 0 a 0 limit;
        a
      end
    in
    t.vals <- grown dummy_val t.vals;
    t.keys <- grown dummy_key t.keys;
    let tid0 = Array.make cap' (-1) in
    Array.blit t.tid0 0 tid0 0 limit;
    t.tid0 <- tid0;
    let rest = Array.make cap' [] in
    Array.blit t.rest 0 rest 0 limit;
    t.rest <- rest;
    let buckets = Array.make cap' (-1) in
    let next = Array.make cap' (-1) in
    let mask = cap' - 1 in
    t.buckets <- buckets;
    t.free <- -1;
    for e = 0 to limit - 1 do
      if dead t e then begin
        next.(e) <- t.free;
        t.free <- e
      end
      else begin
        let s = entry_hash t e land mask in
        next.(e) <- buckets.(s);
        buckets.(s) <- e
      end
    done;
    t.next <- next

  let presize t n = if n > num_buckets t then grow_to t (pow2_above 16 n)

  (* Chain walks, top-level so a probe allocates no closure. *)
  let rec find1 vals next v e =
    if e < 0 || Key.value_equal (Array.unsafe_get vals e) v then e
    else find1 vals next v (Array.unsafe_get next e)

  let rec findn keys next key e =
    if e < 0 || Key.equal (Array.unsafe_get keys e) key then e
    else findn keys next key (Array.unsafe_get next e)

  let find_in t s key =
    if t.arity1 then find1 t.vals t.next key.(0) t.buckets.(s)
    else findn t.keys t.next key t.buckets.(s)

  let find_idx t key = find_in t (slot t key) key

  let alloc_entry t =
    if t.free >= 0 then begin
      let e = t.free in
      t.free <- t.next.(e);
      e
    end
    else begin
      let e = t.limit in
      t.limit <- e + 1;
      e
    end

  let install t s e =
    t.next.(e) <- t.buckets.(s);
    t.buckets.(s) <- e;
    t.size <- t.size + 1

  (* Single traversal: return the entry index of the existing binding for
     [key], or install a fresh entry for [tid] (copying multi-column keys
     when [copy]; arity-1 keys are stored unboxed, nothing to copy) and
     return -1. *)
  let find_or_add t key tid ~copy =
    if t.free < 0 && t.limit >= Array.length t.buckets then
      grow_to t (2 * Array.length t.buckets);
    let s = slot t key in
    let e = find_in t s key in
    if e >= 0 then e
    else begin
      let e = alloc_entry t in
      if t.arity1 then t.vals.(e) <- key.(0)
      else t.keys.(e) <- (if copy then Array.copy key else key);
      t.tid0.(e) <- tid;
      t.rest.(e) <- [];
      install t s e;
      -1
    end

  (* TID lists keep newest-first order (the entry's [tid0] is the newest)
     to match the classic [tid :: cell] consing the executor grew up
     with. *)
  let get_tids t e = t.tid0.(e) :: t.rest.(e)

  let set_tids t e tids =
    match tids with
    | [] -> invalid_arg "Htab.set_tids: empty (remove the entry instead)"
    | tid :: rest ->
        t.tid0.(e) <- tid;
        t.rest.(e) <- rest

  let push_tid t e tid =
    t.rest.(e) <- t.tid0.(e) :: t.rest.(e);
    t.tid0.(e) <- tid

  let remove t key =
    let s = slot t key in
    let rec unlink prev e =
      if e < 0 then ()
      else if
        if t.arity1 then Key.value_equal t.vals.(e) key.(0) else Key.equal t.keys.(e) key
      then begin
        if prev < 0 then t.buckets.(s) <- t.next.(e) else t.next.(prev) <- t.next.(e);
        if t.arity1 then t.vals.(e) <- dummy_val else t.keys.(e) <- dummy_key;
        t.tid0.(e) <- -1;
        t.rest.(e) <- [];
        t.next.(e) <- t.free;
        t.free <- e;
        t.size <- t.size - 1
      end
      else unlink e t.next.(e)
    in
    unlink (-1) t.buckets.(s)

  let reset t =
    let fresh = create ~arity1:t.arity1 16 in
    t.buckets <- fresh.buckets;
    t.next <- fresh.next;
    t.vals <- fresh.vals;
    t.keys <- fresh.keys;
    t.tid0 <- fresh.tid0;
    t.rest <- fresh.rest;
    t.size <- 0;
    t.limit <- 0;
    t.free <- -1
end

(* The ordered store: a mutable B+-tree.  Entries live in the leaves,
   sorted by [Key.compare], each key with its TID list (newest first);
   the leaves are linked both ways, so a range is one descent and then
   a walk along the leaf chain.  An inner node with [len] children holds
   [len - 1] separators: [keys.(i)] is a lower bound of child [i + 1]
   and above every key of child [i].  Inserting splits every full node
   on its way down, so an insert is one descent; a removal that empties
   a node unlinks it from its parent, so no walk ever crosses an empty
   leaf (nodes that are merely underfull stay as they are).

   The tree is mutable, so a reader racing a writer could see a leaf
   mid-split.  Every operation holds the tree's own latch: writers
   (which already hold their heap's latch) and readers alike.  The
   callbacks a read passes ([keep], the fold's [f]) run under it, so
   they must not write this index. *)
module Btree = struct
  let width = 32 (* entries per leaf and children per inner node, at most *)

  type node = {
    mutable len : int;
    keys : Key.t array;  (* leaf: entry keys; inner: separators *)
    tids : int list array;  (* leaf: each key's TIDs; inner: [||] *)
    kids : node array;  (* inner: children; leaf: [||] *)
    mutable next : node;  (* leaf chain; [nil] past either end *)
    mutable prev : node;
  }

  let rec nil = { len = 0; keys = [||]; tids = [||]; kids = [||]; next = nil; prev = nil }

  let no_key : Key.t = [||]

  let is_leaf n = Array.length n.kids = 0

  let new_leaf () =
    {
      len = 0;
      keys = Array.make width no_key;
      tids = Array.make width [];
      kids = [||];
      next = nil;
      prev = nil;
    }

  let new_inner () =
    {
      len = 0;
      keys = Array.make width no_key;
      tids = [||];
      kids = Array.make width nil;
      next = nil;
      prev = nil;
    }

  type t = {
    mutable root : node;
    mutable size : int;  (* distinct keys *)
    latch : Mutex.t;
    (* where the last [seek]/[descend] stopped: a leaf and a position *)
    mutable leaf : node;
    mutable pos : int;
  }

  let create () = { root = new_leaf (); size = 0; latch = Mutex.create (); leaf = nil; pos = 0 }

  let clear t =
    t.root <- new_leaf ();
    t.size <- 0

  (* First entry of leaf [n] at or above [key]. *)
  let rec lower_bound n key lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) lsr 1 in
      if Key.compare (Array.unsafe_get n.keys mid) key < 0 then lower_bound n key (mid + 1) hi
      else lower_bound n key lo mid

  (* Child of inner node [n] whose range holds [key]: the number of
     separators at or below it. *)
  let rec child_index n key lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) lsr 1 in
      if Key.compare key (Array.unsafe_get n.keys mid) < 0 then child_index n key lo mid
      else child_index n key (mid + 1) hi

  (* Put [right] at child position [i + 1] of [parent], [sep] before it. *)
  let insert_kid parent i sep right =
    let n = parent.len in
    Array.blit parent.kids (i + 1) parent.kids (i + 2) (n - i - 1);
    Array.blit parent.keys i parent.keys (i + 1) (n - 1 - i);
    parent.kids.(i + 1) <- right;
    parent.keys.(i) <- sep;
    parent.len <- n + 1

  (* Split the full child [i] of [parent] (which has room) in two. *)
  let split parent i child =
    let half = width / 2 in
    let m = child.len - half in
    if is_leaf child then begin
      let right = new_leaf () in
      Array.blit child.keys half right.keys 0 m;
      Array.blit child.tids half right.tids 0 m;
      Array.fill child.keys half m no_key;
      Array.fill child.tids half m [];
      right.len <- m;
      child.len <- half;
      right.next <- child.next;
      right.prev <- child;
      if child.next != nil then child.next.prev <- right;
      child.next <- right;
      insert_kid parent i right.keys.(0) right
    end
    else begin
      let right = new_inner () in
      Array.blit child.kids half right.kids 0 m;
      Array.blit child.keys half right.keys 0 (m - 1);
      let sep = child.keys.(half - 1) in
      Array.fill child.kids half m nil;
      Array.fill child.keys (half - 1) m no_key;
      right.len <- m;
      child.len <- half;
      insert_kid parent i sep right
    end

  (* The insert descent: split the root and every full node on the way
     down, so the leaf reached has room for one more entry.  Leaves
     [t.leaf]/[t.pos] at [key]'s slot and returns whether an entry with
     an equal key is already there. *)
  let descend t key =
    if t.root.len = width then begin
      let root = new_inner () in
      root.kids.(0) <- t.root;
      root.len <- 1;
      split root 0 t.root;
      t.root <- root
    end;
    let rec go n =
      if is_leaf n then n
      else
        let i = child_index n key 0 (n.len - 1) in
        let kid = n.kids.(i) in
        if kid.len = width then begin
          split n i kid;
          go (if Key.compare key n.keys.(i) < 0 then kid else n.kids.(i + 1))
        end
        else go kid
    in
    let leaf = go t.root in
    let p = lower_bound leaf key 0 leaf.len in
    t.leaf <- leaf;
    t.pos <- p;
    p < leaf.len && Key.compare leaf.keys.(p) key = 0

  (* After a [descend] that found no entry: add one at the slot. *)
  let add_at t key tids =
    let leaf = t.leaf and p = t.pos in
    let n = leaf.len in
    Array.blit leaf.keys p leaf.keys (p + 1) (n - p);
    Array.blit leaf.tids p leaf.tids (p + 1) (n - p);
    leaf.keys.(p) <- key;
    leaf.tids.(p) <- tids;
    leaf.len <- n + 1;
    t.size <- t.size + 1

  (* Position the cursor at the first entry at or above [key]
     ([t.leaf == nil] when there is none). *)
  let seek t key =
    let rec go n =
      if is_leaf n then n else go n.kids.(child_index n key 0 (n.len - 1))
    in
    let leaf = go t.root in
    let p = lower_bound leaf key 0 leaf.len in
    if p < leaf.len then begin
      t.leaf <- leaf;
      t.pos <- p
    end
    else begin
      t.leaf <- leaf.next;
      t.pos <- 0
    end

  let find t key =
    seek t key;
    if t.leaf != nil && Key.compare t.leaf.keys.(t.pos) key = 0 then t.leaf.tids.(t.pos)
    else []

  (* Drop entry [p] of [leaf], or child [i] of an inner node with the
     separator that bounded it. *)
  let drop_entry leaf p =
    let n = leaf.len in
    Array.blit leaf.keys (p + 1) leaf.keys p (n - p - 1);
    Array.blit leaf.tids (p + 1) leaf.tids p (n - p - 1);
    leaf.keys.(n - 1) <- no_key;
    leaf.tids.(n - 1) <- [];
    leaf.len <- n - 1

  let drop_kid n i =
    let len = n.len in
    Array.blit n.kids (i + 1) n.kids i (len - i - 1);
    n.kids.(len - 1) <- nil;
    if len > 1 then begin
      let s = max 0 (i - 1) in
      Array.blit n.keys (s + 1) n.keys s (len - 2 - s);
      n.keys.(len - 2) <- no_key
    end;
    n.len <- len - 1

  let unlink leaf =
    if leaf.prev != nil then leaf.prev.next <- leaf.next;
    if leaf.next != nil then leaf.next.prev <- leaf.prev

  (* Apply [update] to [key]'s entry: it returns the entry's new TID
     list, [[]] to drop the entry.  Nodes left empty are unlinked on the
     way back up; a root left with one child is replaced by it. *)
  let rec update_in t n key update =
    if is_leaf n then begin
      let p = lower_bound n key 0 n.len in
      if p < n.len && Key.compare n.keys.(p) key = 0 then begin
        match update n.tids.(p) with
        | [] ->
            drop_entry n p;
            t.size <- t.size - 1
        | tids ->
            n.keys.(p) <- key;
            n.tids.(p) <- tids
      end;
      n.len = 0
    end
    else begin
      let i = child_index n key 0 (n.len - 1) in
      let kid = n.kids.(i) in
      if update_in t kid key update then begin
        if is_leaf kid then unlink kid;
        drop_kid n i
      end;
      n.len = 0
    end

  let update t key f =
    if update_in t t.root key f then t.root <- new_leaf ()
    else
      while (not (is_leaf t.root)) && t.root.len = 1 do
        t.root <- t.root.kids.(0)
      done
end

type store =
  | S_hash of Htab.t
  | S_ordered of Btree.t

type t = {
  idx_name : string;
  cols : int array;
  unique : bool;
  store : store;
  mutable count : int;
}

let create ?(kind = Hash) ?(expected = 1024) ~name ~key_cols ~unique () =
  let store =
    match kind with
    | Hash -> S_hash (Htab.create ~arity1:(Array.length key_cols = 1) (max expected 16))
    | Ordered -> S_ordered (Btree.create ())
  in
  { idx_name = name; cols = key_cols; unique; store; count = 0 }

(* Swap in a pre-sized table (re-inserting whatever is already there) so a
   bulk load of [n] more entries never pays doubling rehashes. *)
let presize t n =
  match t.store with
  | S_ordered _ -> ()
  | S_hash tbl -> Htab.presize tbl (t.count + n)

let name t = t.idx_name

let kind t = match t.store with S_hash _ -> Hash | S_ordered _ -> Ordered

let key_cols t = t.cols

let is_unique t = t.unique

let key_of_row t row =
  let n = Array.length t.cols in
  let key = Array.make n Value.Null in
  let rec loop i =
    if i >= n then Some key
    else
      let v = row.(t.cols.(i)) in
      if Value.is_null v then None
      else begin
        key.(i) <- v;
        loop (i + 1)
      end
  in
  loop 0

let key_string key =
  String.concat ", " (Array.to_list (Array.map Value.to_string key))

let dup_error t key =
  Db_error.constraint_violation
    "duplicate key value violates unique constraint %S: key (%s) already exists"
    t.idx_name (key_string key)

(* The ordered store's operations hold its latch (see [Btree]).  They
   lock and unlock by hand, not through a closure, so an insert
   allocates nothing for it. *)
let unlock_raise (bt : Btree.t) e =
  Mutex.unlock bt.Btree.latch;
  raise e

let every_tid_live (_ : int) = true

(* One descent: find the key's entry or add one.  A unique index
   rejects an existing key when one of its TIDs is [live]; otherwise
   the TID joins the entry, and the entry keeps the key just written
   (as a [Map.add] over an equal key would). *)
let ordered_insert t bt ~copy ~live key tid =
  Mutex.lock bt.Btree.latch;
  match
    if Btree.descend bt key then begin
      let leaf = bt.Btree.leaf and p = bt.Btree.pos in
      let tids = leaf.Btree.tids.(p) in
      if t.unique && List.exists live tids then dup_error t key;
      leaf.Btree.keys.(p) <- (if copy then Array.copy key else key);
      leaf.Btree.tids.(p) <- tid :: tids
    end
    else Btree.add_at bt (if copy then Array.copy key else key) [ tid ]
  with
  | () ->
      Mutex.unlock bt.Btree.latch;
      t.count <- t.count + 1
  | exception e -> unlock_raise bt e

(* [copy] guards against callers retaining and mutating the key array;
   fresh-array callers (everything inside {!Heap}) use the owned variant
   to skip the defensive copy. *)
let insert_gen ~copy t key tid =
  match t.store with
  | S_hash tbl ->
      let e = Htab.find_or_add tbl key tid ~copy in
      if e < 0 then t.count <- t.count + 1
      else if t.unique then dup_error t key
      else begin
        Htab.push_tid tbl e tid;
        t.count <- t.count + 1
      end
  | S_ordered bt -> ordered_insert t bt ~copy ~live:every_tid_live key tid

let insert t key tid = insert_gen ~copy:true t key tid

let insert_owned t key tid = insert_gen ~copy:false t key tid

(* Deferred-de-index variant: a colliding unique key is a violation only
   when one of the entry's current TIDs is still [live]; dead TIDs (rows
   deleted but kept probe-able until GC) just gain a sibling. *)
let insert_live t ~live key tid =
  match t.store with
  | S_hash tbl ->
      let e = Htab.find_or_add tbl key tid ~copy:false in
      if e < 0 then t.count <- t.count + 1
      else begin
        if t.unique && List.exists live (Htab.get_tids tbl e) then dup_error t key;
        Htab.push_tid tbl e tid;
        t.count <- t.count + 1
      end
  | S_ordered bt -> ordered_insert t bt ~copy:false ~live key tid

(* Drop every occurrence of [tid], counting removals in the same pass
   (TIDs are ints: compare with [Int.equal], never polymorphically). *)
let remove_tid tids tid =
  let removed = ref 0 in
  let rest =
    List.filter
      (fun x ->
        if Int.equal x tid then begin
          incr removed;
          false
        end
        else true)
      tids
  in
  (rest, !removed)

let remove t key tid =
  match t.store with
  | S_hash tbl ->
      let e = Htab.find_idx tbl key in
      if e >= 0 then begin
        let rest, removed = remove_tid (Htab.get_tids tbl e) tid in
        t.count <- t.count - removed;
        if rest = [] then Htab.remove tbl key else Htab.set_tids tbl e rest
      end
  | S_ordered bt ->
      Mutex.lock bt.Btree.latch;
      Btree.update bt key (fun tids ->
          let rest, removed = remove_tid tids tid in
          t.count <- t.count - removed;
          rest);
      Mutex.unlock bt.Btree.latch

let c_probes = Obs.Counters.make "db.index.probes"

let c_collisions = Obs.Counters.make "db.index.collisions"

(* Probe count plus chain hops past the matching (or last) entry of the
   probed bucket, behind one [enabled] check — a disabled probe pays a
   single obs call. *)
let note_probe tbl key =
  if Obs.Counters.enabled () then begin
    Obs.Counters.bump c_probes;
    let rec len e acc = if e < 0 then acc else len tbl.Htab.next.(e) (acc + 1) in
    let chain = len tbl.Htab.buckets.(Htab.slot tbl key) 0 in
    if chain > 1 then Obs.Counters.add c_collisions (chain - 1)
  end

let ordered_find bt key =
  Obs.Counters.bump c_probes;
  Mutex.lock bt.Btree.latch;
  let tids = Btree.find bt key in
  Mutex.unlock bt.Btree.latch;
  tids

let find t key =
  match t.store with
  | S_hash tbl ->
      note_probe tbl key;
      let e = Htab.find_idx tbl key in
      if e >= 0 then Htab.get_tids tbl e else []
  | S_ordered bt -> ordered_find bt key

let mem t key =
  match t.store with
  | S_hash tbl ->
      note_probe tbl key;
      Htab.find_idx tbl key >= 0
  | S_ordered bt -> ordered_find bt key <> []

let entry_count t = t.count

let rec ascending = function
  | a :: (b :: _ as rest) -> a <= b && ascending rest
  | _ -> true

let rec descending = function
  | a :: (b :: _ as rest) -> a >= b && descending rest
  | _ -> true

(* A probe's TIDs are mostly in order already: a point probe's one TID,
   or a range over keys written in TID order, which the range callers
   collect newest first.  An ascending list is walked as it is; any
   other is copied to an array (a word a TID, where a list reversal or
   sort would cost a cons a TID per pass), which a descending list is
   walked from its end and a mixed one is sorted in. *)
let iter_sorted_tids f tids =
  if ascending tids then List.iter f tids
  else
    let a = Array.of_list tids in
    if descending tids then
      for i = Array.length a - 1 downto 0 do
        f (Array.unsafe_get a i)
      done
    else begin
      Array.sort Int.compare a;
      Array.iter f a
    end

type stats = {
  s_entries : int;  (** TID entries (duplicates counted) *)
  s_keys : int;  (** distinct keys *)
  s_buckets : int;  (** 0 on ordered indexes *)
  s_max_chain : int;
  s_load : float;  (** keys per bucket; 0 on ordered indexes *)
}

let stats t =
  match t.store with
  | S_ordered bt ->
      {
        s_entries = t.count;
        s_keys = bt.Btree.size;
        s_buckets = 0;
        s_max_chain = 0;
        s_load = 0.0;
      }
  | S_hash tbl ->
      let nb = Htab.num_buckets tbl in
      let max_chain = ref 0 in
      for s = 0 to nb - 1 do
        let rec len e acc = if e < 0 then acc else len tbl.Htab.next.(e) (acc + 1) in
        max_chain := max !max_chain (len tbl.Htab.buckets.(s) 0)
      done;
      {
        s_entries = t.count;
        s_keys = tbl.Htab.size;
        s_buckets = nb;
        s_max_chain = !max_chain;
        s_load = float_of_int tbl.Htab.size /. float_of_int (max 1 nb);
      }

let clear t =
  (match t.store with
  | S_hash tbl -> Htab.reset tbl
  | S_ordered bt ->
      Mutex.lock bt.Btree.latch;
      Btree.clear bt;
      Mutex.unlock bt.Btree.latch);
  t.count <- 0

(* ------------------------------------------------------------------ *)
(* Ordered operations                                                  *)
(* ------------------------------------------------------------------ *)

(* Each one seeks under the latch, then walks the leaf chain from the
   cursor; the walks are top-level loops over (leaf, position). *)
let ordered_exn t op =
  match t.store with
  | S_ordered bt -> bt
  | S_hash _ ->
      invalid_arg (Printf.sprintf "Index.%s: %S is a hash index" op t.idx_name)

let entry_kept keep tids =
  match keep with None -> true | Some f -> List.exists f tids

let rec first_kept keep prefix (leaf : Btree.node) p =
  if leaf == Btree.nil then None
  else if p >= leaf.Btree.len then first_kept keep prefix leaf.Btree.next 0
  else
    let k = leaf.Btree.keys.(p) in
    if not (Key.has_prefix k prefix) then None
    else if entry_kept keep leaf.Btree.tids.(p) then Some (k, leaf.Btree.tids.(p))
    else first_kept keep prefix leaf (p + 1)

(* [bl]/[bp]: the last kept entry seen so far ([Btree.nil] for none). *)
let rec last_kept keep prefix (bl : Btree.node) bp (leaf : Btree.node) p =
  if leaf == Btree.nil then
    if bl == Btree.nil then None else Some (bl.Btree.keys.(bp), bl.Btree.tids.(bp))
  else if p >= leaf.Btree.len then last_kept keep prefix bl bp leaf.Btree.next 0
  else if not (Key.has_prefix leaf.Btree.keys.(p) prefix) then
    last_kept keep prefix bl bp Btree.nil 0
  else if entry_kept keep leaf.Btree.tids.(p) then last_kept keep prefix leaf p leaf (p + 1)
  else last_kept keep prefix bl bp leaf (p + 1)

(* Keys extending [prefix] in order; the component after the prefix
   must satisfy [lo <= v < hi].  A key equal to the prefix passes [hi]
   but fails a [lo]. *)
let rec fold_from prefix plen lo hi f acc (leaf : Btree.node) p =
  if leaf == Btree.nil then acc
  else if p >= leaf.Btree.len then fold_from prefix plen lo hi f acc leaf.Btree.next 0
  else
    let k = leaf.Btree.keys.(p) in
    if not (Key.has_prefix k prefix) then acc
    else
      let longer = Array.length k > plen in
      let below_hi =
        match hi with None -> true | Some h -> (not longer) || Key.value_compare k.(plen) h < 0
      in
      if not below_hi then acc
      else
        let above_lo =
          match lo with None -> true | Some l -> longer && Key.value_compare k.(plen) l >= 0
        in
        let acc = if above_lo then f acc k leaf.Btree.tids.(p) else acc in
        fold_from prefix plen lo hi f acc leaf (p + 1)

(* The prefix itself sorts before all of its extensions; keys whose
   every TID fails [keep] are transparent (dead entries pending GC). *)
let min_with_prefix ?keep t prefix =
  let bt = ordered_exn t "min_with_prefix" in
  Mutex.lock bt.Btree.latch;
  match
    Btree.seek bt prefix;
    first_kept keep prefix bt.Btree.leaf bt.Btree.pos
  with
  | hit ->
      Mutex.unlock bt.Btree.latch;
      hit
  | exception e -> unlock_raise bt e

let max_with_prefix ?keep t prefix =
  let bt = ordered_exn t "max_with_prefix" in
  Mutex.lock bt.Btree.latch;
  match
    Btree.seek bt prefix;
    last_kept keep prefix Btree.nil 0 bt.Btree.leaf bt.Btree.pos
  with
  | hit ->
      Mutex.unlock bt.Btree.latch;
      hit
  | exception e -> unlock_raise bt e

let fold_prefix_range t ~prefix ?lo ?hi ~init ~f () =
  let bt = ordered_exn t "fold_prefix_range" in
  let start = match lo with None -> prefix | Some v -> Array.append prefix [| v |] in
  Mutex.lock bt.Btree.latch;
  match
    Btree.seek bt start;
    fold_from prefix (Array.length prefix) lo hi f init bt.Btree.leaf bt.Btree.pos
  with
  | acc ->
      Mutex.unlock bt.Btree.latch;
      acc
  | exception e -> unlock_raise bt e
