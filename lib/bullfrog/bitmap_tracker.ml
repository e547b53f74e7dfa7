(* Each granule owns 2 bits packed 4-per-byte: bit 0 = lock, bit 1 =
   migrate.  Status reads and the free-granule scan take no latch (safe:
   one byte, and a stale read only sends the worker to [try_acquire],
   which re-reads under the latch, or round the SKIP loop); every state
   change takes the chunk latch. *)

type t = {
  bits : Bytes.t;
  page : int;
  granules : int;
  latches : Striped_mutex.t;
  migrated_count : int Atomic.t;
}

let granules_per_byte = 4

let chunk_granules = 1024 (* granules sharing one latch stripe key *)

(* Word-level scan constants: one 64-bit word covers 32 granules. *)
let word_bytes = 8

let granules_per_word = granules_per_byte * word_bytes

(* A 2-bit granule slot is "settled" when either bit is set (migrated or
   in progress); a word is fully settled when every slot is. *)
let settled_mask = 0x5555_5555_5555_5555L

(* popcount of the lock bits (even positions) of one bitmap byte *)
let lock_popcount =
  Array.init 256 (fun b ->
      let rec pop v = if v = 0 then 0 else (v land 1) + pop (v lsr 2) in
      pop (b land 0x55))

let create ?(page_size = 1) ?(stripes = 64) ~size () =
  if page_size <= 0 then invalid_arg "Bitmap_tracker.create: page_size";
  let granules = if size = 0 then 0 else ((size - 1) / page_size) + 1 in
  let nbytes = (granules / granules_per_byte) + 1 in
  {
    bits = Bytes.make nbytes '\000';
    page = page_size;
    granules;
    latches = Striped_mutex.create stripes;
    migrated_count = Atomic.make 0;
  }

let page_size t = t.page

let granule_of_tid t tid = tid / t.page

let granule_count t = t.granules

let check_bounds t g =
  if g < 0 || g >= t.granules then
    invalid_arg (Printf.sprintf "Bitmap_tracker: granule %d out of [0,%d)" g t.granules)

let lock_mask g = 1 lsl ((g mod granules_per_byte) * 2)

let migrate_mask g = 2 lsl ((g mod granules_per_byte) * 2)

let byte_of t g = Char.code (Bytes.unsafe_get t.bits (g / granules_per_byte))

let set_byte t g v = Bytes.unsafe_set t.bits (g / granules_per_byte) (Char.chr v)

let chunk_of g = g / chunk_granules

let with_latch t g f = Striped_mutex.with_stripe t.latches (chunk_of g) f

let is_migrated t g =
  check_bounds t g;
  byte_of t g land migrate_mask g <> 0

let is_in_progress t g =
  check_bounds t g;
  byte_of t g land lock_mask g <> 0

(* Apply [body] to each granule of [gs] in input order, taking each
   chunk's latch once per maximal consecutive same-chunk segment of the
   input (a sorted list of up to [chunk_granules] granules takes exactly
   one latch).  Allocation-free: segments are consumed in place from the
   input list, never rebuilt.  Latches are never nested. *)
let iter_chunk_segments t gs body =
  let rec start = function
    | [] -> ()
    | g0 :: _ as gs ->
        let chunk = chunk_of g0 in
        let rest =
          with_latch t g0 (fun () ->
              let rec go = function
                | g :: rest when chunk_of g = chunk ->
                    check_bounds t g;
                    body g;
                    go rest
                | rest -> rest
              in
              go gs)
        in
        start rest
  in
  start gs

let try_acquire t gs =
  let out = ref [] in
  iter_chunk_segments t gs (fun g ->
      let b = byte_of t g in
      (* A [1 1] state would mean a granule both in progress and migrated. *)
      assert (b land lock_mask g = 0 || b land migrate_mask g = 0);
      let d : Tracker.decision =
        if b land migrate_mask g <> 0 then Already_migrated
        else if b land lock_mask g <> 0 then Skip
        else begin
          set_byte t g (b lor lock_mask g);
          Migrate
        end
      in
      out := d :: !out);
  List.rev !out

(* The count is published even when a granule mid-list raises: the flips
   before it are kept, so they must be counted or [complete] never holds. *)
let mark_migrated t gs =
  let n = ref 0 in
  Fun.protect
    ~finally:(fun () -> ignore (Atomic.fetch_and_add t.migrated_count !n : int))
    (fun () ->
      iter_chunk_segments t gs (fun g ->
          let b = byte_of t g in
          if b land migrate_mask g <> 0 then
            invalid_arg
              (Printf.sprintf "Bitmap_tracker.mark_migrated: granule %d already migrated" g);
          set_byte t g ((b land lnot (lock_mask g)) lor migrate_mask g);
          incr n))

let mark_aborted t gs =
  iter_chunk_segments t gs (fun g ->
      let b = byte_of t g in
      assert (b land migrate_mask g = 0);
      set_byte t g (b land lnot (lock_mask g)))

let force_migrated t g =
  check_bounds t g;
  with_latch t g (fun () ->
      let b = byte_of t g in
      if b land migrate_mask g = 0 then begin
        set_byte t g ((b land lnot (lock_mask g)) lor migrate_mask g);
        Atomic.incr t.migrated_count
      end)

(* Lock bits can only be set on granules < [t.granules], so counting whole
   bytes (including the trailing padding slots) is safe. *)
let stats t =
  let migrated = Atomic.get t.migrated_count in
  let in_progress = ref 0 in
  let bits = t.bits in
  let nbytes = Bytes.length bits in
  let add_byte j =
    in_progress := !in_progress + lock_popcount.(Char.code (Bytes.unsafe_get bits j))
  in
  let i = ref 0 in
  while !i + word_bytes <= nbytes do
    if not (Int64.equal (Bytes.get_int64_ne bits !i) 0L) then
      for j = !i to !i + word_bytes - 1 do
        add_byte j
      done;
    i := !i + word_bytes
  done;
  while !i < nbytes do
    add_byte !i;
    incr i
  done;
  { Tracker.total = t.granules; migrated; in_progress = !in_progress }

let complete t = Atomic.get t.migrated_count >= t.granules

(* Runs are maximal stretches of "open" granules.  A free run ([~pending:
   false], the background migrator's) stops at any set bit, in progress
   or migrated; a pending run ([~pending:true], the candidate scan's)
   stops only at migrated granules, so in-progress granules stay
   candidates and their requests still SKIP-wait. *)
let slot_open ~pending t g =
  let closing = if pending then migrate_mask g else migrate_mask g lor lock_mask g in
  byte_of t g land closing = 0

(* One lock-position bit per closed slot of an 8-byte word. *)
let[@inline] closed_slots ~pending w =
  let migrate = Int64.shift_right_logical w 1 in
  Int64.logand (if pending then migrate else Int64.logor w migrate) settled_mask

(* Word-level run finder: skip fully closed 8-byte words (32 granules per
   probe) to the first open granule at or after [from], then extend
   through fully open words, stopping at a closed granule or after
   [max_len] granules — so one call costs O(max_len / 32) word probes
   beyond the skipped prefix, however long the open region is.  Reads
   are unlatched — a stale word only makes the caller re-check a granule
   under the latch in [try_acquire].  Skips are tallied locally and
   published with one [add] per call: one obs call per word would
   dominate the 1-2 ns word test itself. *)
let c_word_skips = Obs.Counters.make "core.bitmap.word_skips"

let next_run ~pending t ~from ~max_len =
  if max_len < 1 then invalid_arg "Bitmap_tracker: run length cap must be positive";
  let bits = t.bits in
  let nbytes = Bytes.length bits in
  let byte_idx g = g / granules_per_byte in
  (* [g] starts a whole word that lies inside the byte array *)
  let at_word g = g land (granules_per_word - 1) = 0 && byte_idx g + word_bytes <= nbytes in
  let word_is g mask =
    Int64.equal (closed_slots ~pending (Bytes.get_int64_ne bits (byte_idx g))) mask
  in
  let skips = ref 0 in
  let rec find g =
    if g >= t.granules then None
    else if at_word g && word_is g settled_mask then begin
      incr skips;
      find (g + granules_per_word)
    end
    else if slot_open ~pending t g then Some g
    else find (g + 1)
  in
  let result =
    match find (max from 0) with
    | None -> None
    | Some start ->
        let limit = if max_len >= t.granules - start then t.granules else start + max_len in
        let rec extend g =
          if g >= limit then limit
          else if at_word g && word_is g 0L then begin
            incr skips;
            extend (g + granules_per_word)
          end
          else if slot_open ~pending t g then extend (g + 1)
          else g
        in
        (* a whole-word step may overshoot the cap or poke into the
           padding of the last word; clamp *)
        Some (start, min (extend (start + 1)) limit - start)
  in
  if !skips > 0 then Obs.Counters.add c_word_skips !skips;
  result

let next_unmigrated_run ?(max_len = max_int) t ~from = next_run ~pending:false t ~from ~max_len

let pending_tids t tid =
  let g = tid / t.page in
  if g >= t.granules then Some (tid, max_int)
  else
    match next_run ~pending:true t ~from:g ~max_len:max_int with
    | Some (start, len) -> Some (max tid (start * t.page), (start + len) * t.page)
    | None -> Some (t.granules * t.page, max_int)
