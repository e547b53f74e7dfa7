type write =
  | W_insert of string * int * Value.t array
  | W_delete of string * int
  | W_update of string * int * Value.t array

type migration_mark = {
  mig_id : int;
  mig_table : string;
  granule : granule_key;
}

and granule_key = G_tid of int | G_group of Value.t array

type record = {
  txn_id : int;
  commit_ts : int;  (* MVCC commit timestamp; 0 for pre-MVCC/synthetic records *)
  writes : write list;
  marks : migration_mark list;
}

type mig_start = {
  ms_spec : string;
  ms_on_conflict : bool;
  ms_page_size : int;
  ms_nn_join_key : bool;
  ms_fk_class : bool;
}

type mig_rollback = {
  mr_rb_id : int;
  mr_backward : string;
  mr_ceilings : (string * int) list;
}

type entry =
  | E_ddl of { d_epoch : int; d_sql : string }
  | E_commit of record
  | E_prepare of { p_gid : string; p_record : record }
  | E_decision of { dc_gid : string; dc_commit : bool; dc_ts : int }
  | E_migration of { mg_id : int; mg_step : lifecycle }

and lifecycle =
  | M_start of mig_start
  | M_rollback of mig_rollback
  | M_finalize of string list
  | M_end

type t = {
  entries : entry Vec.t;
  latch : Mutex.t;
  mutable commits : int;  (* E_commit entries currently in the log *)
  mutable truncated : int;  (* entries dropped by checkpoints, cumulative *)
}

let create () =
  { entries = Vec.create (); latch = Mutex.create (); commits = 0; truncated = 0 }

let with_latch t f =
  Mutex.lock t.latch;
  match f () with
  | v ->
      Mutex.unlock t.latch;
      v
  | exception e ->
      Mutex.unlock t.latch;
      raise e

let c_appends = Obs.Counters.make "db.redo.appends"

let c_ddl_appends = Obs.Counters.make "db.redo.ddl_appends"

let c_append_writes = Obs.Counters.make "db.redo.append_writes"

let c_checkpoints = Obs.Counters.make "db.redo.checkpoints"

let c_serialized_bytes = Obs.Counters.make "db.redo.serialized_bytes"

let append t r =
  Obs.Counters.bump c_appends;
  if Obs.Counters.enabled () then
    Obs.Counters.add c_append_writes (List.length r.writes);
  with_latch t (fun () ->
      Vec.push t.entries (E_commit r);
      t.commits <- t.commits + 1)

let append_ddl t ~epoch sql =
  Obs.Counters.bump c_ddl_appends;
  with_latch t (fun () -> Vec.push t.entries (E_ddl { d_epoch = epoch; d_sql = sql }))

let c_prepares = Obs.Counters.make "db.redo.prepares"

let c_decisions = Obs.Counters.make "db.redo.decisions"

let append_prepare t ~gid r =
  Obs.Counters.bump c_prepares;
  with_latch t (fun () -> Vec.push t.entries (E_prepare { p_gid = gid; p_record = r }))

let append_decision t ~gid ~commit ~ts =
  Obs.Counters.bump c_decisions;
  with_latch t (fun () ->
      Vec.push t.entries (E_decision { dc_gid = gid; dc_commit = commit; dc_ts = ts }))

let append_lifecycle t ~mig_id step =
  with_latch t (fun () ->
      Vec.push t.entries (E_migration { mg_id = mig_id; mg_step = step }))

(* Decisions by gid, later entries winning (there is at most one per gid
   in practice).  Used by the cluster coordinator's in-doubt resolution. *)
let decisions t =
  List.filter_map
    (function
      | E_decision { dc_gid; dc_commit; dc_ts } -> Some (dc_gid, dc_commit, dc_ts)
      | E_ddl _ | E_commit _ | E_prepare _ | E_migration _ -> None)
    (with_latch t (fun () -> Vec.to_list t.entries))

let length t = with_latch t (fun () -> t.commits)

let entry_count t = with_latch t (fun () -> Vec.length t.entries)

let truncated t = with_latch t (fun () -> t.truncated)

(* Reads take a snapshot under the latch and iterate outside it, so a
   concurrent [append] can neither race the underlying Vec resize nor
   deadlock against a reader that appends from its callback. *)
let entries t = with_latch t (fun () -> Vec.to_list t.entries)

let records t =
  List.filter_map
    (function
      | E_commit r -> Some r
      | E_ddl _ | E_prepare _ | E_decision _ | E_migration _ -> None)
    (entries t)

let iter t f = List.iter f (records t)

(* The newest migration's id and records: the last start and every later
   record carrying its id. *)
let newest_lifecycle entries =
  List.fold_left
    (fun acc -> function
      | E_migration { mg_id; mg_step = M_start _ as step } -> Some (mg_id, [ step ])
      | E_migration { mg_id; mg_step } -> (
          match acc with
          | Some (id, steps) when id = mg_id -> Some (id, mg_step :: steps)
          | _ -> acc)
      | E_ddl _ | E_commit _ | E_prepare _ | E_decision _ -> acc)
    None entries
  |> Option.map (fun (id, steps) -> (id, List.rev steps))

let lifecycle t = newest_lifecycle (entries t)

let max_mig_id t =
  let of_record r =
    List.fold_left (fun acc (m : migration_mark) -> max acc m.mig_id) 0 r.marks
  in
  List.fold_left
    (fun acc -> function
      | E_commit r | E_prepare { p_record = r; _ } -> max acc (of_record r)
      | E_migration { mg_id; mg_step = M_rollback { mr_rb_id; _ } } ->
          max acc (max mg_id mr_rb_id)
      | E_migration { mg_id; _ } -> max acc mg_id
      | E_ddl _ | E_decision _ -> acc)
    0 (entries t)

(* Truncate the log.  The heaps themselves are the checkpoint image in
   this in-memory model, so replayable history can be dropped wholesale —
   except migration state, whose only durable home is the log: the
   records of a migration with no end survive as they are, and the marks
   are folded into one synthetic record (txn_id 0) so tracker rebuild
   keeps working after the checkpoint.  Returns the number of entries
   dropped. *)
let checkpoint t =
  Obs.Counters.bump c_checkpoints;
  with_latch t (fun () ->
      let dropped = Vec.length t.entries in
      let marks = ref [] in
      Vec.iter
        (function
          | E_commit r -> marks := List.rev_append r.marks !marks
          | E_ddl _ | E_prepare _ | E_decision _ | E_migration _ -> ())
        t.entries;
      let open_records =
        match newest_lifecycle (Vec.to_list t.entries) with
        | Some (mg_id, steps) when not (List.mem M_end steps) ->
            List.map (fun mg_step -> E_migration { mg_id; mg_step }) steps
        | Some _ | None -> []
      in
      Vec.clear t.entries;
      t.commits <- 0;
      t.truncated <- t.truncated + dropped;
      List.iter (Vec.push t.entries) open_records;
      (match List.rev !marks with
      | [] -> ()
      | marks ->
          Vec.push t.entries (E_commit { txn_id = 0; commit_ts = 0; writes = []; marks });
          t.commits <- 1);
      dropped)

(* ------------------------------------------------------------------ *)
(* Binary serialization                                                *)
(* ------------------------------------------------------------------ *)

(* Fixed-width little-endian format.  Floats and timestamps are stored as
   their IEEE-754 bit patterns so a serialize/deserialize round trip is
   bit-exact (no decimal shortest-representation detour). *)

(* BFRL2 added the per-commit MVCC timestamp, BFRL3 the two-phase commit
   entries (prepare records and coordinator decisions), BFRL4 the
   migration lifecycle records.  Every older format is still readable:
   BFRL1 logs (no commit_ts field) re-stamp from a fresh clock on replay,
   and an older log simply holds none of the later entry kinds. *)
let magic = "BFRL4\n"

let magic_v3 = "BFRL3\n"

let magic_v2 = "BFRL2\n"

let magic_v1 = "BFRL1\n"

let put_int buf i = Buffer.add_int64_le buf (Int64.of_int i)

let put_str buf s =
  put_int buf (String.length s);
  Buffer.add_string buf s

let put_value buf (v : Value.t) =
  match v with
  | Value.Null -> Buffer.add_char buf '\000'
  | Value.Int i ->
      Buffer.add_char buf '\001';
      put_int buf i
  | Value.Float f ->
      Buffer.add_char buf '\002';
      Buffer.add_int64_le buf (Int64.bits_of_float f)
  | Value.Str s ->
      Buffer.add_char buf '\003';
      put_str buf s
  | Value.Bool b ->
      Buffer.add_char buf '\004';
      Buffer.add_char buf (if b then '\001' else '\000')
  | Value.Date d ->
      Buffer.add_char buf '\005';
      put_int buf d
  | Value.Timestamp ts ->
      Buffer.add_char buf '\006';
      Buffer.add_int64_le buf (Int64.bits_of_float ts)

let put_row buf row =
  put_int buf (Array.length row);
  Array.iter (put_value buf) row

let put_write buf = function
  | W_insert (tbl, tid, row) ->
      Buffer.add_char buf '\000';
      put_str buf tbl;
      put_int buf tid;
      put_row buf row
  | W_delete (tbl, tid) ->
      Buffer.add_char buf '\001';
      put_str buf tbl;
      put_int buf tid
  | W_update (tbl, tid, row) ->
      Buffer.add_char buf '\002';
      put_str buf tbl;
      put_int buf tid;
      put_row buf row

let put_mark buf m =
  put_int buf m.mig_id;
  put_str buf m.mig_table;
  match m.granule with
  | G_tid g ->
      Buffer.add_char buf '\000';
      put_int buf g
  | G_group key ->
      Buffer.add_char buf '\001';
      put_row buf key

let put_record buf r =
  put_int buf r.txn_id;
  put_int buf r.commit_ts;
  put_int buf (List.length r.writes);
  List.iter (put_write buf) r.writes;
  put_int buf (List.length r.marks);
  List.iter (put_mark buf) r.marks

let put_bool buf b = Buffer.add_char buf (if b then '\001' else '\000')

let put_list buf f l =
  put_int buf (List.length l);
  List.iter (f buf) l

let put_lifecycle buf = function
  | M_start s ->
      Buffer.add_char buf '\000';
      put_str buf s.ms_spec;
      put_bool buf s.ms_on_conflict;
      put_int buf s.ms_page_size;
      put_bool buf s.ms_nn_join_key;
      put_bool buf s.ms_fk_class
  | M_rollback r ->
      Buffer.add_char buf '\001';
      put_int buf r.mr_rb_id;
      put_str buf r.mr_backward;
      put_list buf
        (fun buf (table, ceiling) ->
          put_str buf table;
          put_int buf ceiling)
        r.mr_ceilings
  | M_finalize drops ->
      Buffer.add_char buf '\002';
      put_list buf put_str drops
  | M_end -> Buffer.add_char buf '\003'

let put_entry buf = function
  | E_ddl { d_epoch; d_sql } ->
      Buffer.add_char buf '\000';
      put_int buf d_epoch;
      put_str buf d_sql
  | E_commit r ->
      Buffer.add_char buf '\001';
      put_record buf r
  | E_prepare { p_gid; p_record } ->
      Buffer.add_char buf '\002';
      put_str buf p_gid;
      put_record buf p_record
  | E_decision { dc_gid; dc_commit; dc_ts } ->
      Buffer.add_char buf '\003';
      put_str buf dc_gid;
      put_bool buf dc_commit;
      put_int buf dc_ts
  | E_migration { mg_id; mg_step } ->
      Buffer.add_char buf '\004';
      put_int buf mg_id;
      put_lifecycle buf mg_step

let serialize t =
  let snapshot, truncated =
    with_latch t (fun () -> (Vec.to_list t.entries, t.truncated))
  in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf magic;
  put_int buf truncated;
  put_int buf (List.length snapshot);
  List.iter (put_entry buf) snapshot;
  Obs.Counters.add c_serialized_bytes (Buffer.length buf);
  Buffer.contents buf

(* Deserialization: a mutable cursor over the string; any structural
   mismatch raises [Failure]. *)

type cursor = { data : string; mutable pos : int }

let fail_corrupt what = failwith (Printf.sprintf "Redo_log.deserialize: corrupt %s" what)

let get_byte c =
  if c.pos >= String.length c.data then fail_corrupt "byte";
  let b = c.data.[c.pos] in
  c.pos <- c.pos + 1;
  Char.code b

let get_int64 c =
  if c.pos + 8 > String.length c.data then fail_corrupt "int64";
  let v = String.get_int64_le c.data c.pos in
  c.pos <- c.pos + 8;
  v

let get_int c = Int64.to_int (get_int64 c)

let get_str c =
  let n = get_int c in
  if n < 0 || c.pos + n > String.length c.data then fail_corrupt "string";
  let s = String.sub c.data c.pos n in
  c.pos <- c.pos + n;
  s

let get_value c : Value.t =
  match get_byte c with
  | 0 -> Value.Null
  | 1 -> Value.Int (get_int c)
  | 2 -> Value.Float (Int64.float_of_bits (get_int64 c))
  | 3 -> Value.Str (get_str c)
  | 4 -> Value.Bool (get_byte c <> 0)
  | 5 -> Value.Date (get_int c)
  | 6 -> Value.Timestamp (Int64.float_of_bits (get_int64 c))
  | _ -> fail_corrupt "value tag"

let get_row c =
  let n = get_int c in
  if n < 0 then fail_corrupt "row arity";
  Array.init n (fun _ -> get_value c)

let get_write c =
  match get_byte c with
  | 0 ->
      let tbl = get_str c in
      let tid = get_int c in
      W_insert (tbl, tid, get_row c)
  | 1 ->
      let tbl = get_str c in
      W_delete (tbl, get_int c)
  | 2 ->
      let tbl = get_str c in
      let tid = get_int c in
      W_update (tbl, tid, get_row c)
  | _ -> fail_corrupt "write tag"

let get_mark c =
  let mig_id = get_int c in
  let mig_table = get_str c in
  let granule =
    match get_byte c with
    | 0 -> G_tid (get_int c)
    | 1 -> G_group (get_row c)
    | _ -> fail_corrupt "granule tag"
  in
  { mig_id; mig_table; granule }

let get_list c f =
  let n = get_int c in
  if n < 0 then fail_corrupt "list length";
  List.init n (fun _ -> f c)

let get_record ~version c =
  let txn_id = get_int c in
  let commit_ts = if version >= 2 then get_int c else 0 in
  let writes = get_list c get_write in
  let marks = get_list c get_mark in
  { txn_id; commit_ts; writes; marks }

let get_lifecycle c =
  match get_byte c with
  | 0 ->
      let ms_spec = get_str c in
      let ms_on_conflict = get_byte c <> 0 in
      let ms_page_size = get_int c in
      let ms_nn_join_key = get_byte c <> 0 in
      let ms_fk_class = get_byte c <> 0 in
      M_start { ms_spec; ms_on_conflict; ms_page_size; ms_nn_join_key; ms_fk_class }
  | 1 ->
      let mr_rb_id = get_int c in
      let mr_backward = get_str c in
      let mr_ceilings =
        get_list c (fun c ->
            let table = get_str c in
            (table, get_int c))
      in
      M_rollback { mr_rb_id; mr_backward; mr_ceilings }
  | 2 -> M_finalize (get_list c get_str)
  | 3 -> M_end
  | _ -> fail_corrupt "lifecycle tag"

let get_entry ~version c =
  match get_byte c with
  | 0 ->
      let d_epoch = get_int c in
      E_ddl { d_epoch; d_sql = get_str c }
  | 1 -> E_commit (get_record ~version c)
  | 2 when version >= 3 ->
      let p_gid = get_str c in
      E_prepare { p_gid; p_record = get_record ~version c }
  | 3 when version >= 3 ->
      let dc_gid = get_str c in
      let dc_commit = get_byte c <> 0 in
      E_decision { dc_gid; dc_commit; dc_ts = get_int c }
  | 4 when version >= 4 ->
      let mg_id = get_int c in
      E_migration { mg_id; mg_step = get_lifecycle c }
  | _ -> fail_corrupt "entry tag"

let deserialize data =
  let c = { data; pos = 0 } in
  let m = String.length magic in
  let header = if String.length data >= m then String.sub data 0 m else "" in
  let version =
    if header = magic then 4
    else if header = magic_v3 then 3
    else if header = magic_v2 then 2
    else if header = magic_v1 then 1
    else fail_corrupt "magic header"
  in
  c.pos <- m;
  let truncated = get_int c in
  let n = get_int c in
  if n < 0 then fail_corrupt "entry count";
  let t = create () in
  t.truncated <- truncated;
  for _ = 1 to n do
    let e = get_entry ~version c in
    Vec.push t.entries e;
    match e with
    | E_commit _ -> t.commits <- t.commits + 1
    | E_ddl _ | E_prepare _ | E_decision _ | E_migration _ -> ()
  done;
  if c.pos <> String.length data then fail_corrupt "trailing bytes";
  t

let write_file t path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (serialize t))

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> deserialize (really_input_string ic (in_channel_length ic)))
