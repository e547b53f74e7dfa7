open Bullfrog_db

type key = Value.t array

type state = In_progress | Migrated | Aborted

module Key_tbl = Hashtbl.Make (struct
  type t = key

  let equal a b =
    Array.length a = Array.length b
    &&
    let rec loop i = i >= Array.length a || (Value.equal a.(i) b.(i) && loop (i + 1)) in
    loop 0

  let hash = Value.hash_key
end)

(* One partition per latch stripe; a key's partition is chosen by its
   hash, so operations on one key touch exactly one latch. *)
type t = {
  parts : state Key_tbl.t array;
  latches : Striped_mutex.t;
  migrated_count : int Atomic.t;
}

let create ?(stripes = 64) () =
  let latches = Striped_mutex.create stripes in
  {
    parts = Array.init (Striped_mutex.stripes latches) (fun _ -> Key_tbl.create 256);
    latches;
    migrated_count = Atomic.make 0;
  }

let part_key t key =
  let h = Value.hash_key key in
  (h land max_int) mod Array.length t.parts

let with_key t key f =
  let pk = part_key t key in
  Striped_mutex.with_stripe t.latches pk (fun () -> f t.parts.(pk))

let force_migrated t key =
  with_key t key (fun part ->
      match Key_tbl.find_opt part key with
      | Some Migrated -> ()
      | Some In_progress | Some Aborted | None ->
          Key_tbl.replace part (Array.copy key) Migrated;
          Atomic.incr t.migrated_count)

(* Visit the keys partition by partition (order of first appearance),
   holding each partition's latch once; [f] gets the key's input position
   and its partition table.  Latches are never nested. *)
let iter_by_partition t (keys : key array) f =
  let n = Array.length keys in
  let parts = Array.init n (fun i -> part_key t keys.(i)) in
  let visited = Array.make n false in
  for i = 0 to n - 1 do
    if not visited.(i) then begin
      let pk = parts.(i) in
      Striped_mutex.with_stripe t.latches pk (fun () ->
          let part = t.parts.(pk) in
          for j = i to n - 1 do
            if (not visited.(j)) && parts.(j) = pk then begin
              visited.(j) <- true;
              f j part
            end
          done)
    end
  done

let try_acquire t keys =
  let arr = Array.of_list keys in
  let out = Array.make (Array.length arr) Tracker.Skip in
  iter_by_partition t arr (fun i part ->
      let key = arr.(i) in
      out.(i) <-
        (match Key_tbl.find_opt part key with
        | Some Migrated -> Tracker.Already_migrated
        | Some In_progress -> Tracker.Skip
        | Some Aborted ->
            (* Alg. 3 lines 7-9: take over an aborted migration. *)
            Key_tbl.replace part key In_progress;
            Tracker.Migrate
        | None ->
            Key_tbl.replace part (Array.copy key) In_progress;
            Tracker.Migrate));
  Array.to_list out

(* The count is published even when a key mid-list raises: the flips
   before it are kept, so they must be counted. *)
let mark_migrated t keys =
  let arr = Array.of_list keys in
  let n = ref 0 in
  Fun.protect
    ~finally:(fun () -> ignore (Atomic.fetch_and_add t.migrated_count !n : int))
    (fun () ->
      iter_by_partition t arr (fun i part ->
          let key = arr.(i) in
          match Key_tbl.find_opt part key with
          | Some In_progress | Some Aborted ->
              Key_tbl.replace part key Migrated;
              incr n
          | Some Migrated -> invalid_arg "Hash_tracker.mark_migrated: key already migrated"
          | None -> invalid_arg "Hash_tracker.mark_migrated: unknown key"))

let mark_aborted t keys =
  let arr = Array.of_list keys in
  iter_by_partition t arr (fun i part ->
      let key = arr.(i) in
      match Key_tbl.find_opt part key with
      | Some In_progress -> Key_tbl.replace part key Aborted
      | Some Aborted -> ()
      | Some Migrated -> invalid_arg "Hash_tracker.mark_aborted: key is migrated"
      | None -> invalid_arg "Hash_tracker.mark_aborted: unknown key")

let state_of t key = with_key t key (fun part -> Key_tbl.find_opt part key)

let is_migrated t key = state_of t key = Some Migrated

let stats t =
  let total = ref 0 and in_progress = ref 0 in
  Striped_mutex.with_all t.latches (fun () ->
      Array.iter
        (fun part ->
          Key_tbl.iter
            (fun _ s ->
              incr total;
              if s = In_progress then incr in_progress)
            part)
        t.parts);
  { Tracker.total = !total; migrated = Atomic.get t.migrated_count; in_progress = !in_progress }

let iter t f =
  Striped_mutex.with_all t.latches (fun () ->
      Array.iter (fun part -> Key_tbl.iter f part) t.parts)
