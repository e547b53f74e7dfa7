(* Deterministic crash-point registry.  Commit-adjacent sites in the
   migration engine call [point <id>]; under test a single point is armed
   and raises [Crash] on its nth hit, simulating a process failure at that
   exact spot.  Disarmed cost is one int compare per site. *)

exception Crash of string

let p_mark_commit = 0

let p_flip_batched = 1

let p_pair_commit = 2

let p_pair_flip = 3

let p_bg_batch = 4

let p_eager_copy = 5

let p_multistep_copy = 6

let p_commit_ts = 7

let p_gc_sweep = 8

let p_2pc_prepare = 9

let p_2pc_decision = 10

let p_2pc_ack = 11

let p_cluster_finalize = 12

let p_cluster_rollback = 13

let p_cluster_start = 14

let names =
  [|
    "mark_commit";  (* granule marks recorded, before commit *)
    "flip_batched";  (* inside a tracker group's on-commit flip *)
    "pair_commit";  (* pair marks recorded, before commit *)
    "pair_flip";  (* inside the pair tracker's on-commit flip *)
    "bg_batch";  (* between background migration batches *)
    "eager_copy";  (* inside the eager copy transaction *)
    "multistep_copy";  (* after a multistep copier step *)
    "commit_ts";  (* inside the timestamped-commit critical section,
                     versions stamped but clock unpublished, log unwritten *)
    "gc_sweep";  (* mid version-chain GC, some tables swept, some not *)
    "2pc_prepare";  (* between participant prepares: some shards hold a
                       durable E_prepare, others nothing *)
    "2pc_decision";  (* coordinator decision logged, no shard resolved *)
    "2pc_ack";  (* between participant resolutions: some shards carry the
                   local decision marker, the rest are still in doubt *)
    "cluster_finalize";  (* between shard finalizes: some shards dropped
                            drop_old, the rest still hold it *)
    "cluster_rollback";  (* between shard trivial rollbacks: some shards
                            dropped the outputs, the rest still hold them *)
    "cluster_start";  (* between shard starts: some shards switched, the
                         rest have not *)
  |]

let count = Array.length names

let name_of id =
  if id < 0 || id >= count then invalid_arg "Fault.name_of" else names.(id)

let all () = List.init count (fun i -> (i, names.(i)))

(* Simple mutable state: the harness is single-threaded wherever faults
   are armed, and the disarmed fast path reads one int. *)
let armed_id = ref (-1)

let remaining = ref 0

let hit_count = ref 0

let fired_flag = ref false

let arm ?(after = 0) id =
  if id < 0 || id >= count then invalid_arg "Fault.arm";
  armed_id := id;
  remaining := after;
  hit_count := 0;
  fired_flag := false

let disarm () = armed_id := -1

let armed () = if !armed_id < 0 then None else Some !armed_id

let fired () = !fired_flag

let hits () = !hit_count

let point id =
  if !armed_id = id then begin
    incr hit_count;
    if !remaining = 0 then begin
      fired_flag := true;
      (* one-shot: the crash must not re-fire during recovery *)
      armed_id := -1;
      (* the simulated crash is exactly what the flight recorder exists
         for: note the fire, then dump for post-mortem reading *)
      Obs.Flight.notef ~cat:"fault" "crash point %s fired (hit %d)" names.(id)
        !hit_count;
      ignore (Obs.Flight.crash_dump ~reason:names.(id) : string option);
      raise (Crash names.(id))
    end
    else decr remaining
  end

(* The timestamped-commit and GC-sweep sites live in the db layer, which
   cannot depend on this library; Database exposes injection hooks
   instead.  Installed once at module load — [point] is a no-op while its
   point is unarmed, so the hooks cost one int compare in production.
   Commits with no migration marks (test setup, client writes) do not hit
   the commit_ts point: the sweep targets the migration flip path. *)
let () =
  Bullfrog_db.Database.commit_test_hook :=
    (fun ~has_marks -> if has_marks then point p_commit_ts);
  Bullfrog_db.Database.gc_test_hook := (fun () -> point p_gc_sweep)
