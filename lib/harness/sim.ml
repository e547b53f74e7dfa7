open Bullfrog_core
open Bullfrog_tpcc

type exec_outcome = {
  eo_cost : float;
  eo_migrated : (int * Migrate_exec.granule) list;
  eo_already : (int * Migrate_exec.granule) list;
  eo_row_keys : Migrate_exec.granule list;
}

type system = {
  mutable sys_name : string;
  begin_migration : now:float -> float;
  exec : now:float -> Tpcc_txns.input -> exec_outcome;
  background_batch : now:float -> float;
  migration_complete : unit -> bool;
  progress : unit -> float option;
  is_affected : Tpcc_txns.input -> bool;
  on_conflict : bool;
  overlap_cost : int -> float;
  bg_delay : float option;
  bg_workers : int;
}

type arrival_process = Uniform | Poisson

type config = {
  workers : int;
  rate : float;
  duration : float;
  mig_time : float option;
  seed : int;
  gen : Rng.t -> Tpcc_txns.input;
  cdf_from_migration : bool;
  arrivals : arrival_process;
}

type result = {
  metrics : Metrics.t;
  mig_end : float option;
  completed : int;
  peak_queue : int;
}

(* In-flight migrated granules: (tracker uid, granule) -> virtual commit. *)
module Gkey = struct
  type t = int * Migrate_exec.granule

  let equal (u1, g1) (u2, g2) = u1 = u2 && Migrate_exec.granule_equal g1 g2

  let hash (u, g) =
    (u * 31)
    + (match g with
      | Migrate_exec.G_tid t -> t * 0x9E3779B1
      | Migrate_exec.G_key k -> Bullfrog_db.Value.hash_key k)
      land max_int
end

module Gtbl = Hashtbl.Make (Gkey)

(* pseudo-tracker uid reserved for row locks *)
let row_lock_uid = -1

type event =
  | Arrival
  | Worker_free
  | Mig_start
  | Gate_open
  | Bg_start
  | Bg_tick

let run cfg sys =
  let events : event Pqueue.t = Pqueue.create () in
  let rng = Rng.create cfg.seed in
  let metrics = Metrics.create ~duration:(cfg.duration +. 1.0) in
  let queue : (float * Tpcc_txns.input) Queue.t = Queue.create () in
  let gated : (float * Tpcc_txns.input) Queue.t = Queue.create () in
  let in_flight : float Gtbl.t = Gtbl.create 4096 in
  let capacity = ref cfg.workers in
  let busy = ref 0 in
  let gate_until = ref neg_infinity in
  let mig_started = ref false in
  let mig_end = ref None in
  let gate_pending = ref false in
  let bg_active = ref false in
  let peak_queue = ref 0 in
  let now = ref 0.0 in
  let horizon = cfg.duration in
  (* Interleave a purge with registrations so the table stays small. *)
  let registrations = ref 0 in
  let register_granules vend granules =
    List.iter (fun (uid, g) -> Gtbl.replace in_flight (uid, g) vend) granules;
    registrations := !registrations + List.length granules;
    if !registrations > 50_000 then begin
      registrations := 0;
      let stale =
        Gtbl.fold (fun k vend acc -> if vend <= !now then k :: acc else acc) in_flight []
      in
      List.iter (Gtbl.remove in_flight) stale
    end
  in
  (* Migration-progress timeline: sampled whenever virtual time has
     advanced enough since the last point, so the plot tracks both the
     lazy path (request-driven) and background batches. *)
  let last_sample = ref neg_infinity in
  let note_progress () =
    if !mig_started && !now -. !last_sample >= 0.25 then
      match sys.progress () with
      | Some v ->
          last_sample := !now;
          Metrics.sample metrics ~time:!now ~series:"migrated" v
      | None -> ()
  in
  let note_mig_end () =
    if !mig_started && (not !gate_pending) && !mig_end = None && sys.migration_complete ()
    then begin
      mig_end := Some !now;
      (match sys.progress () with
      | Some v -> Metrics.sample metrics ~time:!now ~series:"migrated" v
      | None -> ());
      Metrics.mark metrics !now (sys.sys_name ^ " migration end")
    end
  in
  let rec dispatch () =
    if !busy < !capacity && not (Queue.is_empty queue) then begin
      let arrive, input = Queue.pop queue in
      if sys.is_affected input && !now < !gate_until then begin
        (* Eager downtime: park until the gate opens. *)
        Queue.push (arrive, input) gated;
        dispatch ()
      end
      else begin
        incr busy;
        let outcome = sys.exec ~now:!now input in
        (* Migration-lock waits: granules this request needed that are
           still being migrated (virtually) by an in-flight transaction. *)
        let conflicts =
          List.filter_map
            (fun key ->
              match Gtbl.find_opt in_flight (fst key, snd key) with
              | Some vend when vend > !now -> Some vend
              | _ -> None)
            outcome.eo_already
        in
        let wait, extra =
          if sys.on_conflict then (0.0, sys.overlap_cost (List.length conflicts))
          else
            ((match conflicts with [] -> 0.0 | _ -> List.fold_left max 0.0 conflicts -. !now), 0.0)
        in
        (* Row-lock waits: exclusive rows held by in-flight transactions
           always block, whatever the duplicate-detection mode. *)
        let row_keys = List.map (fun g -> (row_lock_uid, g)) outcome.eo_row_keys in
        let row_wait =
          List.fold_left
            (fun acc key ->
              match Gtbl.find_opt in_flight key with
              | Some vend when vend > !now -> max acc (vend -. !now)
              | _ -> acc)
            0.0 row_keys
        in
        let wait = max wait row_wait in
        let finish = !now +. wait +. outcome.eo_cost +. extra in
        register_granules finish (outcome.eo_migrated @ row_keys);
        Metrics.record metrics ~arrive ~finish ~kind:(Tpcc_txns.input_kind input);
        Pqueue.push events finish Worker_free;
        dispatch ()
      end
    end
  in
  let interarrival () =
    match cfg.arrivals with
    | Poisson -> Rng.exponential rng cfg.rate
    | Uniform -> 1.0 /. cfg.rate
  in
  (* Seed the event stream. *)
  Pqueue.push events (interarrival ()) Arrival;
  (match cfg.mig_time with
  | Some t -> Pqueue.push events t Mig_start
  | None -> ());
  let continue_ = ref true in
  while !continue_ do
    match Pqueue.pop events with
    | None -> continue_ := false
    | Some (t, ev) ->
        now := t;
        (* Publish virtual time so trace spans recorded by the systems
           under test line up with the simulation clock. *)
        Obs.Trace.set_virtual_now !now;
        if t > horizon +. 0.000001 then continue_ := false
        else begin
          note_progress ();
          (match ev with
          | Arrival ->
              let input = cfg.gen rng in
              Queue.push (!now, input) queue;
              peak_queue := max !peak_queue (Queue.length queue);
              let next = !now +. interarrival () in
              if next <= horizon then Pqueue.push events next Arrival
          | Worker_free ->
              decr busy;
              note_mig_end ()
          | Mig_start ->
              mig_started := true;
              Metrics.mark metrics !now "migration start";
              if cfg.cdf_from_migration then Metrics.set_latency_window metrics !now;
              let downtime = sys.begin_migration ~now:!now in
              if downtime > 0.0 then begin
                gate_until := !now +. downtime;
                gate_pending := true;
                Pqueue.push events !gate_until Gate_open
              end;
              (match sys.bg_delay with
              | Some d -> Pqueue.push events (!now +. d) Bg_start
              | None -> ())
          | Gate_open ->
              (* The eager migration is over; re-queue parked requests in
                 arrival order ahead of later arrivals. *)
              gate_pending := false;
              note_mig_end ();
              let rest = Queue.copy queue in
              Queue.clear queue;
              Queue.transfer gated queue;
              Queue.transfer rest queue
          | Bg_start ->
              if not (sys.migration_complete ()) then begin
                bg_active := true;
                capacity := max 1 (cfg.workers - sys.bg_workers);
                Metrics.mark metrics !now "background start";
                Pqueue.push events !now Bg_tick
              end
          | Bg_tick ->
              if !bg_active then begin
                if sys.migration_complete () then begin
                  bg_active := false;
                  capacity := cfg.workers;
                  note_mig_end ()
                end
                else begin
                  let cost = sys.background_batch ~now:!now in
                  if cost <= 0.0 then begin
                    if sys.migration_complete () then begin
                      bg_active := false;
                      capacity := cfg.workers;
                      note_mig_end ()
                    end
                    else Pqueue.push events (!now +. 0.25) Bg_tick
                  end
                  else
                    Pqueue.push events
                      (!now +. (cost /. float_of_int (max 1 sys.bg_workers)))
                      Bg_tick
                end
              end);
          dispatch ()
        end
  done;
  { metrics; mig_end = !mig_end; completed = Metrics.completed metrics; peak_queue = !peak_queue }
