(* Migration-debt circuit breaker with hysteresis.

   The debt gauge is the unmigrated-granule backlog reported by the
   engine's migration trackers (summed across shards).  When it crosses
   [open_above], the breaker opens and the server sheds non-essential
   statements so the statements it does admit — writes and the migration
   work their predicates drive — drain the backlog faster.  It closes
   only once debt falls to [close_below] (strictly lower), so a debt
   gauge hovering around the threshold cannot flap the breaker. *)

type t = {
  open_above : int;
  close_below : int;
  debt : unit -> int;
  refresh_every : float;  (* seconds between debt samples *)
  mutex : Mutex.t;
  mutable is_open : bool;
  mutable last_sample : float;
  mutable last_debt : int;
  mutable opens : int;
  mutable closes : int;
}

let c_opens = Obs.Counters.make "server.breaker_opens"
let c_closes = Obs.Counters.make "server.breaker_closes"

let create ?(refresh_every = 0.01) ~open_above ~close_below debt =
  if close_below > open_above then
    invalid_arg "Breaker.create: close_below must be <= open_above";
  {
    open_above;
    close_below;
    debt;
    refresh_every;
    mutex = Mutex.create ();
    is_open = false;
    last_sample = neg_infinity;
    last_debt = 0;
    opens = 0;
    closes = 0;
  }

(* Sample the gauge (rate-limited: tracker scans are not free) and apply
   the hysteresis band. *)
let refresh t =
  let now = Unix.gettimeofday () in
  if now -. t.last_sample >= t.refresh_every then begin
    t.last_debt <- t.debt ();
    t.last_sample <- now;
    if (not t.is_open) && t.last_debt > t.open_above then begin
      t.is_open <- true;
      t.opens <- t.opens + 1;
      Obs.Counters.bump c_opens;
      Logs.info (fun m ->
          m "server: breaker OPEN (migration debt %d > %d)" t.last_debt
            t.open_above)
    end
    else if t.is_open && t.last_debt <= t.close_below then begin
      t.is_open <- false;
      t.closes <- t.closes + 1;
      Obs.Counters.bump c_closes;
      Logs.info (fun m ->
          m "server: breaker CLOSED (migration debt %d <= %d)" t.last_debt
            t.close_below)
    end
  end

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let is_open t =
  locked t (fun () ->
      refresh t;
      t.is_open)

let debt t = locked t (fun () -> t.last_debt)
let opens t = locked t (fun () -> t.opens)
let closes t = locked t (fun () -> t.closes)
