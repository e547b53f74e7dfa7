(** The wire server (DESIGN.md §4.2h): a TCP listener fronting a
    {!Bullfrog_db.Frontend.t} (single node or cluster).

    One accept thread hands each connection to a dedicated reader
    thread; the reader does admission control and then runs the
    statement against the frontend itself, so a session's requests
    execute strictly in order.  At most [workers] statements execute at
    once; up to [queue_cap] more wait for a slot.  There is no worker
    pool (DESIGN.md §4.2h says why).  Per-connection session state —
    prepared statements and the optional snapshot pin — lives on the
    reader thread and dies with the connection.

    Backpressure, in the order a request meets it:
    - token bucket per connection ([rate]/[burst]) → [ERR RETRY];
    - circuit breaker on migration debt (the [debt] gauge summed across
      shards, hysteresis between [open_above]/[close_below]) sheds
      non-essential statements (SELECT / EXPLAIN) → [ERR SHED];
    - execution slots ([workers]) and at most [queue_cap] waiters for
      them → [ERR RETRY].

    Both RETRY and SHED mean the statement did {e not} execute. *)

open Bullfrog_db

type config = {
  host : string;
  port : int;  (** 0 = ephemeral; read the bound port back with {!port} *)
  workers : int;  (** statements executing at once, across all sessions *)
  queue_cap : int;  (** admitted requests waiting for one of those slots *)
  rate : float;  (** tokens/second per connection; [infinity] = off *)
  burst : float;
  open_above : int;  (** breaker opens when debt exceeds this *)
  close_below : int;  (** … and closes only once debt falls to this *)
  slow_query_s : float;
      (** statements slower than this land in {!slow_log} with their
          EXPLAIN ANALYZE actuals; [infinity] = off *)
}

val default_config : config
(** Loopback, ephemeral port, 4 workers, queue 64, no rate limit,
    breaker disabled ([max_int] thresholds), slow-query log off. *)

type slow_query = {
  sq_sql : string;
  sq_class : string;  (** point / scan / write / ddl / other *)
  sq_seconds : float;
  sq_detail : string;
      (** reads: EXPLAIN ANALYZE actuals of a rerun; writes/DDL: the
          plan plus routing decision (re-execution would double their
          effects) *)
}

type t

val start : ?config:config -> ?debt:(unit -> int) -> Frontend.t -> t
(** Bind, spawn the accept thread, and register a per-instance
    ["server:<port>"] Obs stats provider ([queue_depth]: requests
    waiting for a slot; [busy_workers]: statements executing; breaker
    state, debt, slow-query count, and per-class latency percentiles).  [debt] is the migration-debt gauge the
    breaker samples (default: constantly 0). *)

val port : t -> int

val breaker : t -> Breaker.t

val slow_log : t -> slow_query list
(** The most recent over-threshold statements, oldest first (bounded at
    64 entries). *)

val stop : t -> unit
(** Clean shutdown: refuse new submissions (retryable), drain every
    admitted request and write its response, then close sockets and
    join all threads; unregisters the stats provider.  Idempotent. *)
