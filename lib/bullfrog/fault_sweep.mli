(** Crash-point sweep: deterministic fault injection × migration
    scenarios.

    Each {!scenario} is a self-contained, fully deterministic migration
    run (fresh database, fixed data, fixed workload).  A {e cell} arms
    one {!Fault} point and runs the scenario: if the point fires, the
    run crashes mid-migration, recovers via {!Recovery} (or, for the
    eager baseline, by re-execution), finishes the migration, and the
    final result sets are compared against a disarmed oracle run of the
    same scenario.  A point the scenario never reaches yields a vacuous
    cell ([c_fired = false]) that must still compare equal. *)

type cell = {
  c_scenario : string;
  c_point : int;  (** {!Fault} point id *)
  c_fired : bool;  (** the armed point was actually reached *)
  c_ok : bool;  (** post-recovery results matched the oracle *)
  c_detail : string;  (** first divergence, or the escaping exception *)
}

type scenario = {
  sc_name : string;
  sc_run : unit -> (string * string list) list;
}

val scenarios : scenario list
(** bitmap 1:1 copy, MVCC, hash aggregate, pair-granularity n:n,
    join-key-class shared tracker, multistep copier, eager baseline,
    mid-flight rollback *)

val register : scenario -> unit
(** Add an externally defined scenario (lib/cluster registers its 2PC
    crash scenario here — it sits above this library in the dependency
    order).  @raise Invalid_argument on duplicate names. *)

val all_scenarios : unit -> scenario list
(** Built-ins followed by registrations. *)

val find_scenario : string -> scenario
(** @raise Invalid_argument on unknown names. *)

val run_cell : ?after:int -> scenario -> (string * string list) list -> int -> cell
(** [run_cell sc oracle point] arms [point] (skipping [after] hits) and
    runs one recovery cycle against the given oracle result. *)

val run_scenario : ?points:int list -> scenario -> cell list
(** One oracle run, then one cell per point (default: every registered
    point). *)

val run_sweep : ?names:string list -> ?points:int list -> unit -> cell list
(** The full matrix: every scenario (registrations included, unless
    [names] picks some) × every crash point. *)

val run_bounded : unit -> cell list
(** Per scenario, only the points its path actually reaches — every cell
    crashes and recovers.  Fast enough for [make check]. *)

val fired_count : cell list -> int

val pp_cell : cell -> string
