(** The text wire protocol (DESIGN.md §4.2h).

    One request and one response per line over the socket; fields are
    TAB-separated with [\\]-escaping for the framing bytes, so arbitrary
    SQL text round-trips.  Requests: [Q sql] (execute), [P name sql]
    (prepare in the session), [E name lit...] (execute prepared with SQL
    literal parameters), [PIN] / [UNPIN] (session snapshot pin — holds
    the engine's GC horizon at the session's snapshot), [STATS [fmt]]
    (metrics exposition, [fmt] is [prometheus] (default) or [json]),
    [QUIT].  Responses: [OK n], [ROWS ncols nrows] followed by a header
    line and [nrows] value lines, [TEXT s], [ERR code msg], [BYE].

    Any request may carry a [CTX trace parent] prefix — the client's
    trace context, installed on the connection's reader thread while it
    runs the statement, so server-side spans join the client's trace
    tree.  Old clients omit it; servers that are not tracing ignore
    it. *)

open Bullfrog_db

type request =
  | Exec of string
  | Prepare of string * string
  | Exec_prepared of string * Value.t array
  | Pin
  | Unpin
  | Stats of string option
  | Quit

exception Bad_request of string

val parse_request : string -> (int * int) option * request
(** The optional [CTX] trace context plus the request.
    @raise Bad_request on malformed input. *)

val render_request : ?ctx:int * int -> request -> string
(** One line, no trailing newline; [ctx] prepends the [CTX] header. *)

val parse_literal : string -> Value.t
(** SQL literal forms: [NULL], [TRUE]/[FALSE], integers, floats,
    single-quoted strings with [''] escaping.
    @raise Bad_request otherwise. *)

(** [Err_retry]: not executed, back off and resend (queue full / rate
    limit).  [Err_shed]: refused by the migration-debt circuit breaker.
    [Err_sql] / [Err_bad]: definitive rejections. *)
type error_code = Err_retry | Err_shed | Err_sql | Err_bad

val error_code_to_string : error_code -> string

type response =
  | Ok_affected of int
  | Ok_rows of string list * Value.t array list
  | Ok_text of string
  | Error of error_code * string
  | Bye

val write_response : out_channel -> response -> unit
(** Writes and flushes. *)

val read_response : in_channel -> response option
(** [None] at end of stream.  @raise Bad_request on malformed frames. *)
