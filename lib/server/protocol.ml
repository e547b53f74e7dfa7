open Bullfrog_db

(* One request or response per line; fields are TAB-separated and the
   escape closes over exactly the three bytes the framing uses, so any
   SQL text and any value round-trips. *)

let escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let unescape s =
  let buf = Buffer.create (String.length s) in
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    (if s.[!i] = '\\' && !i + 1 < n then begin
       (match s.[!i + 1] with
       | '\\' -> Buffer.add_char buf '\\'
       | 't' -> Buffer.add_char buf '\t'
       | 'n' -> Buffer.add_char buf '\n'
       | 'r' -> Buffer.add_char buf '\r'
       | c ->
           Buffer.add_char buf '\\';
           Buffer.add_char buf c);
       incr i
     end
     else Buffer.add_char buf s.[!i]);
    incr i
  done;
  Buffer.contents buf

let split_fields line = List.map unescape (String.split_on_char '\t' line)

let join_fields fields = String.concat "\t" (List.map escape fields)

(* -- requests ------------------------------------------------------- *)

type request =
  | Exec of string  (** [Q <sql>] — execute one statement *)
  | Prepare of string * string  (** [P <name> <sql>] *)
  | Exec_prepared of string * Value.t array  (** [E <name> <literal>...] *)
  | Pin  (** [PIN] — pin the session snapshot (holds the GC horizon) *)
  | Unpin  (** [UNPIN] *)
  | Stats of string option  (** [STATS [<fmt>]] — metrics exposition *)
  | Quit  (** [QUIT] — close the connection *)

exception Bad_request of string

let bad fmt = Printf.ksprintf (fun s -> raise (Bad_request s)) fmt

(* Wire literals for prepared-statement parameters: NULL, TRUE/FALSE,
   integers, floats, and single-quoted strings with '' escaping (the SQL
   literal forms {!Bullfrog_db.Value.to_sql} emits). *)
let parse_literal s =
  let n = String.length s in
  if n = 0 then bad "empty parameter literal"
  else if s = "NULL" then Value.Null
  else if s = "TRUE" then Value.Bool true
  else if s = "FALSE" then Value.Bool false
  else if s.[0] = '\'' then begin
    if n < 2 || s.[n - 1] <> '\'' then bad "unterminated string literal";
    let buf = Buffer.create (n - 2) in
    let i = ref 1 in
    while !i < n - 1 do
      if s.[!i] = '\'' then
        if !i + 1 < n - 1 && s.[!i + 1] = '\'' then begin
          Buffer.add_char buf '\'';
          i := !i + 2
        end
        else bad "stray quote in string literal"
      else begin
        Buffer.add_char buf s.[!i];
        incr i
      end
    done;
    Value.Str (Buffer.contents buf)
  end
  else
    match int_of_string_opt s with
    | Some i -> Value.Int i
    | None -> (
        match float_of_string_opt s with
        | Some f -> Value.Float f
        | None -> bad "unparseable literal %S" s)

let parse_fields = function
  | [ "Q"; sql ] -> Exec sql
  | [ "P"; name; sql ] -> Prepare (name, sql)
  | "E" :: name :: params ->
      Exec_prepared (name, Array.of_list (List.map parse_literal params))
  | [ "PIN" ] -> Pin
  | [ "UNPIN" ] -> Unpin
  | [ "STATS" ] -> Stats None
  | [ "STATS"; fmt ] -> Stats (Some fmt)
  | [ "QUIT" ] -> Quit
  | verb :: _ -> bad "unknown request %S" verb
  | [] -> bad "empty request"

(* An optional [CTX <trace> <parent>] prefix carries the client's trace
   context; servers that trace run the statement under it so the
   request's server-side spans join the client's tree.  Old clients
   simply omit it. *)
let parse_request line =
  match split_fields line with
  | "CTX" :: tr :: sp :: rest -> (
      match (int_of_string_opt tr, int_of_string_opt sp) with
      | Some tr, Some sp -> (Some (tr, sp), parse_fields rest)
      | _ -> bad "malformed CTX header")
  | fields -> (None, parse_fields fields)

let render_request ?ctx req =
  let body =
    match req with
    | Exec sql -> join_fields [ "Q"; sql ]
    | Prepare (name, sql) -> join_fields [ "P"; name; sql ]
    | Exec_prepared (name, params) ->
        join_fields
          ("E" :: name :: List.map Value.to_sql (Array.to_list params))
    | Pin -> "PIN"
    | Unpin -> "UNPIN"
    | Stats None -> "STATS"
    | Stats (Some fmt) -> join_fields [ "STATS"; fmt ]
    | Quit -> "QUIT"
  in
  match ctx with
  | Some (tr, sp) ->
      String.concat "\t" [ "CTX"; string_of_int tr; string_of_int sp; body ]
  | None -> body

(* -- responses ------------------------------------------------------ *)

(** Retryable-vs-fatal is part of the wire contract: [Err_retry] means
    the request was {e not} executed and the client should back off and
    resend (admission queue full, rate limit); [Err_shed] means the
    breaker refused a non-essential statement during migration debt;
    [Err_sql] / [Err_bad] are definitive rejections. *)
type error_code = Err_retry | Err_shed | Err_sql | Err_bad

let error_code_to_string = function
  | Err_retry -> "RETRY"
  | Err_shed -> "SHED"
  | Err_sql -> "SQL"
  | Err_bad -> "BAD"

let error_code_of_string = function
  | "RETRY" -> Err_retry
  | "SHED" -> Err_shed
  | "SQL" -> Err_sql
  | "BAD" -> Err_bad
  | s -> bad "unknown error code %S" s

type response =
  | Ok_affected of int
  | Ok_rows of string list * Value.t array list  (** header, rows *)
  | Ok_text of string  (** EXPLAIN output and acknowledgements *)
  | Error of error_code * string
  | Bye

(* A rows response is [ROWS <ncols> <nrows>], the header line, then one
   line per row; both ends know exactly how many lines follow. *)
let write_response out resp =
  (match resp with
  | Ok_affected n -> output_string out (Printf.sprintf "OK\t%d\n" n)
  | Ok_rows (header, rows) ->
      output_string out
        (Printf.sprintf "ROWS\t%d\t%d\n" (List.length header) (List.length rows));
      output_string out (join_fields header);
      output_char out '\n';
      List.iter
        (fun row ->
          output_string out
            (join_fields (List.map Value.to_sql (Array.to_list row)));
          output_char out '\n')
        rows
  | Ok_text s -> output_string out (Printf.sprintf "TEXT\t%s\n" (escape s))
  | Error (code, msg) ->
      output_string out
        (Printf.sprintf "ERR\t%s\t%s\n" (error_code_to_string code) (escape msg))
  | Bye -> output_string out "BYE\n");
  flush out

let read_response inc =
  let line () = try Some (input_line inc) with End_of_file -> None in
  match line () with
  | None -> None
  | Some l -> (
      match split_fields l with
      | [ "OK"; n ] -> Some (Ok_affected (int_of_string n))
      | [ "ROWS"; _ncols; nrows ] ->
          let header =
            match line () with
            | Some h -> split_fields h
            | None -> bad "truncated rows header"
          in
          let rows = ref [] in
          for _ = 1 to int_of_string nrows do
            match line () with
            | Some r ->
                rows :=
                  Array.of_list (List.map parse_literal (split_fields r))
                  :: !rows
            | None -> bad "truncated row"
          done;
          Some (Ok_rows (header, List.rev !rows))
      | [ "TEXT"; s ] -> Some (Ok_text (unescape s))
      | [ "ERR"; code; msg ] ->
          Some (Error (error_code_of_string code, unescape msg))
      | [ "BYE" ] -> Some Bye
      | _ -> bad "malformed response %S" l)
