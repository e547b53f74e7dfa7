open Bullfrog_db

(* Blocking client, one request in flight per connection — the mirror
   image of the server's serial per-session contract. *)

type t = {
  sock : Unix.file_descr;
  inc : in_channel;
  out : out_channel;
}

let connect ?(host = "127.0.0.1") ~port () =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_of_string host, port))
   with e ->
     (try Unix.close sock with Unix.Unix_error _ -> ());
     raise e);
  {
    sock;
    inc = Unix.in_channel_of_descr sock;
    out = Unix.out_channel_of_descr sock;
  }

exception Closed

(* Trace propagation, not origination: when the calling thread is
   already inside a trace, the request runs under a "request" span whose
   context rides the CTX wire header — the server's reader picks it up and
   its spans land in the same tree.  A call from outside any span sends
   no header and records nothing client-side; the server's own spans
   root a fresh trace over there.  (Originating a root span per wire
   call here would put two ring records and a header render on every
   request of untraced callers.) *)
let request t req =
  let send ctx () =
    output_string t.out (Protocol.render_request ?ctx req);
    output_char t.out '\n';
    flush t.out;
    match Protocol.read_response t.inc with
    | Some resp -> resp
    | None -> raise Closed
  in
  match Obs.Trace.context () with
  | None -> send None ()
  | Some _ ->
      Obs.Trace.with_span ~cat:"client" "request" (fun () ->
          (* re-read inside the span so the server's parent is the
             request span itself, not the span around it *)
          send (Obs.Trace.context ()) ())

let exec t sql = request t (Protocol.Exec sql)

let query t sql =
  match exec t sql with
  | Protocol.Ok_rows (_, rows) -> rows
  | Protocol.Error (_, msg) -> raise (Db_error.Sql_error msg)
  | _ -> raise (Db_error.Sql_error "server: statement returned no rows")

let prepare t name sql = request t (Protocol.Prepare (name, sql))

let exec_prepared t name params =
  request t (Protocol.Exec_prepared (name, params))

let pin t = request t Protocol.Pin
let unpin t = request t Protocol.Unpin

let stats ?fmt t =
  match request t (Protocol.Stats fmt) with
  | Protocol.Ok_text s -> s
  | Protocol.Error (_, msg) -> raise (Db_error.Sql_error msg)
  | _ -> raise (Db_error.Sql_error "server: STATS returned no text")

let close t =
  (try
     match request t Protocol.Quit with
     | Protocol.Bye | _ -> ()
   with Closed | Sys_error _ | Unix.Unix_error _ -> ());
  try Unix.close t.sock with Unix.Unix_error _ -> ()
