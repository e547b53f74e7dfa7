(* Counters are individual atomic cells behind a global enable flag; the
   registry latch only guards the name table, never the hot increment.
   The trace ring takes a latch per recorded event — recording is only
   ever on when someone asked for a trace, so the latch is not on any
   default path. *)

module Counters = struct
  type counter = { c_name : string; cell : int Atomic.t }

  let on = Atomic.make false

  let registry : (string, counter) Hashtbl.t = Hashtbl.create 64

  let registry_lock = Mutex.create ()

  let with_registry f =
    Mutex.lock registry_lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock registry_lock) f

  let make name =
    with_registry (fun () ->
        match Hashtbl.find_opt registry name with
        | Some c -> c
        | None ->
            let c = { c_name = name; cell = Atomic.make 0 } in
            Hashtbl.replace registry name c;
            c)

  let name c = c.c_name

  (* [@inline] keeps the disabled path at one load + branch at the call
     site instead of a cross-module call; hot loops sit in other
     libraries, so without the hint the call itself costs more than the
     check. *)
  let[@inline] bump c = if Atomic.get on then Atomic.incr c.cell

  let[@inline] add c n =
    if Atomic.get on then ignore (Atomic.fetch_and_add c.cell n : int)

  let value c = Atomic.get c.cell

  let set_enabled b = Atomic.set on b

  let[@inline] enabled () = Atomic.get on

  let reset_all () =
    with_registry (fun () ->
        Hashtbl.iter (fun _ c -> Atomic.set c.cell 0) registry)

  type snapshot = (string * int) list

  (* canonical: sorted by name, duplicate names summed, zeros dropped *)
  let normalize (s : snapshot) : snapshot =
    let sorted = List.sort (fun (a, _) (b, _) -> compare a b) s in
    let rec merge = function
      | (k1, v1) :: (k2, v2) :: rest when k1 = k2 -> merge ((k1, v1 + v2) :: rest)
      | kv :: rest -> kv :: merge rest
      | [] -> []
    in
    List.filter (fun (_, v) -> v <> 0) (merge sorted)

  let snapshot () : snapshot =
    normalize
      (with_registry (fun () ->
           Hashtbl.fold (fun k c acc -> (k, Atomic.get c.cell) :: acc) registry []))

  (* merge two canonical snapshots combining values with [f] *)
  let merge_with f (a : snapshot) (b : snapshot) : snapshot =
    let rec go a b =
      match (a, b) with
      | [], b -> List.map (fun (k, v) -> (k, f 0 v)) b
      | a, [] -> List.map (fun (k, v) -> (k, f v 0)) a
      | (ka, va) :: ra, (kb, vb) :: rb ->
          if ka = kb then (ka, f va vb) :: go ra rb
          else if ka < kb then (ka, f va 0) :: go ra b
          else (kb, f 0 vb) :: go a rb
    in
    List.filter (fun (_, v) -> v <> 0) (go (normalize a) (normalize b))

  let diff a b = merge_with (fun x y -> x - y) a b

  let add_snapshots a b = merge_with (fun x y -> x + y) a b

  let equal a b = normalize a = normalize b
end

module Trace = struct
  type clock = Real | Virtual

  type phase = Span_begin | Span_end | Instant

  type event = {
    ev_phase : phase;
    ev_name : string;
    ev_cat : string;
    ev_clock : clock;
    ev_ts : float;
    ev_tid : int;
    ev_args : (string * string) list;
    ev_seq : int;
    ev_trace : int;
    ev_span : int;
    ev_parent : int;
  }

  let on = Atomic.make false

  let lock = Mutex.create ()

  (* The ring is struct-of-arrays: recording a span writes plain array
     slots and allocates nothing (in the common [args = []] case).  A
     boxed per-event record was measurably the dominant cost of an
     enabled span over the wire — every young record written into the
     old ring array hit the write barrier and was promoted wholesale at
     the next minor collection. *)
  type ring = {
    r_phase : Bytes.t;  (* 0 = begin, 1 = end, 2 = instant *)
    r_clock : Bytes.t;  (* 0 = real, 1 = virtual *)
    r_name : string array;
    r_cat : string array;
    r_ts : float array;  (* flat float array: unboxed stores *)
    r_tid : int array;
    r_args : (string * string) list array;
    r_seq : int array;
    r_trace : int array;
    r_span : int array;
    r_parent : int array;
  }

  let make_ring cap =
    {
      r_phase = Bytes.create cap;
      r_clock = Bytes.create cap;
      r_name = Array.make cap "";
      r_cat = Array.make cap "";
      r_ts = Array.make cap 0.0;
      r_tid = Array.make cap 0;
      r_args = Array.make cap [];
      r_seq = Array.make cap 0;
      r_trace = Array.make cap 0;
      r_span = Array.make cap 0;
      r_parent = Array.make cap 0;
    }

  let ring = ref (make_ring 0)

  let next_slot = ref 0

  let total = ref 0

  let virtual_now = ref 0.0

  let set_virtual_now t = virtual_now := t

  let enabled () = Atomic.get on

  (* Per-thread span context, guarded by [lock] (the ring latch — context
     only changes while recording, which holds the latch anyway).
     [t_trace]/[t_ambient] carry a request's identity across explicit
     hand-offs ([with_context]); [t_stack] holds the thread's open span
     ids so a new span's parent is the innermost open span, falling back
     to the ambient parent that arrived over a thread or wire boundary. *)
  type tstate = {
    mutable t_trace : int;  (* 0 = none *)
    mutable t_ambient : int;  (* parent for top-level spans; 0 = none *)
    mutable t_auto : bool;  (* trace id was auto-allocated by a root span *)
    mutable t_stack : int array;  (* open span ids, [0 .. t_depth) *)
    mutable t_depth : int;
  }

  let next_id = ref 1

  let fresh_id_locked () =
    let i = !next_id in
    next_id := i + 1;
    i

  (* Thread ids are small sequential ints, so per-thread state lives in a
     tid-indexed array — a hash probe per recorded event is avoidable
     cost on the span hot path. *)
  let states : tstate option array ref = ref [||]

  let reset_states () =
    Array.fill !states 0 (Array.length !states) None

  let state_of tid =
    (if tid >= Array.length !states then begin
       let n = Array.make (max 16 (2 * (tid + 1))) None in
       Array.blit !states 0 n 0 (Array.length !states);
       states := n
     end);
    match !states.(tid) with
    | Some st -> st
    | None ->
        let st =
          {
            t_trace = 0;
            t_ambient = 0;
            t_auto = false;
            t_stack = Array.make 8 0;
            t_depth = 0;
          }
        in
        !states.(tid) <- Some st;
        st

  let[@inline] stack_top st =
    if st.t_depth > 0 then st.t_stack.(st.t_depth - 1) else st.t_ambient

  (* Thread names survive enable/clear: threads register themselves once
     at spawn, typically before any trace is enabled. *)
  let thread_names : (int, string) Hashtbl.t = Hashtbl.create 32

  let set_thread_name name =
    let tid = Thread.id (Thread.self ()) in
    Mutex.lock lock;
    Hashtbl.replace thread_names tid name;
    Mutex.unlock lock

  let thread_name_of tid =
    Mutex.lock lock;
    let n = Hashtbl.find_opt thread_names tid in
    Mutex.unlock lock;
    n

  let enable ?(capacity = 65536) () =
    if capacity <= 0 then invalid_arg "Obs.Trace.enable: capacity";
    Mutex.lock lock;
    ring := make_ring capacity;
    next_slot := 0;
    total := 0;
    reset_states ();
    Mutex.unlock lock;
    Atomic.set on true

  let disable () = Atomic.set on false

  let clear () =
    Mutex.lock lock;
    let r = !ring in
    let cap = Array.length r.r_ts in
    (* drop the string/args references so a cleared ring retains nothing *)
    Array.fill r.r_name 0 cap "";
    Array.fill r.r_cat 0 cap "";
    Array.fill r.r_args 0 cap [];
    next_slot := 0;
    total := 0;
    reset_states ();
    Mutex.unlock lock

  let now_of = function Real -> Unix.gettimeofday () | Virtual -> !virtual_now

  let record phase clock name cat args =
    let ts = now_of clock in
    let tid = Thread.id (Thread.self ()) in
    Mutex.lock lock;
    let st = state_of tid in
    let trace, span, parent =
      match phase with
      | Span_begin ->
          if st.t_trace = 0 && st.t_ambient = 0 && st.t_depth = 0 then begin
            (* a root span with no inherited context starts a new trace *)
            st.t_trace <- fresh_id_locked ();
            st.t_auto <- true
          end;
          let parent = stack_top st in
          let id = fresh_id_locked () in
          (if st.t_depth = Array.length st.t_stack then begin
             let n = Array.make (2 * st.t_depth) 0 in
             Array.blit st.t_stack 0 n 0 st.t_depth;
             st.t_stack <- n
           end);
          st.t_stack.(st.t_depth) <- id;
          st.t_depth <- st.t_depth + 1;
          (st.t_trace, id, parent)
      | Span_end ->
          let id =
            if st.t_depth > 0 then begin
              st.t_depth <- st.t_depth - 1;
              st.t_stack.(st.t_depth)
            end
            else 0
          in
          let parent = stack_top st in
          let tr = st.t_trace in
          if st.t_depth = 0 && st.t_auto then begin
            st.t_trace <- 0;
            st.t_auto <- false
          end;
          (tr, id, parent)
      | Instant -> (st.t_trace, 0, stack_top st)
    in
    let r = !ring in
    let cap = Array.length r.r_ts in
    if cap > 0 then begin
      let i = !next_slot in
      Bytes.unsafe_set r.r_phase i
        (Char.unsafe_chr
           (match phase with Span_begin -> 0 | Span_end -> 1 | Instant -> 2));
      Bytes.unsafe_set r.r_clock i
        (Char.unsafe_chr (match clock with Real -> 0 | Virtual -> 1));
      Array.unsafe_set r.r_name i name;
      Array.unsafe_set r.r_cat i cat;
      Array.unsafe_set r.r_ts i ts;
      Array.unsafe_set r.r_tid i tid;
      Array.unsafe_set r.r_args i args;
      Array.unsafe_set r.r_seq i !total;
      Array.unsafe_set r.r_trace i trace;
      Array.unsafe_set r.r_span i span;
      Array.unsafe_set r.r_parent i parent;
      next_slot := (if i + 1 = cap then 0 else i + 1);
      incr total
    end;
    Mutex.unlock lock

  let context () =
    if not (Atomic.get on) then None
    else begin
      let tid = Thread.id (Thread.self ()) in
      Mutex.lock lock;
      let r =
        if tid < Array.length !states then
          match !states.(tid) with
          | Some st when st.t_trace <> 0 -> Some (st.t_trace, stack_top st)
          | _ -> None
        else None
      in
      Mutex.unlock lock;
      r
    end

  let with_context ctx f =
    match ctx with
    | None -> f ()
    | Some (trace, parent) ->
        if not (Atomic.get on) then f ()
        else begin
          let tid = Thread.id (Thread.self ()) in
          Mutex.lock lock;
          let st = state_of tid in
          let saved = (st.t_trace, st.t_ambient, st.t_auto) in
          st.t_trace <- trace;
          st.t_ambient <- parent;
          st.t_auto <- false;
          Mutex.unlock lock;
          Fun.protect
            ~finally:(fun () ->
              Mutex.lock lock;
              let st = state_of tid in
              let tr, am, au = saved in
              st.t_trace <- tr;
              st.t_ambient <- am;
              st.t_auto <- au;
              Mutex.unlock lock)
            f
        end

  let begin_span ?(clock = Real) ?(args = []) ~cat name =
    if Atomic.get on then record Span_begin clock name cat args

  let end_span ?(clock = Real) name =
    if Atomic.get on then record Span_end clock name "" []

  let instant ?(clock = Real) ?(args = []) ~cat name =
    if Atomic.get on then record Instant clock name cat args

  let with_span ?(clock = Real) ?(args = []) ~cat name f =
    if not (Atomic.get on) then f ()
    else begin
      record Span_begin clock name cat args;
      Fun.protect ~finally:(fun () -> record Span_end clock name "" []) f
    end

  let recorded () =
    Mutex.lock lock;
    let n = !total in
    Mutex.unlock lock;
    n

  (* Surviving events in insertion order, materialized as boxed records
     from the flat ring (cold path — only export pays for boxing). *)
  let raw_events () =
    Mutex.lock lock;
    let r = !ring in
    let cap = Array.length r.r_ts in
    let n = min !total cap in
    let ev i =
      {
        ev_phase =
          (match Char.code (Bytes.get r.r_phase i) with
          | 0 -> Span_begin
          | 1 -> Span_end
          | _ -> Instant);
        ev_name = r.r_name.(i);
        ev_cat = r.r_cat.(i);
        ev_clock = (if Char.code (Bytes.get r.r_clock i) = 0 then Real else Virtual);
        ev_ts = r.r_ts.(i);
        ev_tid = r.r_tid.(i);
        ev_args = r.r_args.(i);
        ev_seq = r.r_seq.(i);
        ev_trace = r.r_trace.(i);
        ev_span = r.r_span.(i);
        ev_parent = r.r_parent.(i);
      }
    in
    let evs = List.init n ev |> List.sort (fun a b -> compare a.ev_seq b.ev_seq) in
    Mutex.unlock lock;
    evs

  (* Wraparound damages span structure in exactly two ways: an end whose
     begin was overwritten (orphan end — dropped) and a begin whose end
     is yet to come or was recorded before the window (unclosed begin —
     closed synthetically at its clock's latest timestamp).  Stacks are
     per (clock, thread), matching the nesting discipline of
     [with_span]. *)
  let export () =
    let evs = raw_events () in
    let last_ts = Hashtbl.create 4 in
    List.iter
      (fun e ->
        let prev =
          match Hashtbl.find_opt last_ts e.ev_clock with
          | Some t -> t
          | None -> neg_infinity
        in
        Hashtbl.replace last_ts e.ev_clock (max prev e.ev_ts))
      evs;
    let stacks : (clock * int, event list ref) Hashtbl.t = Hashtbl.create 8 in
    let stack_of key =
      match Hashtbl.find_opt stacks key with
      | Some s -> s
      | None ->
          let s = ref [] in
          Hashtbl.replace stacks key s;
          s
    in
    let kept = ref [] in
    List.iter
      (fun e ->
        let key = (e.ev_clock, e.ev_tid) in
        match e.ev_phase with
        | Instant -> kept := e :: !kept
        | Span_begin ->
            let s = stack_of key in
            s := e :: !s;
            kept := e :: !kept
        | Span_end -> (
            let s = stack_of key in
            match !s with
            | [] -> () (* orphan: begin lost to wraparound *)
            | _ :: rest ->
                s := rest;
                kept := e :: !kept))
      evs;
    let seq = ref (match evs with [] -> 0 | _ -> 1 + (List.fold_left (fun m e -> max m e.ev_seq) 0 evs)) in
    Hashtbl.iter
      (fun (clock, _tid) s ->
        (* innermost first: reversing the remaining stack closes spans in
           proper nesting order *)
        List.iter
          (fun (b : event) ->
            let ts =
              match Hashtbl.find_opt last_ts clock with
              | Some t -> t
              | None -> b.ev_ts
            in
            kept :=
              {
                b with
                ev_phase = Span_end;
                ev_cat = "";
                ev_args = [];
                ev_ts = ts;
                ev_seq = !seq;
              }
              :: !kept;
            incr seq)
          !s)
      stacks;
    (* per-clock timestamp order; seq breaks ties so a thread's events
       keep their relative order and synthetic ends land last *)
    List.sort
      (fun a b ->
        match compare a.ev_clock b.ev_clock with
        | 0 -> (
            match compare a.ev_ts b.ev_ts with 0 -> compare a.ev_seq b.ev_seq | c -> c)
        | c -> c)
      (List.rev !kept)

  let validate evs =
    let stacks : (clock * int, string list ref) Hashtbl.t = Hashtbl.create 8 in
    let last_ts : (clock, float) Hashtbl.t = Hashtbl.create 4 in
    let spans = ref 0 in
    let err = ref None in
    let check e =
      (match Hashtbl.find_opt last_ts e.ev_clock with
      | Some t when e.ev_ts < t ->
          err :=
            Some
              (Printf.sprintf "timestamp regression at seq %d (%s): %.9f < %.9f"
                 e.ev_seq e.ev_name e.ev_ts t)
      | _ -> ());
      Hashtbl.replace last_ts e.ev_clock e.ev_ts;
      let key = (e.ev_clock, e.ev_tid) in
      let s =
        match Hashtbl.find_opt stacks key with
        | Some s -> s
        | None ->
            let s = ref [] in
            Hashtbl.replace stacks key s;
            s
      in
      match e.ev_phase with
      | Instant -> ()
      | Span_begin -> s := e.ev_name :: !s
      | Span_end -> (
          match !s with
          | [] ->
              err :=
                Some
                  (Printf.sprintf "unbalanced end %S at seq %d (empty stack)"
                     e.ev_name e.ev_seq)
          | top :: rest ->
              if top <> e.ev_name then
                err :=
                  Some
                    (Printf.sprintf "mismatched end %S at seq %d (open span is %S)"
                       e.ev_name e.ev_seq top)
              else begin
                s := rest;
                incr spans
              end)
    in
    List.iter (fun e -> if !err = None then check e) evs;
    if !err = None then
      Hashtbl.iter
        (fun _ s ->
          match !s with
          | [] -> ()
          | top :: _ ->
              if !err = None then err := Some (Printf.sprintf "unclosed span %S" top))
        stacks;
    match !err with None -> Ok !spans | Some e -> Error e

  (* -------------------------- Chrome export -------------------------- *)

  let json_escape s =
    let buf = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
            Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf

  let pid_of = function Real -> 1 | Virtual -> 2

  let to_chrome_json evs =
    (* wall-clock microsecond values are enormous; rebase each clock
       domain on its first event so the viewer opens at t=0 *)
    let base : (clock, float) Hashtbl.t = Hashtbl.create 4 in
    List.iter
      (fun e ->
        if not (Hashtbl.mem base e.ev_clock) then Hashtbl.replace base e.ev_clock e.ev_ts)
      evs;
    let buf = Buffer.create 4096 in
    Buffer.add_string buf "{\"traceEvents\":[\n";
    Buffer.add_string buf
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{\"name\":\"wall clock\"}},\n";
    Buffer.add_string buf
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,\"tid\":0,\"args\":{\"name\":\"virtual time\"}}";
    (* thread_name metadata so named threads render under their
       registered names instead of bare tids *)
    let seen : (int * int, unit) Hashtbl.t = Hashtbl.create 8 in
    List.iter
      (fun e ->
        let key = (pid_of e.ev_clock, e.ev_tid) in
        if not (Hashtbl.mem seen key) then begin
          Hashtbl.replace seen key ();
          let name =
            match thread_name_of e.ev_tid with
            | Some n -> n
            | None -> Printf.sprintf "thread-%d" e.ev_tid
          in
          Buffer.add_string buf
            (Printf.sprintf
               ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\"args\":{\"name\":\"%s\"}}"
               (fst key) e.ev_tid (json_escape name))
        end)
      evs;
    List.iter
      (fun e ->
        let b = try Hashtbl.find base e.ev_clock with Not_found -> 0.0 in
        let ts_us = (e.ev_ts -. b) *. 1e6 in
        let ph =
          match e.ev_phase with Span_begin -> "B" | Span_end -> "E" | Instant -> "i"
        in
        Buffer.add_string buf ",\n";
        Buffer.add_string buf
          (Printf.sprintf
             "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"%s\",\"ts\":%.3f,\"pid\":%d,\"tid\":%d"
             (json_escape e.ev_name)
             (json_escape (if e.ev_cat = "" then "span" else e.ev_cat))
             ph ts_us (pid_of e.ev_clock) e.ev_tid);
        (match e.ev_phase with Instant -> Buffer.add_string buf ",\"s\":\"t\"" | _ -> ());
        let args =
          if e.ev_trace <> 0 then
            e.ev_args
            @ [
                ("trace", string_of_int e.ev_trace);
                ("span", string_of_int e.ev_span);
                ("parent", string_of_int e.ev_parent);
              ]
          else e.ev_args
        in
        (match args with
        | [] -> ()
        | args ->
            Buffer.add_string buf ",\"args\":{";
            List.iteri
              (fun i (k, v) ->
                if i > 0 then Buffer.add_char buf ',';
                Buffer.add_string buf
                  (Printf.sprintf "\"%s\":\"%s\"" (json_escape k) (json_escape v)))
              args;
            Buffer.add_char buf '}');
        Buffer.add_char buf '}')
      evs;
    Buffer.add_string buf "\n]}\n";
    Buffer.contents buf

  let write_chrome path =
    let evs = export () in
    match validate evs with
    | Error _ as e -> e
    | Ok _ ->
        let oc = open_out path in
        output_string oc (to_chrome_json evs);
        close_out oc;
        Ok (List.length evs)
end

(* ------------------------- flight recorder ------------------------- *)

(* Always-on bounded ring of recent lifecycle events (migration flips,
   2PC decisions, server start/stop, fault fires).  Unlike [Trace] it is
   enabled by default and fed only from cold paths, so the cost is one
   latched append per *event of note*, never per statement.  On a crash
   — a [Fault] point firing or the server aborting — the ring is dumped
   to a file for post-mortem reading. *)
module Flight = struct
  type entry = { fl_ts : float; fl_tid : int; fl_cat : string; fl_msg : string }

  let capacity = 512

  let on = Atomic.make true

  let lock = Mutex.create ()

  let ring : entry option array = Array.make capacity None

  let next_slot = ref 0

  let total = ref 0

  let default_path =
    Filename.concat (Filename.get_temp_dir_name ()) "bullfrog-flight.dump"

  let dump_path = ref default_path

  let set_enabled b = Atomic.set on b

  let enabled () = Atomic.get on

  let set_path p = dump_path := p

  let path () = !dump_path

  let clear () =
    Mutex.lock lock;
    Array.fill ring 0 capacity None;
    next_slot := 0;
    total := 0;
    Mutex.unlock lock

  let note ~cat msg =
    if Atomic.get on then begin
      let ts = Unix.gettimeofday () in
      let tid = Thread.id (Thread.self ()) in
      Mutex.lock lock;
      ring.(!next_slot) <-
        Some { fl_ts = ts; fl_tid = tid; fl_cat = cat; fl_msg = msg };
      next_slot := (!next_slot + 1) mod capacity;
      incr total;
      Mutex.unlock lock
    end

  let notef ~cat fmt = Printf.ksprintf (fun msg -> note ~cat msg) fmt

  (* Surviving entries, oldest first. *)
  let entries () =
    Mutex.lock lock;
    let out = ref [] in
    for i = 0 to capacity - 1 do
      match ring.((!next_slot + i) mod capacity) with
      | Some e -> out := e :: !out
      | None -> ()
    done;
    Mutex.unlock lock;
    List.rev !out

  (* One-line-per-entry text format, TAB-separated with backslash
     escapes, headed by "BULLFROG-FLIGHT 1 <reason> <wall-ts> <count>".
     The same escaping as the wire protocol, inlined so the recorder has
     no dependency above bullfrog_util. *)
  let escape s =
    let buf = Buffer.create (String.length s + 8) in
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
         | c -> Buffer.add_char buf c);
         i := !i + 2
       end
       else begin
         Buffer.add_char buf s.[!i];
         incr i
       end)
    done;
    Buffer.contents buf

  let dump ?(reason = "manual") path =
    let es = entries () in
    let oc = open_out path in
    Printf.fprintf oc "BULLFROG-FLIGHT 1 %s %.6f %d\n" (escape reason)
      (Unix.gettimeofday ())
      (List.length es);
    List.iter
      (fun e ->
        Printf.fprintf oc "%.6f\t%d\t%s\t%s\n" e.fl_ts e.fl_tid
          (escape e.fl_cat) (escape e.fl_msg))
      es;
    close_out oc;
    List.length es

  (* Best-effort dump on the crash path: never raises, returns the path
     written (None when disabled or the write itself failed). *)
  let crash_dump ~reason =
    if not (Atomic.get on) then None
    else
      try
        let p = !dump_path in
        ignore (dump ~reason p : int);
        Some p
      with _ -> None

  let load path =
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let header = input_line ic in
        let reason =
          match String.split_on_char ' ' header with
          | "BULLFROG-FLIGHT" :: "1" :: reason :: _ -> unescape reason
          | _ -> failwith "Obs.Flight.load: bad header"
        in
        let es = ref [] in
        (try
           while true do
             let line = input_line ic in
             match String.split_on_char '\t' line with
             | [ ts; tid; cat; msg ] ->
                 es :=
                   {
                     fl_ts = float_of_string ts;
                     fl_tid = int_of_string tid;
                     fl_cat = unescape cat;
                     fl_msg = unescape msg;
                   }
                   :: !es
             | _ -> failwith "Obs.Flight.load: bad entry line"
           done
         with End_of_file -> ());
        (reason, List.rev !es))
end

(* ------------------------- stats providers ------------------------- *)

type stat = {
  st_source : string;
  st_name : string;
  st_fields : (string * float) list;
}

let providers : (string, unit -> stat list) Hashtbl.t = Hashtbl.create 16

let providers_lock = Mutex.create ()

let register_stats name thunk =
  Mutex.lock providers_lock;
  Hashtbl.replace providers name thunk;
  Mutex.unlock providers_lock

let unregister_stats name =
  Mutex.lock providers_lock;
  Hashtbl.remove providers name;
  Mutex.unlock providers_lock

let all_stats () =
  let thunks =
    Mutex.lock providers_lock;
    let l = Hashtbl.fold (fun name t acc -> (name, t) :: acc) providers [] in
    Mutex.unlock providers_lock;
    List.sort (fun (a, _) (b, _) -> compare a b) l
  in
  (* run thunks outside the registry latch: they take subsystem latches *)
  List.concat_map (fun (_, t) -> t ()) thunks

type snapshot = {
  snap_counters : Counters.snapshot;
  snap_stats : stat list;
}

let snapshot () = { snap_counters = Counters.snapshot (); snap_stats = all_stats () }

let render s =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "counters:\n";
  if s.snap_counters = [] then Buffer.add_string buf "  (none recorded)\n";
  List.iter
    (fun (k, v) -> Buffer.add_string buf (Printf.sprintf "  %-40s %d\n" k v))
    s.snap_counters;
  if s.snap_stats <> [] then Buffer.add_string buf "stats:\n";
  List.iter
    (fun st ->
      Buffer.add_string buf (Printf.sprintf "  %s/%s:" st.st_source st.st_name);
      List.iter
        (fun (k, v) ->
          if Float.is_integer v then
            Buffer.add_string buf (Printf.sprintf " %s=%.0f" k v)
          else Buffer.add_string buf (Printf.sprintf " %s=%.3f" k v))
        st.st_fields;
      Buffer.add_char buf '\n')
    s.snap_stats;
  Buffer.contents buf
