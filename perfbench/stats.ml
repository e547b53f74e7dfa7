(* Clock, sample sets, percentiles and the JSON the benchmark prints. *)

(* Seconds on the nanosecond monotonic clock. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* Growable float buffer: latency samples are appended in the hot loop,
   so it must not allocate per sample. *)
type samples = { mutable data : float array; mutable len : int }

let samples () = { data = Array.make 1024 0.0; len = 0 }

let add s x =
  if s.len = Array.length s.data then begin
    let bigger = Array.make (2 * s.len) 0.0 in
    Array.blit s.data 0 bigger 0 s.len;
    s.data <- bigger
  end;
  s.data.(s.len) <- x;
  s.len <- s.len + 1

let count s = s.len

let concat l =
  let out = samples () in
  List.iter
    (fun s ->
      for i = 0 to s.len - 1 do
        add out s.data.(i)
      done)
    l;
  out

(* Nearest-rank percentile ([q] in [0,1]); 0 when empty. *)
let pct s q =
  if s.len = 0 then 0.0
  else begin
    let a = Array.sub s.data 0 s.len in
    Array.sort compare a;
    let r = int_of_float (Float.ceil (q *. float_of_int s.len)) in
    a.(max 0 (min (s.len - 1) (r - 1)))
  end

(* Samples strictly above the [q]-percentile's rank: what a percentile
   rests on. *)
let beyond n q = n - int_of_float (Float.ceil (q *. float_of_int n))

let sum s =
  let t = ref 0.0 in
  for i = 0 to s.len - 1 do
    t := !t +. s.data.(i)
  done;
  !t

let median_list = function
  | [] -> 0.0
  | l ->
      let a = Array.of_list l in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* -- JSON ----------------------------------------------------------- *)

type json =
  | Num of float
  | Int of int
  | Bool of bool
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

let quote s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let rec to_string = function
  | Num f ->
      if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
      else if Float.is_finite f then Printf.sprintf "%.17g" f
      else "null"
  | Int i -> string_of_int i
  | Bool b -> string_of_bool b
  | Str s -> quote s
  | Arr l -> "[" ^ String.concat ", " (List.map to_string l) ^ "]"
  | Obj l ->
      "{"
      ^ String.concat ", "
          (List.map (fun (k, v) -> quote k ^ ": " ^ to_string v) l)
      ^ "}"

(* What each percentile metric of a run rests on, for the result header:
   its sample count and the samples beyond it. *)
let evidence : (string * json) list ref = ref []

let note_evidence name ~samples q =
  evidence := (name, Obj [ ("samples", Int samples); ("beyond", Int (beyond samples q)) ]) :: !evidence

(* Metric [name]: the [q]-percentile of [s] times [scale], its evidence
   noted. *)
let pct_metric name ~scale s q =
  note_evidence name ~samples:(count s) q;
  (name, pct s q *. scale)
