type t =
  | Null
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool
  | Date of int
  | Timestamp of float

let rank = function
  | Null -> 0
  | Bool _ -> 1
  | Int _ | Float _ -> 2
  | Str _ -> 3
  | Date _ -> 4
  | Timestamp _ -> 5

let compare a b =
  match (a, b) with
  | Null, Null -> 0
  | Int x, Int y -> Stdlib.compare x y
  | Float x, Float y -> Stdlib.compare x y
  | Int x, Float y -> Stdlib.compare (float_of_int x) y
  | Float x, Int y -> Stdlib.compare x (float_of_int y)
  | Str x, Str y -> String.compare x y
  | Bool x, Bool y -> Stdlib.compare x y
  | Date x, Date y -> Stdlib.compare x y
  | Timestamp x, Timestamp y -> Stdlib.compare x y
  | Date x, Timestamp y -> Stdlib.compare (float_of_int x *. 86400.0) y
  | Timestamp x, Date y -> Stdlib.compare x (float_of_int y *. 86400.0)
  | _ -> Stdlib.compare (rank a) (rank b)

let equal a b = compare a b = 0

let identical a b =
  a == b
  ||
  match (a, b) with
  | Null, Null -> true
  | Int x, Int y | Date x, Date y -> Int.equal x y
  | Float x, Float y | Timestamp x, Timestamp y ->
      Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | Str x, Str y -> String.equal x y
  | Bool x, Bool y -> Bool.equal x y
  | _ -> false

let hash = function
  | Null -> 0
  | Int i -> Hashtbl.hash (float_of_int i) (* so Int 2 and Float 2. collide *)
  | Float f -> Hashtbl.hash f
  | Str s -> Hashtbl.hash s
  | Bool b -> Hashtbl.hash b
  | Date d -> Hashtbl.hash (`D d)
  | Timestamp ts -> Hashtbl.hash (`T ts)

let hash_key key =
  Array.fold_left (fun acc v -> (acc * 31) + hash v) 17 key

let is_null = function Null -> true | _ -> false

let float_repr f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.6g" f

let days_per_400y = 146097

(* Howard Hinnant's civil-from-days / days-from-civil algorithms. *)
let days_of_ymd y m d =
  let y = if m <= 2 then y - 1 else y in
  let era = (if y >= 0 then y else y - 399) / 400 in
  let yoe = y - (era * 400) in
  let mp = (m + 9) mod 12 in
  let doy = (((153 * mp) + 2) / 5) + d - 1 in
  let doe = (yoe * 365) + (yoe / 4) - (yoe / 100) + doy in
  (era * days_per_400y) + doe - 719468

let ymd_of_days z =
  let z = z + 719468 in
  let era = (if z >= 0 then z else z - (days_per_400y - 1)) / days_per_400y in
  let doe = z - (era * days_per_400y) in
  let yoe = (doe - (doe / 1460) + (doe / 36524) - (doe / 146096)) / 365 in
  let y = yoe + (era * 400) in
  let doy = doe - ((365 * yoe) + (yoe / 4) - (yoe / 100)) in
  let mp = ((5 * doy) + 2) / 153 in
  let d = doy - (((153 * mp) + 2) / 5) + 1 in
  let m = if mp < 10 then mp + 3 else mp - 9 in
  ((if m <= 2 then y + 1 else y), m, d)

let date_of_ymd y m d = Date (days_of_ymd y m d)

let to_string = function
  | Null -> "NULL"
  | Int i -> string_of_int i
  | Float f -> float_repr f
  | Str s -> s
  | Bool b -> if b then "true" else "false"
  | Date d ->
      let y, m, dd = ymd_of_days d in
      Printf.sprintf "%04d-%02d-%02d" y m dd
  | Timestamp ts ->
      let days = int_of_float (Float.floor (ts /. 86400.0)) in
      let rem = ts -. (float_of_int days *. 86400.0) in
      let secs = int_of_float rem in
      let y, m, d = ymd_of_days days in
      Printf.sprintf "%04d-%02d-%02d %02d:%02d:%02d" y m d (secs / 3600)
        (secs mod 3600 / 60) (secs mod 60)

let to_sql v =
  match v with
  | Str s ->
      let buf = Buffer.create (String.length s + 2) in
      Buffer.add_char buf '\'';
      String.iter
        (fun c -> if c = '\'' then Buffer.add_string buf "''" else Buffer.add_char buf c)
        s;
      Buffer.add_char buf '\'';
      Buffer.contents buf
  | Date _ | Timestamp _ -> Printf.sprintf "'%s'" (to_string v)
  | Null | Int _ | Float _ | Bool _ -> to_string v

let type_name = function
  | Null -> "null"
  | Int _ -> "int"
  | Float _ -> "float"
  | Str _ -> "string"
  | Bool _ -> "bool"
  | Date _ -> "date"
  | Timestamp _ -> "timestamp"

let of_ast_literal e =
  let open Bullfrog_sql.Ast in
  match e with
  | Null_lit -> Some Null
  | Int_lit i -> Some (Int i)
  | Float_lit f -> Some (Float f)
  | Str_lit s -> Some (Str s)
  | Bool_lit b -> Some (Bool b)
  | Unop (Neg, Int_lit i) -> Some (Int (-i))
  | Unop (Neg, Float_lit f) -> Some (Float (-.f))
  | Param _ | Col _ | Binop _ | Unop _ | Fn _ | Agg _ | Case _ | In_list _
  | Between _ | Is_null _ | Exists _ | Scalar_subquery _ ->
      None

let to_ast_literal v =
  let open Bullfrog_sql.Ast in
  match v with
  | Null -> Null_lit
  | Int i -> Int_lit i
  | Float f -> Float_lit f
  | Str s -> Str_lit s
  | Bool b -> Bool_lit b
  | Date _ -> Str_lit (to_string v)
  | Timestamp _ -> Str_lit (to_string v)

let parse_date s =
  try Scanf.sscanf s "%d-%d-%d" (fun y m d -> Some (days_of_ymd y m d))
  with Scanf.Scan_failure _ | Failure _ | End_of_file -> None

let parse_timestamp s =
  try
    Scanf.sscanf s "%d-%d-%d %d:%d:%d" (fun y m d hh mm ss ->
        Some
          ((float_of_int (days_of_ymd y m d) *. 86400.0)
          +. float_of_int ((hh * 3600) + (mm * 60) + ss)))
  with Scanf.Scan_failure _ | Failure _ | End_of_file -> (
    match parse_date s with
    | Some days -> Some (float_of_int days *. 86400.0)
    | None -> None)

let rec coerce ty v =
  let open Bullfrog_sql.Ast in
  let fail () =
    Error
      (Printf.sprintf "cannot coerce %s value %s to %s" (type_name v)
         (to_string v)
         (Bullfrog_sql.Pretty.type_to_string ty))
  in
  match (ty, v) with
  | _, Null -> Ok Null
  | (T_int | T_decimal (_, 0)), Int _ -> Ok v
  | (T_int | T_decimal (_, 0)), Float f when Float.is_integer f ->
      Ok (Int (int_of_float f))
  | T_int, Float f -> Ok (Int (int_of_float (Float.round f)))
  | (T_float | T_decimal _), Int i -> Ok (Float (float_of_int i))
  | (T_float | T_decimal _), Float _ -> Ok v
  | T_bool, Bool _ -> Ok v
  | T_text, Str _ -> Ok v
  | (T_char n | T_varchar n), Str s ->
      if String.length s <= n then Ok v
      else Error (Printf.sprintf "value %S too long for %s" s (Bullfrog_sql.Pretty.type_to_string ty))
  | T_date, Date _ -> Ok v
  | T_date, Timestamp ts -> Ok (Date (int_of_float (Float.floor (ts /. 86400.0))))
  | T_date, Str s -> (
      match parse_date s with Some d -> Ok (Date d) | None -> fail ())
  | T_timestamp, Timestamp _ -> Ok v
  | T_timestamp, Date d -> Ok (Timestamp (float_of_int d *. 86400.0))
  | T_timestamp, Str s -> (
      match parse_timestamp s with Some ts -> Ok (Timestamp ts) | None -> fail ())
  | T_timestamp, Float f -> Ok (Timestamp f)
  | (T_int | T_float | T_decimal _), Str s -> (
      match int_of_string_opt s with
      | Some i -> coerce_num ty i
      | None -> (
          match float_of_string_opt s with
          | Some f -> Ok (if ty = T_int then Int (int_of_float f) else Float f)
          | None -> fail ()))
  | _ -> fail ()

and coerce_num ty i =
  match ty with
  | Bullfrog_sql.Ast.T_int -> Ok (Int i)
  | _ -> Ok (Float (float_of_int i))

let extract field v =
  match v with
  | Null -> Null
  | Date _ | Timestamp _ ->
      let days =
        match v with
        | Date d -> d
        | Timestamp ts -> int_of_float (Float.floor (ts /. 86400.0))
        | _ -> assert false
      in
      let y, m, d = ymd_of_days days in
      (match field with
      | "year" -> Int y
      | "month" -> Int m
      | "day" -> Int d
      | "dow" -> Int (((days mod 7) + 7 + 4) mod 7) (* 1970-01-01 was a Thursday *)
      | "epoch" -> (
          match v with
          | Timestamp ts -> Float ts
          | _ -> Float (float_of_int days *. 86400.0))
      | other -> failwith (Printf.sprintf "EXTRACT: unknown field %S" other))
  | other ->
      failwith
        (Printf.sprintf "EXTRACT: expected date/timestamp, got %s" (type_name other))
