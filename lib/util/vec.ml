type 'a t = {
  mutable data : 'a array;
  mutable len : int;
}

let create () = { data = [||]; len = 0 }

let make n x = { data = Array.make (max n 1) x; len = n }

let length v = v.len

let check v i =
  if i < 0 || i >= v.len then
    invalid_arg (Printf.sprintf "Vec: index %d out of bounds [0,%d)" i v.len)

let get v i =
  check v i;
  Array.unsafe_get v.data i

let set v i x =
  check v i;
  Array.unsafe_set v.data i x

let grow v x =
  let cap = Array.length v.data in
  let cap' = if cap = 0 then 8 else cap * 2 in
  let data' = Array.make cap' x in
  Array.blit v.data 0 data' 0 v.len;
  v.data <- data'

let push v x =
  if v.len = Array.length v.data then grow v x;
  Array.unsafe_set v.data v.len x;
  v.len <- v.len + 1

let reserve v n x =
  if n < 0 then invalid_arg "Vec.reserve";
  let want = v.len + n in
  let cap = Array.length v.data in
  if want > cap then begin
    let cap' =
      let rec dbl c = if c >= want then c else dbl (c * 2) in
      dbl (max cap 8)
    in
    let data' = Array.make cap' x in
    Array.blit v.data 0 data' 0 v.len;
    v.data <- data'
  end

let pop v =
  if v.len = 0 then None
  else begin
    v.len <- v.len - 1;
    Some (Array.unsafe_get v.data v.len)
  end

let truncate v n =
  if n < 0 || n > v.len then invalid_arg "Vec.truncate";
  v.len <- n

let clear v = v.len <- 0

let iter f v =
  for i = 0 to v.len - 1 do
    f (Array.unsafe_get v.data i)
  done

let iteri f v =
  for i = 0 to v.len - 1 do
    f i (Array.unsafe_get v.data i)
  done

let fold_left f acc v =
  let acc = ref acc in
  for i = 0 to v.len - 1 do
    acc := f !acc (Array.unsafe_get v.data i)
  done;
  !acc

let exists p v =
  let rec loop i = i < v.len && (p (Array.unsafe_get v.data i) || loop (i + 1)) in
  loop 0

let to_list v =
  let rec loop i acc = if i < 0 then acc else loop (i - 1) (get v i :: acc) in
  loop (v.len - 1) []

let of_list xs =
  let v = create () in
  List.iter (push v) xs;
  v

let to_array v = Array.init v.len (fun i -> Array.unsafe_get v.data i)
