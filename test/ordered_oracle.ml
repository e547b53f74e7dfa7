(* The ordered index as it was before the B+-tree: a persistent
   [Map.Make (Key)] of TID lists.  Kept here only as the oracle the
   model test compares [Index]'s ordered store against, so its rules
   (a proper prefix sorts first, newest-first TID lists, which key an
   entry keeps) are the reference, not a second implementation in the
   engine. *)

open Bullfrog_db

module Key = struct
  type t = Value.t array

  let compare a b =
    let la = Array.length a and lb = Array.length b in
    let rec loop i =
      if i >= la && i >= lb then 0
      else if i >= la then -1
      else if i >= lb then 1
      else
        let c = Value.compare a.(i) b.(i) in
        if c <> 0 then c else loop (i + 1)
    in
    loop 0
end

module Omap = Map.Make (Key)

type t = { unique : bool; mutable map : int list Omap.t; mutable count : int }

let create ~unique = { unique; map = Omap.empty; count = 0 }

exception Duplicate

let insert_live t ~live key tid =
  match Omap.find_opt key t.map with
  | None ->
      t.map <- Omap.add key [ tid ] t.map;
      t.count <- t.count + 1
  | Some tids ->
      if t.unique && List.exists live tids then raise Duplicate;
      t.map <- Omap.add key (tid :: tids) t.map;
      t.count <- t.count + 1

let insert t key tid = insert_live t ~live:(fun _ -> true) key tid

let remove t key tid =
  match Omap.find_opt key t.map with
  | None -> ()
  | Some tids ->
      let rest = List.filter (fun x -> not (Int.equal x tid)) tids in
      t.count <- t.count - (List.length tids - List.length rest);
      if rest = [] then t.map <- Omap.remove key t.map else t.map <- Omap.add key rest t.map

let find t key = match Omap.find_opt key t.map with None -> [] | Some tids -> tids

let has_prefix key prefix =
  Array.length key >= Array.length prefix
  &&
  let rec loop i =
    i >= Array.length prefix || (Value.equal key.(i) prefix.(i) && loop (i + 1))
  in
  loop 0

let entry_kept keep tids = match keep with None -> true | Some f -> List.exists f tids

let min_with_prefix ?keep t prefix =
  let best = ref None in
  (try
     Omap.to_seq_from prefix t.map
     |> Seq.iter (fun (k, tids) ->
            if not (has_prefix k prefix) then raise Exit
            else if entry_kept keep tids then begin
              best := Some (k, tids);
              raise Exit
            end)
   with Exit -> ());
  !best

let max_with_prefix ?keep t prefix =
  let best = ref None in
  (try
     Omap.to_seq_from prefix t.map
     |> Seq.iter (fun (k, tids) ->
            if not (has_prefix k prefix) then raise Exit
            else if entry_kept keep tids then best := Some (k, tids))
   with Exit -> ());
  !best

let fold_prefix_range t ~prefix ?lo ?hi ~init ~f () =
  let start = match lo with None -> prefix | Some v -> Array.append prefix [| v |] in
  let acc = ref init in
  (try
     Omap.to_seq_from start t.map
     |> Seq.iter (fun (k, tids) ->
            if not (has_prefix k prefix) then raise Exit
            else begin
              let next =
                if Array.length k > Array.length prefix then Some k.(Array.length prefix)
                else None
              in
              let ok_hi =
                match (hi, next) with
                | None, _ | Some _, None -> true
                | Some h, Some v -> Value.compare v h < 0
              in
              if not ok_hi then raise Exit
              else
                let ok_lo =
                  match (lo, next) with
                  | None, _ -> true
                  | Some _, None -> false
                  | Some l, Some v -> Value.compare v l >= 0
                in
                if ok_lo then acc := f !acc k tids
            end)
   with Exit -> ());
  !acc

let key_count t = Omap.cardinal t.map
