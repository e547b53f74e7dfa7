open Bullfrog_sql
open Bullfrog_db

module Vtbl = Hashtbl.Make (struct
  type t = Value.t

  let equal = Value.equal
  let hash = Value.hash
end)

(* Keys are filed and probed in one normal form, so that any two values
   [Value.equal] calls equal meet under one key: numbers as floats, dates
   as timestamps.  The form may also merge values that are not equal
   (two large ints rounding to one float); the re-test drops those. *)
let norm = function
  | Value.Int i -> Value.Float (float_of_int i)
  | Value.Date d -> Value.Timestamp (float_of_int d *. 86400.0)
  | v -> v

type map = {
  col : int;
  epoch : int;
  built_n : int;  (* TIDs below this were filed; the rest are scanned *)
  tids : int array Vtbl.t;  (* key -> its TIDs, ascending *)
}

type state = Empty | Building | Ready of map

type t = state Atomic.t

let c_probes = Obs.Counters.make "core.migrate.candidate_probes"

let c_builds = Obs.Counters.make "core.migrate.candidate_probe_builds"

let create () = Atomic.make Empty

let clear t = Atomic.set t Empty

(* The conjuncts the map can answer: [col = v] (either orientation) and
   [col IN (v1..vk)] over literals or bound parameters, as (column,
   values). *)
let eligible ?(params = [||]) heap where =
  let col c = Schema.col_index heap.Heap.schema c in
  let value e =
    match e with
    | Ast.Param i when i >= 1 && i <= Array.length params -> Some params.(i - 1)
    | _ -> Value.of_ast_literal e
  in
  let literals es =
    let vs = List.filter_map value es in
    if List.compare_lengths vs es = 0 then Some vs else None
  in
  List.filter_map
    (function
      | Ast.Binop (Ast.Eq, Ast.Col (_, c), e) | Ast.Binop (Ast.Eq, e, Ast.Col (_, c)) -> (
          match (col c, value e) with
          | Some i, Some v -> Some (i, [ v ])
          | _ -> None)
      | Ast.In_list (Ast.Col (_, c), es) -> (
          match (col c, literals es) with Some i, Some vs -> Some (i, vs) | _ -> None)
      | _ -> None)
    (Ast.conjuncts where)

(* File every TID of a pending granule under each key its versions carry.
   The walk takes the pending ranges the candidate scan would visit, so a
   granule migrated before the build is never filed — migrated is final. *)
let build heap bt ~col ~epoch =
  let n = Heap.tid_count heap in
  let lists : int list ref Vtbl.t = Vtbl.create 64 in
  let file tid row =
    if col < Array.length row && not (Value.is_null row.(col)) then
      let k = norm row.(col) in
      match Vtbl.find_opt lists k with
      | Some l -> ( match !l with t :: _ when t = tid -> () | _ -> l := tid :: !l)
      | None -> Vtbl.replace lists k (ref [ tid ])
  in
  let rec walk tid =
    if tid < n then
      match Bitmap_tracker.pending_tids bt tid with
      | None -> ()
      | Some (lo, hi) ->
          for tid = lo to min hi n - 1 do
            Heap.iter_versions heap tid (file tid)
          done;
          walk (max hi (lo + 1))
  in
  walk 0;
  let tids = Vtbl.create (Vtbl.length lists) in
  Vtbl.iter (fun k l -> Vtbl.replace tids k (Array.of_list (List.rev !l))) lists;
  { col; epoch; built_n = n; tids }

(* The filed TIDs under [vals] whose granule is still pending, ascending
   and without duplicates (a TID is filed under every key its chain
   carries, and an IN list may repeat a value). *)
let probe m bt vals =
  let pending tid =
    let g = Bitmap_tracker.granule_of_tid bt tid in
    g >= Bitmap_tracker.granule_count bt || not (Bitmap_tracker.is_migrated bt g)
  in
  let hits =
    List.filter_map
      (fun v -> if Value.is_null v then None else Vtbl.find_opt m.tids (norm v))
      vals
  in
  let keep a = Array.fold_right (fun tid acc -> if pending tid then tid :: acc else acc) a [] in
  match hits with
  | [] -> []
  | [ a ] -> keep a
  | many -> List.sort_uniq Int.compare (List.concat_map keep many)

let candidates ?params t txn heap bt ~epoch where (compiled : Access.pred) =
  if Bitmap_tracker.complete bt then begin
    clear t;
    None
  end
  else
    match Option.map (eligible ?params heap) where with
    | None | Some [] -> None
    | Some conjs -> (
        let map =
          match Atomic.get t with
          | Ready m when m.epoch = epoch -> Some m
          | Building -> None
          | (Empty | Ready _) as seen ->
              if not (Atomic.compare_and_set t seen Building) then None
              else begin
                let m =
                  try build heap bt ~col:(fst (List.hd conjs)) ~epoch
                  with e ->
                    clear t;
                    raise e
                in
                Obs.Counters.bump c_builds;
                ignore (Atomic.compare_and_set t Building (Ready m) : bool);
                Some m
              end
        in
        match map with
        | None -> None
        | Some m -> (
            match List.assoc_opt m.col conjs with
            | None -> None
            | Some vals ->
                Obs.Counters.bump c_probes;
                let filed =
                  Access.select_listed ?params ~latest:true txn heap compiled
                    (probe m bt vals)
                in
                let tail =
                  Access.select_tids ?params ~latest:true
                    ~ranges:(fun tid -> Bitmap_tracker.pending_tids bt (max tid m.built_n))
                    txn heap compiled
                in
                Some (filed @ tail)))
