open Bullfrog_sql

type entry = Table of Heap.t | View of Ast.select

type t = {
  entries : (string, entry) Hashtbl.t;
  index_owners : (string, string) Hashtbl.t;  (* index name -> table name *)
  mutable next_tbl_id : int;
  mutable epoch : int;
      (* Schema epoch: bumped on every DDL / catalog mutation (and
         explicitly on BullFrog migration flips).  Cached query plans
         are tagged with the epoch they were built under and discarded
         when it moves. *)
}

let create () =
  {
    entries = Hashtbl.create 64;
    index_owners = Hashtbl.create 64;
    next_tbl_id = 0;
    epoch = 0;
  }

let epoch t = t.epoch
let bump_epoch t = t.epoch <- t.epoch + 1

let norm = String.lowercase_ascii

let exists t name = Hashtbl.mem t.entries (norm name)

let check_free t name =
  if exists t name then Db_error.sql_error "relation %S already exists" name

let create_table t name schema =
  let name = norm name in
  check_free t name;
  let heap = Heap.create ~tbl_id:t.next_tbl_id ~name schema in
  t.next_tbl_id <- t.next_tbl_id + 1;
  Hashtbl.replace t.entries name (Table heap);
  bump_epoch t;
  heap

let add_table t heap =
  let name = norm heap.Heap.name in
  check_free t name;
  Hashtbl.replace t.entries name (Table heap);
  bump_epoch t

let create_view t name query =
  let name = norm name in
  check_free t name;
  Hashtbl.replace t.entries name (View query);
  bump_epoch t

(* Index names are catalog-wide; a dropped or renamed table takes its
   index registrations along. *)
let move_indexes t ~from ~into =
  Hashtbl.filter_map_inplace
    (fun _ owner -> if owner = from then into else Some owner)
    t.index_owners

let drop t name =
  let name = norm name in
  if not (Hashtbl.mem t.entries name) then
    Db_error.sql_error "relation %S does not exist" name;
  Hashtbl.remove t.entries name;
  move_indexes t ~from:name ~into:None;
  bump_epoch t

let rename_table t old_name new_name =
  let old_name = norm old_name and new_name = norm new_name in
  match Hashtbl.find_opt t.entries old_name with
  | Some (Table heap) ->
      check_free t new_name;
      Hashtbl.remove t.entries old_name;
      heap.Heap.name <- new_name;
      Hashtbl.replace t.entries new_name (Table heap);
      move_indexes t ~from:old_name ~into:(Some new_name);
      (* Foreign keys reference tables by name; follow the rename. *)
      Hashtbl.iter
        (fun _ entry ->
          match entry with
          | View _ -> ()
          | Table h ->
              let schema = h.Heap.schema in
              schema.Schema.constraints <-
                List.map
                  (fun c ->
                    match c with
                    | Schema.Foreign_key fk when fk.Schema.fk_ref_table = old_name ->
                        Schema.Foreign_key { fk with Schema.fk_ref_table = new_name }
                    | _ -> c)
                  schema.Schema.constraints)
        t.entries;
      bump_epoch t
  | Some (View _) -> Db_error.sql_error "%S is a view, not a table" old_name
  | None -> Db_error.sql_error "relation %S does not exist" old_name

let find_table t name =
  match Hashtbl.find_opt t.entries (norm name) with
  | Some (Table heap) -> Some heap
  | Some (View _) | None -> None

let find_table_exn t name =
  match find_table t name with
  | Some heap -> heap
  | None -> Db_error.sql_error "table %S does not exist" name

let find_view t name =
  match Hashtbl.find_opt t.entries (norm name) with
  | Some (View q) -> Some q
  | Some (Table _) | None -> None

let table_names t =
  Hashtbl.fold
    (fun name entry acc -> match entry with Table _ -> name :: acc | View _ -> acc)
    t.entries []
  |> List.sort String.compare

let register_index t ~table idx =
  let iname = norm (Index.name idx) in
  if Hashtbl.mem t.index_owners iname then
    Db_error.sql_error "index %S already exists" iname;
  Hashtbl.replace t.index_owners iname (norm table);
  bump_epoch t

let drop_index t name =
  let name = norm name in
  match Hashtbl.find_opt t.index_owners name with
  | None -> Db_error.sql_error "index %S does not exist" name
  | Some table -> (
      Hashtbl.remove t.index_owners name;
      bump_epoch t;
      match find_table t table with
      | None -> ()
      | Some heap -> ignore (Heap.drop_index heap name : bool))

let index_owner t name = Hashtbl.find_opt t.index_owners (norm name)
