open Bullfrog_db
open Bullfrog_analysis

type t = {
  spec : Router.spec;
  splits : Value.t list;  (* range split points as values, ascending *)
}

let hash ~column ~shards =
  if shards < 1 then invalid_arg "Partition.hash: shards must be >= 1";
  { spec = Router.Hash { column = String.lowercase_ascii column; shards }; splits = [] }

let range ~column splits =
  if splits = [] then invalid_arg "Partition.range: needs at least one split point";
  if List.exists Value.is_null splits then
    invalid_arg "Partition.range: NULL split point";
  let splits = List.sort_uniq Value.compare splits in
  {
    spec =
      Router.validate
        (Router.Range
           {
             column = String.lowercase_ascii column;
             splits = List.map Value.to_ast_literal splits;
           });
    splits;
  }

let column t = Router.column t.spec

let shard_count t = Router.shard_count t.spec

let spec t = t.spec

(* The injected literal hash for AST-level routing: evaluate the literal
   to a runtime value and hash it — the same function [shard_of_value]
   applies to stored rows, so predicate routing and row placement agree. *)
let ast_hash lit = Option.map Value.hash (Value.of_ast_literal lit)

let shard_of_value t v =
  match t.spec with
  | Router.Hash { shards; _ } -> (Value.hash v land max_int) mod shards
  | Router.Range _ ->
      (* shard i holds keys in [splits.(i-1), splits.(i)); NULLs compare
         below every split under Value.compare, landing on shard 0 *)
      List.length (List.filter (fun s -> Value.compare s v <= 0) t.splits)

let shard_of_row t schema row =
  match Schema.col_index schema (column t) with
  | None -> None
  | Some i -> Some (shard_of_value t row.(i))

(* Routing reads [$n] from the call's parameters through the analysis
   env, as the literals a bound copy of the WHERE would hold. *)
let route ?(env = Predicate.top_env) ?params t where =
  let env =
    match params with
    | None -> env
    | Some ps ->
        let param i =
          if i >= 1 && i <= Array.length ps then Some (Value.to_ast_literal ps.(i - 1))
          else None
        in
        { env with Predicate.param }
  in
  Router.route ~env ~hash:ast_hash t.spec where

let to_string t =
  match t.spec with
  | Router.Hash { column; shards } -> Printf.sprintf "hash(%s) %% %d" column shards
  | Router.Range { column; _ } ->
      Printf.sprintf "range(%s) [%s]" column
        (String.concat "; " (List.map Value.to_string t.splits))
