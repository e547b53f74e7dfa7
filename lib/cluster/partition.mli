(** Value-level partitioning of one table across the cluster's shards.

    Bridges the AST-only {!Bullfrog_analysis.Router} spec to the engine's
    runtime values: {!shard_of_value} places a row, {!route} prunes a
    predicate to candidate shards, and both are guaranteed to agree (the
    router's injected literal hash is exactly the hash {!shard_of_value}
    applies to stored values). *)

type t

val hash : column:string -> shards:int -> t
(** Row's home shard is [Value.hash key mod shards]. *)

val range : column:string -> Bullfrog_db.Value.t list -> t
(** [k] split points (sorted, deduplicated) give [k+1] shards: shard [i]
    holds keys in [splits.(i-1), splits.(i)) with open outer ends.  NULL
    keys land on shard 0.
    @raise Invalid_argument on an empty or NULL-containing split list. *)

val column : t -> string

val shard_count : t -> int

val spec : t -> Bullfrog_analysis.Router.spec

val shard_of_value : t -> Bullfrog_db.Value.t -> int

val shard_of_row : t -> Bullfrog_db.Schema.t -> Bullfrog_db.Value.t array -> int option
(** [None] when the table has no column of the partition's name. *)

val route :
  ?env:Bullfrog_analysis.Predicate.env ->
  ?params:Bullfrog_db.Value.t array ->
  t ->
  Bullfrog_sql.Ast.expr option ->
  int list
(** Candidate shards, ascending, for a WHERE clause whose [$n] are
    [params] (see {!Router.route}); a parameter the call does not
    supply is opaque. *)

val to_string : t -> string
