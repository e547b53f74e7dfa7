(** Growable arrays.

    OCaml 5.1 does not ship [Dynarray]; this is the subset the engine needs:
    amortised O(1) push, O(1) random access, and in-place truncation.  Not
    thread-safe; callers synchronise externally (the heap protects appends
    with the table latch). *)

type 'a t = private {
  mutable data : 'a array;  (** backing store; [Array.length data >= len] always *)
  mutable len : int;
}
(** Read-only outside this module.  A hot loop may index [data] directly
    for [i < len]: every reallocation installs an array at least as long
    as the current length, so reading the field afresh per access stays
    in bounds as long as the vector has not been truncated meanwhile. *)

val create : unit -> 'a t

val make : int -> 'a -> 'a t
(** [make n x] is a vector of length [n] filled with [x]. *)

val length : 'a t -> int

val get : 'a t -> int -> 'a
(** O(1). @raise Invalid_argument when out of bounds. *)

val set : 'a t -> int -> 'a -> unit

val push : 'a t -> 'a -> unit

val reserve : 'a t -> int -> 'a -> unit
(** [reserve v n x] pre-grows capacity so the next [n] pushes need no
    reallocation; [x] is the filler for unused capacity.  Length is
    unchanged. *)

val pop : 'a t -> 'a option
(** Removes and returns the last element. *)

val truncate : 'a t -> int -> unit
(** [truncate v n] shrinks [v] to its first [n] elements. *)

val clear : 'a t -> unit

val iter : ('a -> unit) -> 'a t -> unit

val iteri : (int -> 'a -> unit) -> 'a t -> unit

val fold_left : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc

val exists : ('a -> bool) -> 'a t -> bool

val to_list : 'a t -> 'a list

val of_list : 'a list -> 'a t

val to_array : 'a t -> 'a array
