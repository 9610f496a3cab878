(** Fixed-capacity sets of small integers, packed 63 elements per word.

    Used for graph incidence vectors and board bookkeeping.  All operations
    check bounds; the capacity is fixed at creation. *)

type t

val create : int -> t
(** [create n] is the empty set over universe [\[0, n)]. *)

val capacity : t -> int

val mem : t -> int -> bool
val add : t -> int -> unit
val remove : t -> int -> unit

val set : t -> int -> bool -> unit
(** [set s i b] adds [i] when [b], removes it otherwise. *)

val cardinal : t -> int
val is_empty : t -> bool

val copy : t -> t
val equal : t -> t -> bool
val subset : t -> t -> bool
(** [subset a b] holds when every element of [a] is in [b].  Requires equal
    capacities. *)

val union_into : t -> t -> unit
(** [union_into dst src] sets [dst := dst ∪ src]. *)

val inter_into : t -> t -> unit
val diff_into : t -> t -> unit

val iter : (int -> unit) -> t -> unit
(** Iterates elements in increasing order.  Each word is read once, so the
    callback may remove elements; a removed element in the word being
    visited may still be visited. *)

val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a
val to_list : t -> int list
val of_list : int -> int list -> t
val to_array : t -> int array
val pp : Format.formatter -> t -> unit
