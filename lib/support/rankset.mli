(** Fixed-capacity sets of small integers with rank/select.

    Membership is a {!Bitset}; a Fenwick tree over the elements indexes
    their ranks.  [add] and [remove] cost O(log n), [mem] and [count] O(1),
    [nth] (select by rank) O(log n), and iteration in increasing order
    O(n / 63 + count).

    The execution kernel keeps its write candidates and its awake nodes in
    these sets, and hands the candidates to adversaries as a read-only
    {!view}. *)

type t

val create : int -> t
(** [create n] is the empty set over universe [\[0, n)]. *)

val of_list : int -> int list -> t

val add : t -> int -> unit
(** No-op when already a member.  @raise Invalid_argument out of range. *)

val remove : t -> int -> unit
(** No-op when not a member.  @raise Invalid_argument out of range. *)

val copy : t -> t

(** {1 Read-only views} *)

type view
(** The same set, without the mutators.  A view is not a copy: it observes
    every later change to the set it was taken from. *)

val view : t -> view
(** O(1); allocates nothing. *)

val count : view -> int

val mem : view -> int -> bool
(** [false] outside the universe given to {!create}. *)

val nth : view -> int -> int
(** [nth s k] is the member of rank [k] (0-based, in increasing order).
    @raise Invalid_argument unless [0 <= k < count s]. *)

val iter : (int -> unit) -> view -> unit
(** Members in increasing order.  Removing members during the iteration
    is allowed; a removed member that shares a 63-bit word with the one
    being visited may still be visited. *)

val find_opt : (int -> bool) -> view -> int option
(** The smallest member satisfying the predicate; O(log n) per member
    tried. *)

val fold : (int -> 'a -> 'a) -> view -> 'a -> 'a
(** Members in increasing order. *)

val to_list : view -> int list
(** Sorted increasing. *)
