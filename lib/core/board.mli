(** The shared whiteboard: an append-only sequence of messages.

    Protocols read it; only the execution engine appends.  Each node may
    appear as author at most once (the engine maintains this invariant —
    "each node is allowed to write exactly one message"). *)

type t

val create : int -> t
(** [create n] is an empty board for an n-node system. *)

val n : t -> int
val length : t -> int
(** Messages written so far. *)

val get : t -> int -> Message.t
(** In write order, 0-based. *)

val find_author : t -> int -> Message.t option
val has_author : t -> int -> bool
val last : t -> Message.t option
val iter : (Message.t -> unit) -> t -> unit
(** In write order. *)

val fold : ('a -> Message.t -> 'a) -> 'a -> t -> 'a
val to_list : t -> Message.t list
val authors_in_order : t -> int array

val append : t -> Message.t -> unit
(** Engine use only.  @raise Invalid_argument if the author already wrote. *)

val snapshot_length : t -> int
val truncate : t -> int -> unit
(** Engine use only (backtracking exhaustive exploration). *)

val equal : t -> t -> bool
(** Same size and the same messages (author and payload bits) in the same
    write order — the equality the remote-vs-local differential checks use. *)

val generation : t -> int
(** Bumped on every [truncate]: lets incremental observers detect that
    previously-read positions may have been rewritten. *)

type memo = ..
(** A reader's digest of the board, cached on the board itself; the module
    that computes one extends this type with its own constructor. *)

val memo : t -> memo option
(** The memo last attached by {!set_memo}, if no {!truncate} came after it. *)

val set_memo : t -> memo -> unit
(** Attach a memo, replacing any earlier one.  The contract: {!append}
    keeps the memo, so a reader that records how many positions it has
    read catches up on the appended ones; {!truncate} drops it, since
    positions already read may then be rewritten.  {!equal} ignores the
    memo.  A memo must not refer to its board: the board would then be
    cyclic, and structural equality on values holding boards (runs,
    replicas) would not terminate. *)

val total_bits : t -> int
(** Payload bits of every message on the board; O(1), kept as a running
    total by [append] and [truncate]. *)

val max_message_bits : t -> int
val pp : Format.formatter -> t -> unit
