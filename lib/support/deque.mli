(** Work-stealing deque.

    One domain (the {e owner}) pushes and pops at the bottom; any other
    domain may {!steal} from the top.  The owner end behaves like a stack
    (LIFO — depth-first task order, bounded frontier memory), the thief end
    like a queue (FIFO — thieves take the oldest, typically largest,
    subtree).

    Concurrency contract: two lists and a count behind one [Mutex]; every
    operation runs under it ({!Sync.with_lock}), so [push], [pop], [steal]
    and [size] are linearizable from any domain and every pushed element
    is returned by exactly one [pop] or [steal]. *)

type 'a t

val create : unit -> 'a t

val push : 'a t -> 'a -> unit
(** Add at the bottom. *)

val pop : 'a t -> 'a option
(** Remove the most recently pushed remaining element; [None] when empty. *)

val steal : 'a t -> 'a option
(** Remove the oldest remaining element; [None] when empty. *)

val size : 'a t -> int
(** Elements held. *)
