(** Adversarial schedulers.

    Each round the engine hands the adversary the set of nodes that are
    active and have not yet written, as a read-only
    {!Wb_support.Rankset.view}; the adversary picks the one whose message
    is appended to the whiteboard.  The strategies below select by rank,
    in O(log n) and without building a list.  A protocol solves a problem only
    if it succeeds under {e every} adversary, so tests combine the strategies
    here with the exhaustive exploration of {!Engine}. *)

type t

val name : t -> string
val choose : t -> Board.t -> Wb_support.Rankset.view -> int
(** [choose adv board candidates] returns a member of [candidates].
    @raise Invalid_argument if [candidates] is empty or the strategy picks
    a non-member (checked in O(1)). *)

val min_id : t
(** Always the smallest identifier (rank 0) — the "polite" schedule many
    protocols implicitly think in. *)

val max_id : t
val random : Wb_support.Prng.t -> t
(** Uniform among candidates: one [Prng.int rng count] draw, then the
    candidate of that rank.  Stateful, so reuse across runs gives fresh
    draws. *)

val by_priority : int array -> t
(** [by_priority prio] picks the candidate with the largest [prio.(v)].
    With [prio] a permutation this realises any fixed preference order. *)

val last_writer_neighbor_avoider : Wb_graph.Graph.t -> t
(** A spiteful heuristic: prefers candidates {e not} adjacent to the previous
    writer (stress-tests layer-completion certificates in BFS protocols). *)

val alternating_extremes : t
(** The smallest candidate when the board holds an even number of
    messages, the largest otherwise. *)
