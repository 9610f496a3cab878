(** Shared machinery of the layer-by-layer BFS protocols (Theorems 7 and 10,
    Corollary 4).

    All three protocols activate nodes one BFS layer at a time, using the
    whiteboard itself as the synchronisation certificate: a node of layer
    [l] becomes active only when the edge-counting identity proving "layer
    [l - 1] has completely written" holds.  They differ in two switches:

    - [with_d0]: general graphs need the within-layer degree [d0] (composed
      at {e write} time, hence SYNC); bipartite runs drop it;
    - [check_parity]: EOB-BFS rejects when a node sees a same-parity
      neighbour (paper identifiers), which also rescues termination on
      non-even-odd-bipartite inputs.

    Layer sums are tracked {e per component} (components are delimited on
    the board by ROOT messages); the paper's prose sums over layers
    globally, which deadlocks after the first isolated-plus-nonisolated
    component pattern — see DESIGN.md, substitutions.

    Messages: one kind bit, then [(ID, layer, parent, d-1, \[d0,\] d+1)]
    with [parent = 0] meaning ROOT, or just [ID] for "invalid graph"
    markers. *)

type variant = { with_d0 : bool; check_parity : bool }

type entry =
  | Invalid of int  (** author's paper id. *)
  | Node of { id : int; layer : int; parent : int; dm : int; d0 : int; dp : int }

val write_entry : variant -> entry -> Wb_support.Bitbuf.Writer.t
val parse_message : variant -> Wb_model.Message.t -> entry
val message_bound : variant -> n:int -> int

(** Incrementally maintained digest of the board, memoised on the board's
    identity through {!Wb_model.Board.set_memo}: each board (the engine's,
    and every client replica of a networked session) keeps its own digest,
    repeated queries per round only parse the messages appended since the
    last one, and a truncation makes the next query rebuild it. *)
module Analysis : sig
  type t

  val get : variant -> Wb_model.Board.t -> t
  val invalid_seen : t -> bool
  val layer_of : t -> paper_id:int -> int option
  val complete : t -> int -> bool
  (** Layer [k] of the current component has fully written (edge-count
      certificate); [true] for [k <= 0]. *)

  val no_forward : t -> int -> bool
  (** No edges leave layer [k] of the current component. *)

  val last_normal : t -> (int * int) option
  (** [(paper id, layer)] of the most recent non-invalid message. *)

  val min_unwritten : t -> int option
  (** Smallest node index that has not written. *)
end

val locally_invalid : Wb_model.View.t -> bool
(** Some neighbour shares the node's identifier parity. *)

val wants_to_activate : variant -> Wb_model.View.t -> Wb_model.Board.t -> bool
val compose_entry : variant -> Wb_model.View.t -> Wb_model.Board.t -> entry
val output_forest : variant -> n:int -> Wb_model.Board.t -> Wb_model.Answer.t
val count_roots : variant -> n:int -> Wb_model.Board.t -> int option
(** Number of ROOT messages on a fully-written, invalid-free board; [None]
    if the board is malformed or contains invalid markers. *)
