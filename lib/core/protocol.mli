(** The interface every whiteboard protocol implements.

    The engine interprets a protocol under the semantics of its declared
    {!Model.t}:

    - In simultaneous models, [wants_to_activate] is ignored: every node is
      activated in round one.
    - In frozen (asynchronous) models, [compose] is called exactly once, at
      activation time, and the resulting message is what the adversary will
      eventually write — however much later that happens.
    - In synchronous models, [compose] is called for every active node at
      every round (with the current board), threading [local]; the message
      on the adversary's chosen node is the one composed that round.

    [local] must be treated as a pure value: exhaustive exploration snapshots
    and restores it, so protocols must not hide mutable state inside. *)

(** Semantic declarations the canonical explorer ({!Engine.Make.verify})
    relies on.  They are promises about the protocol's {e meaning} that the
    type system cannot check; the qcheck differential suite pins each
    declared protocol against plain enumeration ({!opaque}) (the same
    contract shape as SPIN's scalarsets), and the test suite checks that
    enumeration against a list specification of the paper's semantics.  A protocol that declares nothing
    ({!Traits.opaque}) is always explored by plain enumeration. *)
module Traits : sig
  type t = {
    confluent : Wb_graph.Graph.t -> bool;
        (** [confluent g] promises that, on instance [g], the protocol's
            three hooks depend on the board only through its {e multiset} of
            messages — never on write order — and that [local] carries no
            information beyond what [init] and the hooks' visible inputs
            determine.  Under that promise two schedule prefixes reaching
            the same configuration (statuses, memories, board content,
            round) have identical futures, so the explorer may merge them.
            Instance-dependent on purpose: the BFS family reads the last
            written entry only to jump components, so it is confluent
            exactly on connected inputs. *)
    symmetry_fixed : (Wb_graph.Graph.t -> int list) option;
        (** [Some fixed] additionally promises equivariance: for every graph
            automorphism [σ] fixing the nodes of [fixed g] pointwise,
            relabelling an execution by [σ] yields an execution of the same
            protocol with relabelled messages, and validity of outcomes is
            preserved.  The explorer then prunes schedules to stabilizer
            orbit representatives.  [None] for protocols with node-identity
            tie-breaks (e.g. lowest-id parent selection). *)
  }

  val opaque : t
  (** No promises: enumerative exploration only. *)

  val canonical : ?symmetry_fixed:(Wb_graph.Graph.t -> int list) -> unit -> t
  (** Confluent on every instance. *)

  val canonical_when :
    ?symmetry_fixed:(Wb_graph.Graph.t -> int list) -> (Wb_graph.Graph.t -> bool) -> t
  (** Confluent exactly where the predicate holds. *)
end

module type S = sig
  val name : string
  val model : Model.t

  val message_bound : n:int -> int
  (** Maximum payload size in bits for systems of [n] nodes — the protocol's
      [f(n)].  The engine fails the run if a written message exceeds it. *)

  val traits : Traits.t
  (** What the canonical explorer may assume; {!Traits.opaque} is always a
      safe declaration. *)

  type local

  val init : View.t -> local
  (** Local memory before round one. *)

  val wants_to_activate : View.t -> Board.t -> local -> bool
  (** Activation decision for awake nodes (free models only). *)

  val compose : View.t -> Board.t -> local -> Wb_support.Bitbuf.Writer.t * local
  (** Create (or, in synchronous models, re-create) the node's message. *)

  val output : n:int -> Board.t -> Answer.t
  (** Computed from the final board only. *)
end

type t = (module S)

val name : t -> string
val model : t -> Model.t
val traits : t -> Traits.t

val opaque : t -> t
(** The same protocol declaring {!Traits.opaque}: what forces
    {!Engine.Make.verify} to enumerate every schedule. *)
