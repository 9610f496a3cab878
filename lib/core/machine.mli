(** The execution kernel: one step machine implementing the paper's round
    semantics, shared by every consumer — {!Engine.Make.run} (one adversary),
    {!Engine.Make.verify} (all adversaries, with backtracking), and the
    networked referee ([Wb_net.Session]), which wraps protocol hooks in RPCs
    and injects faults via {!Make.kill}.

    Operational semantics (one round):
    + the previous round's writer becomes terminated (one node writes per
      round, so no other node can newly terminate);
    + the {e write candidates} are the nodes already active at the start of
      the round that have not written (a node never activates and writes in
      the same round, per the paper's successor-configuration rule);
    + awake nodes may activate — all of them in round one under simultaneous
      models, by [wants_to_activate] otherwise; in frozen models the
      activating node composes its message now, from the current board, and
      the message never changes;
    + in synchronous models every candidate recomposes from the current
      board;
    + the driver picks one candidate ({!Make.pick}) and its current message
      is appended on the next {!Make.step}.

    The candidates are a live {!Wb_support.Rankset} that the machine updates
    as it goes: a node activated in round r joins it at round r + 1, and a
    write or a {!Make.kill} removes it.  Only awake nodes are visited for
    activation.  Bookkeeping therefore costs O(log n) per write, plus one
    visit per awake node per round under free activation (and one per
    candidate in synchronous models, which recompose them all), and
    untraced runs construct no {!Wb_obs.Event} values.

    The execution succeeds when all [n] messages are on the board, and
    deadlocks when no candidate exists and no awake node activates, or when
    [max_rounds] is exceeded.

    The machine is {e passive}: it never calls an adversary, a socket or a
    callback on its own.  Control returns to the driver at every scheduling
    choice, which is what lets one kernel serve an inline run loop, a
    depth-first enumerator with {!Make.snapshot}/{!Make.restore}, and a
    frame-by-frame network referee.  A machine instance is single-domain;
    parallel exploration gives each worker its own instance (the metrics it
    bumps are atomic, see {!Wb_obs.Metrics}). *)

type status = Awake | Active | Terminated | Dead

type outcome =
  | Success of Answer.t
  | Deadlock  (** corrupted final configuration: non-terminated nodes remain. *)
  | Size_violation of { node : int; bits : int; bound : int }
  | Output_error of string  (** the output function raised. *)

type stats = { rounds : int; max_message_bits : int; total_bits : int }

type run = {
  outcome : outcome;
  writes : int array;  (** authors in write order. *)
  stats : stats;
  activation_round : int array;  (** -1 when the node never activated. *)
  write_round : int array;  (** -1 when the node never wrote. *)
  message_bits : int array;  (** payload size per node; -1 when unwritten. *)
  compose_count : int array;
      (** compositions per node: 1 for every writing node in frozen models;
          in synchronous models, the rounds it spent as a candidate. *)
  board : Board.t;
      (** The final whiteboard — what the networked referee serves and the
          differential checks compare.  This aliases the machine's {e live}
          board, so under backtracking ([Engine.Make.verify]) it is only
          meaningful until the next [restore]. *)
}

val default_max_rounds : int -> int
(** [2n + 8] — any legal execution fits; exceeding it counts as deadlock.
    Shared by local runs, exploration and the networked referee so all
    agree on the cutoff. *)

val succeeded : run -> bool
val answer : run -> Answer.t option

val outcome_tag : outcome -> string
(** The wire name used in {!Wb_obs.Event.Run_end}: ["success"],
    ["deadlock"], ["size_violation"] or ["output_error"]. *)

val outcome_equal : outcome -> outcome -> bool
(** Structural, via {!Answer.equal} — what the benches and differential
    checks compare with instead of polymorphic [=] (answers may carry
    graphs and big naturals). *)

val stats_equal : stats -> stats -> bool

(** Node-side hooks.  {!Engine.Make} adapts a {!Protocol.S} directly;
    [Wb_net.Session] wraps each hook in an RPC to the node's client
    process.  Hooks receive the current [~round] so a remote node can stamp
    its frames. *)
module type NODE = sig
  val model : Model.t
  val message_bound : n:int -> int

  type local

  val init : View.t -> local

  val wants_to_activate : round:int -> View.t -> Board.t -> local -> bool
  (** May mark the node dead as a side effect (a transport fault in the
      networked referee); a dead node never activates regardless of the
      returned value. *)

  val compose : round:int -> View.t -> Board.t -> local -> (Message.t * local) option
  (** [None] means the node faulted mid-composition: it is marked {!Dead}
      and drops out of the candidate set.  In-process protocols always
      return [Some]. *)

  val output : n:int -> Board.t -> Answer.t
end

module Make (N : NODE) : sig
  type t

  val init : ?max_rounds:int -> ?trace:Wb_obs.Trace.t -> Wb_graph.Graph.t -> t
  (** [max_rounds] defaults to {!default_max_rounds}.  [trace] receives the
      execution's {!Wb_obs.Event} stream and nothing else: the kernel opens
      no spans, so its rounds, compositions and writes are described once,
      by their events.  The sink is {e not} closed — the caller owns it. *)

  val step : t -> [ `Choices of Wb_support.Rankset.view | `Write of int | `Done of run ]
  (** Advance until something needs the driver:
      - [`Choices cs] — a scheduling choice is open over the candidates
        [cs]; call {!pick} (the same [`Choices] is returned until then).
        [cs] is a read-only view of the machine's live candidate set, not
        a copy: it is valid until the next [step], [pick], [kill] or
        [restore] on this machine.  A driver that keeps the candidates
        across those calls copies them first ({!Wb_support.Rankset.to_list});
      - [`Write v] — the message picked last time was appended (one
        observable frame for the referee to broadcast);
      - [`Done run] — the execution is over; further [step]s return the
        same [run]. *)

  val pick : t -> int -> unit
  (** Resolve the open choice with one of its candidates (emits
      [Adversary_pick] when traced).  Membership is checked in O(1).
      @raise Invalid_argument if no choice is open or the node is not a
      candidate — including a candidate {!kill}ed since the choice opened. *)

  val kill : t -> int -> unit
  (** Mark a node dead (networked transport fault).  A dead node never
      activates, composes or writes again; a board that can no longer fill
      deadlocks by round exhaustion.  On an open choice the node leaves
      the candidates at once, and a picked node that has not yet written
      is un-picked (the choice reopens).  A kill that empties the open
      choice ends the round without a write: the next [step] advances to
      the next round, or reports deadlock when nobody activated in this
      round. *)

  val board : t -> Board.t
  val round : t -> int

  val digest : t -> int
  (** A 63-bit canonical digest of the machine's configuration: node
      statuses, composed-but-unwritten memories, the board's {e multiset}
      of messages (write order deliberately excluded — under a confluent
      protocol two prefixes reaching the same multiset have identical
      futures, see {!Protocol.Traits}), the round, and the open candidate
      set when a choice is pending.  Maintained incrementally — O(1) per
      status/board mutation, O(message bits) per composition — never by
      re-serialising a snapshot.  Local node state is {e not} hashed: the
      canonical explorer only digests protocols whose traits promise locals
      carry nothing beyond the hashed components.  Meaningful at [`Choices]
      and [`Done] points; equal digests identify equal configurations up to
      63-bit hash collisions (the standard hash-compaction caveat,
      docs/EXPLORATION.md).  Stable across {!snapshot}/{!restore}.  The
      open candidate set is folded in increasing id order. *)

  type snapshot

  val snapshot : t -> snapshot
  (** O(n) copy of the mutable state — per-node arrays, the candidate and
      awake sets, the nodes waiting to join the candidates, the previous
      round's writer and whether the current round activated anyone; the
      board is captured by length only (it is append-only between snapshot
      and restore). *)

  val restore : t -> snapshot -> unit
  (** Rewind to [snapshot] — including an open choice, and {e un}-finishing
      a completed execution, which is what depth-first exploration does at
      every backtrack.  Only valid with snapshots taken from the same
      machine. *)
end
