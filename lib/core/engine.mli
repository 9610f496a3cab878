(** Drivers for the round-based execution kernel ({!Machine}).

    The operational semantics — rounds, activation, frozen vs synchronous
    composition, write candidates, deadlock — live in {!Machine}; this
    module adapts a {!Protocol.S} onto the kernel's hook signature and
    provides the two in-process driving disciplines:

    - {!Make.run} — one execution under one {!Adversary.t};
    - {!Make.verify} — the exhaustive check over {e every} adversarial
      schedule, split over multicore workers ([Domain.spawn]) scheduled by
      per-domain work-stealing deques ({!Wb_support.Deque}): canonical-state
      exploration (configuration dedup through {!Machine.Make.digest}
      memoised in a mutex-guarded {!Wb_support.Cset}, and symmetry
      reduction through {!Wb_graph.Auto}) where the protocol's declared
      {!Protocol.Traits} make it sound, schedule enumeration otherwise (or
      on {!Protocol.opaque}), with results that are deterministic in the
      number of workers.  The test suite checks its enumeration against a
      list interpreter of the paper's semantics that shares only the node
      hooks and the {!run} record with the kernel.

    The networked referee ([Wb_net.Session]) is the third consumer of the
    same kernel; it adds transport and fault handling but no semantics.

    {b Observability.}  With [?trace] attached the kernel emits the full
    {!Wb_obs.Event} stream (round starts, activations, every composition,
    adversary picks, writes, deadlock, run end); with it omitted no event
    is ever constructed.  A handful of process-global {!Wb_obs.Metrics} are
    always maintained ([engine.*]: runs, rounds, writes, bits per message,
    recompositions, candidate-set sizes, board bits, deadlocks, verified
    executions). *)

type outcome = Machine.outcome =
  | Success of Answer.t
  | Deadlock  (** corrupted final configuration: non-terminated nodes remain. *)
  | Size_violation of { node : int; bits : int; bound : int }
  | Output_error of string  (** the output function raised. *)

type stats = Machine.stats = { rounds : int; max_message_bits : int; total_bits : int }

type run = Machine.run = {
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
          differential checks compare.  In [run] this is the execution's own
          board; in [verify] it aliases the worker's {e live} backtracking
          board, so it is only meaningful inside the check callback. *)
}

val default_max_rounds : int -> int
(** [2n + 8] — any legal execution fits; exceeding it counts as deadlock.
    Shared with the networked referee ({!Wb_net.Session}) so local and
    remote runs agree on the cutoff. *)

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

type verification = {
  valid : bool;  (** every checked execution passed. *)
  states : int;
      (** distinct interior (choice-point) configurations claimed; [0] in
          enumeration. *)
  finals : int;
      (** distinct final configurations checked (canonical mode) or complete
          executions enumerated. *)
  dedup_hits : int;  (** schedule prefixes merged into already-visited configurations. *)
  orbit_collapses : int;  (** candidate writes pruned to symmetry-orbit representatives. *)
  steals : int;
      (** deque steals between workers — scheduling telemetry, the one field
          that legitimately varies with [jobs] and timing. *)
  group_order : int;  (** order of the automorphism group used; [1] without symmetry. *)
  dedup : bool;  (** [false] iff the traits made no confluence promise, so it enumerated. *)
}
(** Result of {!Make.verify}.  All fields except [steals] are deterministic
    and independent of [jobs]. *)

module Make (P : Protocol.S) : sig
  val run : ?max_rounds:int -> ?trace:Wb_obs.Trace.t -> Wb_graph.Graph.t -> Adversary.t -> run
  (** Execute under one adversary.  [max_rounds] defaults to [2n + 8]
      (any legal execution fits; exceeding it is reported as [Deadlock]).
      [trace] receives the execution's event stream; the sink is {e not}
      closed — the caller owns it. *)

  val verify :
    ?limit:int ->
    ?jobs:int ->
    ?shards:Wb_obs.Trace.Ring.buffer array ->
    Wb_graph.Graph.t ->
    (run -> bool) ->
    (verification, [ `Limit of int ]) result
  (** Exhaustive check over [jobs] work-stealing workers.  When the
      protocol's {!Protocol.Traits} declare confluence on [g], it enumerates
      {e configurations} instead of schedules: schedule prefixes reaching
      the same {!Machine.Make.digest} are merged through a shared
      mutex-guarded visited table, and when the traits further declare a
      symmetry promise, a sequential first phase prunes candidate writes to
      stabilizer-orbit representatives of [Aut(g)] (prefix lex-leader with
      explicit stabilizer chains) before the remaining subtrees are fanned
      out.  Without a confluence promise on [g] the same workers enumerate
      every schedule and report [dedup = false]: [states = 0], [finals] =
      executions, no dedup hits or orbit collapses, [group_order = 1].  To
      force enumeration, pass {!Protocol.opaque}.

      [check] runs concurrently from several domains and must be
      domain-safe; in canonical mode it must also factor through the
      configuration it is given (two executions reaching the same final
      configuration get at most one [check] call between them) and — when
      symmetry applies — be automorphism-invariant, which every
      graph-property differential here is.  Enumeration never
      short-circuits, so on a failing tree [finals] is the full tree size.
      At [jobs = 1] it calls [check] on one domain, in depth-first schedule
      order.  An exception raised by [check] or a protocol hook stops every
      worker and is re-raised once all of them have been joined.

      [limit] (default [250_000]) bounds {e distinct configurations} in
      canonical mode and executions in enumeration; exceeding it returns
      [Error (`Limit _)] deterministically.  All result fields except
      [steals] are independent of [jobs]: a configuration is claimed at
      discovery, so the claimed set is the reachability closure of the
      pruned tree regardless of worker scheduling.

      Instead of a shared trace (interleaved worker events have no
      meaningful order), [shards] gives each worker its own flight-recorder
      ring: worker [k] streams its machine's events into [shards.(k)]
      under a per-domain ["worker"] root span (attr ["domain"]) — stitch
      the shards into one Catapult file with {!Wb_obs.Chrome.merge}.  The sequential first phase is untraced.
      @raise Invalid_argument when [jobs < 1] or when [shards] is given
      with length [<> jobs]. *)
end

val run_packed :
  ?max_rounds:int -> ?trace:Wb_obs.Trace.t -> Protocol.t -> Wb_graph.Graph.t -> Adversary.t -> run

val verify_packed :
  ?limit:int ->
  ?jobs:int ->
  ?shards:Wb_obs.Trace.Ring.buffer array ->
  Protocol.t ->
  Wb_graph.Graph.t ->
  (run -> bool) ->
  (verification, [ `Limit of int ]) result
