(** The referee: server-side execution of one whiteboard session over an
    array of node connections.

    [run] drives the {e same} execution kernel as the in-process engine —
    it instantiates {!Wb_model.Machine.Make} with hooks that turn every
    [wants_to_activate]/[compose] call into an RPC to the connection owning
    that node, preceded by a BOARD-DELTA bringing its replica up to date.
    There is no second copy of the round semantics here: round structure,
    activation/composition order, deadlock and size-violation rules, the
    [max_rounds] default and the {!Wb_obs.Event} stream all come from the
    kernel.  With a trace attached the referee opens a ["session"] span
    (child of [parent]) around the kernel's events, one
    [net.rpc.activate]/[net.rpc.compose] span per RPC, whose context rides
    the outgoing frame, and one zero-length ["fault"] span (attr ["node"])
    per node it marks dead; RPC round-trip latency feeds the
    [net.rpc.*_us] histograms whether or not tracing is on.  On a
    fault-free run the result's {!Wb_model.Engine.run} is
    {e identical} to [Engine.run] under the same graph, adversary and
    protocol (the differential tests pin this); model semantics are
    enforced kernel-side on the referee — a client that lies about its
    model cannot get a second write or an oversized message past it.

    {b Failure semantics.}  A connection that times out, disconnects, or
    sends malformed/unexpected frames marks its node {e dead}: the node
    never activates again and is excluded from the candidate set, so a
    vanished node starves the run into the paper's corrupted final
    configuration — reported as [Deadlock], with the fault recorded.  The
    session itself never raises on transport behaviour. *)

type fault =
  | Transport of Conn.fault  (** timeout, disconnect, or undecodable bytes. *)
  | Confused of string  (** well-formed frame that violates the RPC state. *)

(** Where in the kernel's hook stream a node died.  Hook invocations are
    counted per node in call order (activations and compositions in one
    sequence), so [Hook k] is a deterministic coordinate: an in-process
    replay that kills the node at its [k]-th hook ([Wb_chaos.Replay])
    reproduces the faulted execution exactly — the differential contract
    the chaos harness pins. *)
type site =
  | Hook of int  (** during its [k]-th hook invocation (activate or compose). *)
  | Post_write  (** the WRITE-GRANT after its append failed. *)
  | Teardown  (** during the final board sync / RUN-END (no kernel effect). *)

type death = { node : int; site : site }

val site_to_string : site -> string
(** ["hook:k"], ["post-write"] or ["teardown"] — the form campaign reports
    use. *)

type config = {
  protocol : Wb_model.Protocol.t;
  graph : Wb_graph.Graph.t;
  adversary : Wb_model.Adversary.t;
  max_rounds : int option;  (** default {!Wb_model.Engine.default_max_rounds}. *)
  trace : Wb_obs.Trace.t option;
  parent : Wb_obs.Span.context option;
      (** parents the session's root span (and, via the wire's version-2
          context prelude, every RPC the referee sends) under the driver's
          trace.  With [trace = None] the parent context is still forwarded
          on RPCs, so tracing clients join the right trace. *)
}

type result = {
  run : Wb_model.Engine.run;
  faults : (int * fault) list;  (** in occurrence order. *)
  deaths : death list;  (** one per faulted node, in occurrence order. *)
}

val run : config -> Conn.t array -> result
(** [run config conns] referees one session; [conns.(v)] must already be
    joined (HELLO handled by the caller) and speaks for node [v].  Every
    connection receives a final BOARD-DELTA and RUN-END, then is closed.
    @raise Invalid_argument if the connection count differs from the graph
    size. *)

val fault_to_string : fault -> string
