(** The referee server: a concurrent accept loop hosting named sessions
    over TCP.

    Each connection's first frame must be a HELLO naming a session; the
    server creates the session on first join (from the single {!spec} it
    serves), assigns the node id (the client's preference when free, the
    smallest free id otherwise), and answers HELLO-ACK with the node's
    local view.  A node joins once its HELLO-ACK is sent (a slot whose ack
    cannot be sent is freed again), so the session never writes to a client
    ahead of its ack.  When the [n]-th node joins, that handshake thread
    runs the {!Session} referee to completion, so independent sessions
    progress concurrently while each session stays strictly sequential (the
    engine's semantics are a sequential object).  Handshake failures —
    malformed bytes, wrong protocol key, full or running session, taken node
    id — are answered with a typed ERROR frame and a close, and never
    disturb other sessions.

    {b Observability.}  Every session's event stream (spans included) is
    teed into a fixed-capacity flight-recorder ring.  A connection whose
    first frame is TELEMETRY gets back the process metrics snapshot plus
    the newest ring events that fit one frame — this is what [wbctl top]
    polls, and [wbctl top --events] asks for the whole ring.  The context carried by the
    roster-completing HELLO becomes the session's parent span, stitching
    the referee's spans into the driver's trace. *)

type spec = {
  key : string;  (** registry key clients must announce. *)
  protocol : Wb_model.Protocol.t;
  graph : Wb_graph.Graph.t;
  make_adversary : unit -> Wb_model.Adversary.t;
      (** fresh scheduler per session (stateful adversaries). *)
  max_rounds : int option;
  timeout : float;  (** per-connection read timeout, seconds. *)
  trace : Wb_obs.Trace.t option;
      (** extra sink teed alongside the flight-recorder ring; every
          session's events (and spans) reach both. *)
}

val ring_capacity : int
(** Events the flight-recorder ring keeps (the newest win). *)

type t

val create : ?addr:string -> port:int -> spec -> t
(** Bind and listen ([addr] defaults to ["127.0.0.1"]; [port = 0] picks an
    ephemeral port — read it back with {!port}). *)

val port : t -> int

val serve : ?max_sessions:int -> t -> unit
(** Run the accept loop on the calling thread until {!stop} (or, with
    [max_sessions], until that many sessions have completed).  Session
    outcomes are reported through {!take_result} and the [net.*] metrics. *)

val serve_in_thread : ?max_sessions:int -> t -> Thread.t

val stop : t -> unit
(** Ask the accept loop to exit; [serve] notices within one poll tick,
    closes the listening socket itself and returns.  Safe from any thread
    at any time (it only sets a flag). *)

val take_result : t -> string -> Session.result option
(** [take_result t session] blocks until [session] completes and removes
    its result; [None] once the server has stopped without completing it. *)
