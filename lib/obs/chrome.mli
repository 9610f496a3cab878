(** Chrome [trace_event] (Catapult) exporter: a traced run opens directly in
    [about:tracing] or {{:https://ui.perfetto.dev}Perfetto}.

    A single run ({!writer}) is rendered from its {!Event}s alone.  The
    execution has no wall clock — logical rounds are the time axis — so
    round [r] is mapped to timestamp [r * 1000] microseconds (one round =
    one millisecond on screen).  Each node becomes a thread ([tid = node +
    1], matching the paper's external numbering) whose active life from
    [Activate] to [Write] is a complete ("X") slice; each round is an X
    slice on the scheduler row [tid 0], from its [Round_start] to the next
    [Round_start] or the [Run_end]; every composition and write is an
    instant on its node's row, and adversary picks, deadlock and the run
    end are instants on the scheduler row.  Span events are not rendered
    here: the kernel emits none.

    {!merge} stitches the shards of a distributed or parallel execution —
    where spans mark the boundaries (driver roots, the referee's
    ["session"], its [net.rpc.*] and ["fault"] spans, the clients'
    [client.*] handlers, each verify ["worker"]).  Spans render as Catapult
    {e async} events ("b"/"e") keyed by the span id, with
    [args.trace]/[args.span]/[args.parent] carried verbatim ([parent: null]
    marks a trace root) — the shape the [check_trace] validator checks
    causality on — at their real wall-clock endpoints.

    The exporter buffers: nothing is written until {!Trace.close}, because
    slice durations are only known once the run ends. *)

val writer : out_channel -> Trace.t
(** On close, writes one JSON object [{"traceEvents": [...],
    "displayTimeUnit": "ms"}] and flushes (the channel stays open — the
    caller owns it). *)

val merge : (string * Event.t list) list -> Json.t
(** [merge [(label, events); ...]] stitches per-process / per-domain event
    shards into one Catapult file: shard [i] becomes pid [i + 1] with a
    [process_name] metadata record naming it [label].  Span events share
    one wall-clock axis, normalised so the earliest span endpoint across
    all shards is 0; classic events (which have no wall time) appear as
    instants at their shard's latest span timestamp, preserving stream
    order.  A [Span_stop] whose start is not in the same shard (ring
    truncation) is dropped, so every "e" record has a matching "b". *)
