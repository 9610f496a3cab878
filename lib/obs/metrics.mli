(** Process-global metrics registry: named counters, gauges, probes and
    log-bucketed histograms, built on the stdlib only.

    Registration is explicit and idempotent — [counter "engine.writes"]
    returns the same counter everywhere, so instrumentation sites register
    at module initialisation and pay one atomic update per observation on
    the hot path.  Re-registering a name as a {e different} kind is a
    programming error.

    {b Domain safety.}  Every value cell is an [Atomic.t] and the registry
    table is mutex-guarded, so concurrent domains — the
    {!Wb_model.Engine} [verify] workers in particular — may increment,
    observe and even register without corrupting anything.  Histogram
    observations are per-field atomic: a {!dump_json} racing an [observe]
    may see [count] and [sum] one update apart, which is acceptable for
    telemetry (the only reader).

    Because the registry is process-global, tests that assert exact values
    should call {!reset} first (it zeroes values but keeps registrations)
    or compare deltas. *)

type counter
type gauge
type histogram

val counter : ?help:string -> string -> counter
val incr : counter -> unit
val add : counter -> int -> unit
(** @raise Invalid_argument on negative amounts — counters only go up. *)

val counter_value : counter -> int

val gauge : ?help:string -> string -> gauge
val set : gauge -> int -> unit
val gauge_value : gauge -> int

val probe : ?help:string -> string -> (unit -> int) -> unit
(** A gauge whose value is polled at dump time — for instruments that keep
    their own counter (for layering reasons), e.g. {!Wb_support.Prng}
    draws.  Registering an existing probe name replaces the thunk. *)

val histogram : ?help:string -> string -> histogram
(** Log-bucketed: an observation [v >= 0] lands in the bucket of its bit
    width, i.e. bucket [w] covers [2^(w-1) <= v < 2^w] (bucket 0 holds
    exactly 0).  Negative observations are clamped to 0. *)

val observe : histogram -> int -> unit
val histogram_count : histogram -> int
val histogram_sum : histogram -> int

val percentile_opt : histogram -> float -> int option
(** [percentile_opt h p] estimates the [p]-th percentile
    ([0. <= p <= 100.]) from the log buckets: the inclusive upper bound of
    the bucket holding that rank, clamped by the observed maximum — exact
    for 0, at most one bit width coarse otherwise.  [None] on an empty
    histogram, matching the [null] that {!dump_json} emits there.
    @raise Invalid_argument when [p] is outside [\[0, 100\]]. *)

val percentile : histogram -> float -> int
(** The 0-defaulting wrapper around {!percentile_opt}, for callers feeding
    arithmetic.  Display code should use {!percentile_opt} and render the
    empty case explicitly (e.g. [wbctl top] prints ["-"]). *)

val dump_json : unit -> Json.t
(** Snapshot of every registered metric, sorted by name:
    [{"counters": {...}, "gauges": {...}, "histograms": {name: {count, sum,
    min, max, p50, p95, p99, buckets: [[upper_exclusive, count], ...]}}}].
    Probes are polled and appear among the gauges. *)

module Openmetrics : sig
  (** Rendering of a {!dump_json} envelope in the Prometheus/OpenMetrics
      text exposition format.  Pure: golden tests feed synthetic envelopes
      without touching the process-global registry. *)

  val sanitize_name : string -> string
  (** Map an arbitrary registry name onto the exposition name grammar
      [[a-zA-Z_:][a-zA-Z0-9_:]*]: illegal characters become ['_'] and a
      leading digit gains a ['_'] prefix (so ["engine.runs"] renders as
      ["engine_runs"]). *)

  val escape_help : string -> string
  (** HELP-line escaping: [\\] and newline. *)

  val escape_label : string -> string
  (** Label-value escaping: backslash, double quote and newline. *)

  val of_json : ?help:(string -> string) -> Json.t -> string
  (** Render a {!dump_json} envelope.  Counters become [<name>_total],
      gauges bare samples, histograms cumulative [_bucket{le="..."}] series
      (inclusive bounds derived from the envelope's exclusive ones) plus
      [_sum]/[_count] and, when populated, a [<name>_quantile] gauge family
      carrying p50/p95/p99.  [help name] supplies the HELP text for the
      {e original} (pre-sanitization) name; [""] (the default) omits the
      HELP line.  The output always ends with [# EOF]. *)

  val validate : string -> (unit, string) result
  (** Check a text exposition against the grammar this module emits
      (comment lines, name/label/value syntax, [# EOF] terminator).
      [Error] carries a line-numbered diagnostic.  Used by the
      [@check-prof] validator and the qcheck grammar property. *)
end

val dump_openmetrics : unit -> string
(** {!Openmetrics.of_json} over {!dump_json}, with HELP lines drawn from
    the registered help strings — the payload served to Prometheus scrapes
    via the referee's METRICS opcode ([wbctl top --openmetrics]), and
    what [wbctl]'s [--metrics FILE] writes for a name not ending in
    [.json]. *)

val pp_table : Format.formatter -> unit -> unit
(** Human-readable table of the same snapshot. *)

val reset : unit -> unit
(** Zero every counter, gauge and histogram; registrations (and probe
    thunks) survive. *)
