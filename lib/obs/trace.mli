(** Trace sinks: where execution {!Event}s go.

    The engine takes an {e optional} sink; with none attached it constructs
    no events at all (the zero-cost-when-disabled contract), so a sink only
    pays for what it observes.  Sinks compose: [tee] fans one stream out to
    several, and {!Chrome} (its own module) converts the stream to the
    Catapult viewer format.

    [close] flushes sinks that buffer ({!Chrome.writer}, [jsonl_writer]
    leaves the channel open but flushed); it never closes an [out_channel]
    the caller handed in — lifetime stays with the caller. *)

type t

val emit : t -> Event.t -> unit
val close : t -> unit
(** Idempotent. *)

val null : t
(** Drops everything.  The default everywhere a sink is optional. *)

val of_fn : ?close:(unit -> unit) -> (Event.t -> unit) -> t

val tee : t list -> t
(** Forward each event to every sink, in order; [close] closes them all. *)

val collector : unit -> t * (unit -> Event.t list)
(** Unbounded in-memory sink; the thunk returns events in emission order. *)

(** Bounded in-memory sink keeping the {e latest} [capacity] events — the
    flight-recorder view of a long run. *)
module Ring : sig
  type buffer

  val create : capacity:int -> buffer
  (** @raise Invalid_argument when [capacity <= 0]. *)

  val sink : buffer -> t
  val length : buffer -> int
  val dropped : buffer -> int
  (** Events overwritten since creation (or the last [clear]). *)

  val to_list : buffer -> Event.t list
  (** Oldest retained event first. *)

  val clear : buffer -> unit
end

val jsonl_writer : out_channel -> t
(** One {!Event.to_json} object per line.  [close] flushes the channel. *)
