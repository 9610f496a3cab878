(** The typed event vocabulary of a whiteboard execution.

    One event stream describes everything the engine does that the paper's
    semantics can observe: rounds starting, nodes activating, messages being
    (re)composed — {e every} recomposition in the synchronous models, not
    just the one the adversary eventually writes — adversarial choices,
    writes with their exact bit cost, deadlock detection, and the final
    outcome.

    [node] indices are the engine's internal 0-based identifiers; printers
    add 1 to match the paper's external [1..n] convention (see DESIGN.md
    §4).  [round] is the engine's logical round counter, starting at 1. *)

type t =
  | Round_start of { round : int }
  | Activate of { node : int; round : int }
  | Compose of { node : int; round : int; bits : int }
      (** The node built (or rebuilt) its message at [bits] payload bits. *)
  | Adversary_pick of { node : int; round : int; candidates : int list }
      (** The scheduler chose [node] among [candidates] (0-based, sorted). *)
  | Write of { node : int; round : int; bits : int; board_bits : int }
      (** [board_bits] is the board total {e after} this append. *)
  | Deadlock_detected of { round : int }
  | Run_end of { round : int; outcome : string }
      (** [outcome] is one of ["success"], ["deadlock"], ["size_violation"],
          ["output_error"]. *)
  | Span_start of {
      trace : int;
      span : int;
      parent : int option;
      name : string;
      round : int;
      ts_us : int;
      attrs : (string * string) list;
    }
      (** A {!Span} opened: [trace]/[span] ids are minted by {!Span.minter}
          (48-bit, nonzero), [parent = None] marks a trace root, [ts_us] is
          wall-clock microseconds, and [round] anchors the span in logical
          time so span events obey the same round monotonicity as the rest
          of the stream. *)
  | Span_stop of { span : int; round : int; ts_us : int }

val round : t -> int

val to_json : t -> Json.t
(** Stable wire shape: an object whose ["ev"] member tags the constructor
    (["round_start"], ["activate"], ["compose"], ["adversary_pick"],
    ["write"], ["deadlock"], ["run_end"], ["span_start"],
    ["span_stop"]). *)

val of_json : Json.t -> (t, string) result
(** Inverse of {!to_json} — the round-trip contract the exporter tests pin. *)

val pp : Format.formatter -> t -> unit
