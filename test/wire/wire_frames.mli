(** Wire frames for the codec tests and the wire-bytes golden. *)

val samples : Wb_net.Wire.frame list
(** One or more instances of every frame shape, edge cases included. *)

val gen_frame : Wb_net.Wire.frame QCheck.Gen.t
(** Random frames of every version-1 shape, plus the METRICS pair. *)

val gen_ctx : Wb_obs.Span.context QCheck.Gen.t
(** Random positive trace contexts. *)
