(** Bit-exact message buffers.

    Whiteboard messages are measured in bits (the paper's size bounds are
    [O(log n)] or [o(n)] bits), so payloads are encoded through this module
    rather than through native values.  [Writer] appends bits to a growable
    buffer; [Reader] consumes them in order.  Elias gamma/delta codes give
    self-delimiting naturals so message layouts need no explicit lengths. *)

module Writer : sig
  type t

  val create : unit -> t

  val length_bits : t -> int
  (** Number of bits written so far. *)

  val bit : t -> bool -> unit

  val fixed : t -> width:int -> int -> unit
  (** [fixed w ~width v] appends the [width] low bits of [v], most significant
      first.  Requires [0 <= width <= 62] and [0 <= v < 2^width]. *)

  val gamma : t -> int -> unit
  (** Elias gamma code of a positive integer. *)

  val delta : t -> int -> unit
  (** Elias delta code of a positive integer. *)

  val nat : t -> int -> unit
  (** Self-delimiting code of a natural ([>= 0]): delta of [v + 1]. *)

  val contents : t -> bool array
  (** Snapshot of the bits written so far. *)

  val blit : t -> Bytes.t -> int -> unit
  (** [blit w dst pos] copies the bits written so far, packed, into the
      [(length_bits w + 7) / 8] bytes of [dst] from [pos]: bit [i] is bit
      [i mod 8] (least significant first) of byte [pos + i / 8], and the
      padding bits of the last byte are zero — the layout
      {!Reader.of_packed} reads. *)
end

module Reader : sig
  type t

  val of_bits : bool array -> t

  val of_packed : string -> off:int -> bits:int -> t
  (** [of_packed s ~off ~bits] reads [bits] bits packed into [s] from byte
      [off] in {!Writer.blit}'s layout, without copying them.
      @raise Invalid_argument if those bytes are not all in [s]. *)

  val remaining : t -> int
  val bit : t -> bool
  val fixed : t -> width:int -> int
  val gamma : t -> int
  val delta : t -> int
  val nat : t -> int

  exception Underflow
  (** Raised when reading past the end of the buffer. *)
end

val width_of : int -> int
(** [width_of v] is the number of bits needed to store [v >= 0]
    ([width_of 0 = 0]). *)
