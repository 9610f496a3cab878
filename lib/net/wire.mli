(** The versioned binary wire codec of the networked whiteboard service.

    A frame on the wire is a 9-byte header followed by a body:

    {v
    byte 0        protocol version (1 or 2; writers emit 2)
    bytes 1..4    body length in bytes, big-endian
    bytes 5..8    CRC-32 (IEEE) of the body, big-endian
    bytes 9..     body: opcode byte | u32be payload bit count | packed bits
    v}

    Payloads are encoded through {!Wb_support.Bitbuf} — naturals as
    self-delimiting Elias codes, strings as length-prefixed bytes, board
    messages as (author, bit string) pairs — so the exact bit accounting of
    whiteboard messages survives the network unchanged.  Encodings are
    canonical: the padding bits of the last packed byte are zero and the
    payload consumes every declared bit, so [decode (encode f) = Ok f] and
    any single corrupted bit yields a typed {!error}, never an exception.

    {b Version 2} prefixes the bitstream with an optional trace context —
    one presence bit, then [(trace, span)] as naturals — so every RPC can
    carry the sender's {!Wb_obs.Span.context} and the receiver's spans
    join the caller's trace.  Version-1 bodies are payload-only and still
    decode (with context [None] — the receiver roots its own spans), which
    is the old-peer compatibility contract. *)

val version : int
(** The version writers emit (2). *)

val min_version : int
(** The oldest version {!decode} accepts (1). *)

val max_frame_bytes : int
(** Upper bound on the body length accepted by {!decode} and the transport
    layer; larger frames are rejected as {!Oversized} before allocation. *)

val header_bytes : int
(** Fixed header size (9). *)

(** Session-fatal error codes carried by {!frame.Error} frames. *)
type error_code =
  | Bad_hello  (** first frame was not a well-formed HELLO. *)
  | Unknown_protocol  (** protocol key not in the server registry. *)
  | Protocol_mismatch  (** key differs from the session's protocol. *)
  | Session_busy  (** session already running or complete. *)
  | Node_taken  (** requested node id already claimed. *)
  | Unexpected_frame  (** frame valid but illegal in this state. *)
  | Malformed  (** undecodable bytes received. *)
  | Timed_out  (** peer exceeded the read timeout. *)
  | Server_error

type frame =
  | Hello of { session : string; protocol : string; node_pref : int option }
      (** client → server: join [session], speaking for one node. *)
  | Hello_ack of { session : string; node : int; n : int; neighbors : int array; bound : int }
      (** server → client: assigned node id and its local view. *)
  | Activate_query of { round : int }
      (** server → client (free models): does the node activate this round? *)
  | Activate_reply of { round : int; activate : bool }
  | Compose_request of { round : int }
      (** server → client: (re)compose the node's message from the synced board. *)
  | Compose_reply of { round : int; payload : bool array }
  | Write_grant of { round : int; position : int }
      (** server → client: your message was appended at [position]. *)
  | Board_delta of { from_pos : int; generation : int; messages : (int * bool array) list }
      (** server → client: board messages [from_pos ..], as (author, payload)
          pairs.  [generation] is {!Wb_model.Board.generation} of the source
          board; a change with [from_pos > 0] means previously synced
          positions were rewritten and the replica is invalid. *)
  | Run_end of { outcome : string; detail : string; rounds : int }
      (** server → client: session finished; [outcome] is an
          {!Wb_model.Engine.outcome_tag}. *)
  | Error of { code : error_code; detail : string }
  | Telemetry_request of { tail : int }
      (** client → server: dump metrics and the last [tail] flight-recorder
          events.  Answered on the handshake, before any HELLO — a
          monitoring probe, not a session member.  Version 2 only. *)
  | Telemetry_reply of { metrics : string; events : string list; dropped : int }
      (** server → client: [metrics] is {!Wb_obs.Metrics.dump_json} as a
          string, [events] are JSONL-encoded {!Wb_obs.Event}s (oldest
          first), [dropped] counts ring overwrites plus any tail entries
          withheld to respect {!max_frame_bytes}.  Version 2 only. *)
  | Metrics_request
      (** client → server: dump the metrics registry in OpenMetrics text
          form.  Like {!Telemetry_request}, answered on the handshake
          before any HELLO — the scrape endpoint for Prometheus-style
          tooling ([wbctl top --openmetrics]).  Version 2 only. *)
  | Metrics_reply of { body : string }
      (** server → client: [body] is {!Wb_obs.Metrics.dump_openmetrics}
          output, ending in [# EOF].  Version 2 only. *)

type error =
  | Short_frame of int  (** fewer bytes than a header. *)
  | Bad_version of int
  | Oversized of int  (** declared body length above {!max_frame_bytes}. *)
  | Length_mismatch of { declared : int; actual : int }
  | Crc_mismatch
  | Unknown_opcode of int
  | Malformed_body of string

val encode : ?ctx:Wb_obs.Span.context -> frame -> string
(** Version-2 encoding; [ctx] (default none) is the trace context carried
    in the prelude.
    @raise Invalid_argument if the frame would exceed {!max_frame_bytes}
    or [ctx] holds a non-positive id. *)

val encode_v1 : frame -> string
(** Version-1 encoding (no context prelude) — what an old peer sends; the
    compatibility tests pin [decode (encode_v1 f) = Ok f].
    @raise Invalid_argument on frames that do not exist in version 1
    (TELEMETRY). *)

val decode : string -> (frame, error) result
(** Decode one complete frame (header + body, nothing trailing),
    discarding any trace context. *)

val decode_ctx : string -> (frame * Wb_obs.Span.context option, error) result
(** Like {!decode}, also yielding the trace context ([None] for version-1
    frames and version-2 frames without one). *)

val decode_header : string -> (int * int * int, error) result
(** [decode_header h] parses the {!header_bytes}-byte prefix into
    [(version, body_length, crc)], validating version and size bound — the
    streaming entry point for socket transports. *)

val decode_body :
  version:int -> crc:int -> string -> (frame * Wb_obs.Span.context option, error) result
(** Decode a body whose header declared [version] and [crc]. *)

val crc32 : string -> int

val opcode_name : frame -> string
val error_code_name : error_code -> string
val error_to_string : error -> string
val pp : Format.formatter -> frame -> unit
