module Bitbuf = Wb_support.Bitbuf

let version = 2
let min_version = 1
let max_frame_bytes = 1 lsl 20
let header_bytes = 9

type error_code =
  | Bad_hello
  | Unknown_protocol
  | Protocol_mismatch
  | Session_busy
  | Node_taken
  | Unexpected_frame
  | Malformed
  | Timed_out
  | Server_error

type frame =
  | Hello of { session : string; protocol : string; node_pref : int option }
  | Hello_ack of { session : string; node : int; n : int; neighbors : int array; bound : int }
  | Activate_query of { round : int }
  | Activate_reply of { round : int; activate : bool }
  | Compose_request of { round : int }
  | Compose_reply of { round : int; payload : bool array }
  | Write_grant of { round : int; position : int }
  | Board_delta of { from_pos : int; generation : int; messages : (int * bool array) list }
  | Run_end of { outcome : string; detail : string; rounds : int }
  | Error of { code : error_code; detail : string }
  | Telemetry_request of { tail : int }
  | Telemetry_reply of { metrics : string; events : string list; dropped : int }
  | Metrics_request
  | Metrics_reply of { body : string }

type error =
  | Short_frame of int
  | Bad_version of int
  | Oversized of int
  | Length_mismatch of { declared : int; actual : int }
  | Crc_mismatch
  | Unknown_opcode of int
  | Malformed_body of string

(* ---- CRC-32 (IEEE 802.3 polynomial, reflected) ------------------------ *)

(* Built eagerly at module init (256 iterations, negligible) and published
   through an Atomic so every domain/thread reads a safely-published,
   never-again-written table.  A [lazy] here would race its first force
   under concurrent connection handlers (RacyLazy on OCaml 5). *)
let crc_table =
  Atomic.make
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let crc32_bytes b off len =
  let table = Atomic.get crc_table in
  let c = ref 0xFFFFFFFF in
  for i = off to off + len - 1 do
    c := (!c lsr 8) lxor table.((!c lxor Char.code (Bytes.get b i)) land 0xff)
  done;
  !c lxor 0xFFFFFFFF

let crc32 s = crc32_bytes (Bytes.unsafe_of_string s) 0 (String.length s)

(* ---- bit-level field codecs ------------------------------------------- *)

exception Bad of string

let fail msg = raise (Bad msg)

let put_nat w v = if v < 0 then fail "negative natural" else Bitbuf.Writer.nat w v

let put_string w s =
  put_nat w (String.length s);
  String.iter (fun c -> Bitbuf.Writer.fixed w ~width:8 (Char.code c)) s

let put_bools w bits =
  put_nat w (Array.length bits);
  Array.iter (Bitbuf.Writer.bit w) bits

let get_nat r = Bitbuf.Reader.nat r

let get_string r =
  let len = get_nat r in
  if len * 8 > Bitbuf.Reader.remaining r then fail "string length overruns frame";
  String.init len (fun _ -> Char.chr (Bitbuf.Reader.fixed r ~width:8))

let get_bools r =
  let len = get_nat r in
  if len > Bitbuf.Reader.remaining r then fail "bit-string length overruns frame";
  Array.init len (fun _ -> Bitbuf.Reader.bit r)

(* ---- opcodes ---------------------------------------------------------- *)

let opcode = function
  | Hello _ -> 1
  | Hello_ack _ -> 2
  | Activate_query _ -> 3
  | Activate_reply _ -> 4
  | Compose_request _ -> 5
  | Compose_reply _ -> 6
  | Write_grant _ -> 7
  | Board_delta _ -> 8
  | Run_end _ -> 9
  | Error _ -> 10
  | Telemetry_request _ -> 11
  | Telemetry_reply _ -> 12
  | Metrics_request -> 13
  | Metrics_reply _ -> 14

let max_opcode = 14

let opcode_name = function
  | Hello _ -> "HELLO"
  | Hello_ack _ -> "HELLO-ACK"
  | Activate_query _ -> "ACTIVATE?"
  | Activate_reply _ -> "ACTIVATE"
  | Compose_request _ -> "COMPOSE?"
  | Compose_reply _ -> "COMPOSE"
  | Write_grant _ -> "WRITE-GRANT"
  | Board_delta _ -> "BOARD-DELTA"
  | Run_end _ -> "RUN-END"
  | Error _ -> "ERROR"
  | Telemetry_request _ -> "TELEMETRY?"
  | Telemetry_reply _ -> "TELEMETRY"
  | Metrics_request -> "METRICS?"
  | Metrics_reply _ -> "METRICS"

let error_code_to_int = function
  | Bad_hello -> 0
  | Unknown_protocol -> 1
  | Protocol_mismatch -> 2
  | Session_busy -> 3
  | Node_taken -> 4
  | Unexpected_frame -> 5
  | Malformed -> 6
  | Timed_out -> 7
  | Server_error -> 8

let error_code_of_int = function
  | 0 -> Bad_hello
  | 1 -> Unknown_protocol
  | 2 -> Protocol_mismatch
  | 3 -> Session_busy
  | 4 -> Node_taken
  | 5 -> Unexpected_frame
  | 6 -> Malformed
  | 7 -> Timed_out
  | 8 -> Server_error
  | n -> fail (Printf.sprintf "unknown error code %d" n)

let error_code_name = function
  | Bad_hello -> "bad-hello"
  | Unknown_protocol -> "unknown-protocol"
  | Protocol_mismatch -> "protocol-mismatch"
  | Session_busy -> "session-busy"
  | Node_taken -> "node-taken"
  | Unexpected_frame -> "unexpected-frame"
  | Malformed -> "malformed"
  | Timed_out -> "timed-out"
  | Server_error -> "server-error"

(* ---- frame payloads --------------------------------------------------- *)

let put_payload w = function
  | Hello { session; protocol; node_pref } ->
    put_string w session;
    put_string w protocol;
    (match node_pref with
    | None -> Bitbuf.Writer.bit w false
    | Some v ->
      Bitbuf.Writer.bit w true;
      put_nat w v)
  | Hello_ack { session; node; n; neighbors; bound } ->
    put_string w session;
    put_nat w node;
    put_nat w n;
    put_nat w (Array.length neighbors);
    Array.iter (put_nat w) neighbors;
    put_nat w bound
  | Activate_query { round } -> put_nat w round
  | Activate_reply { round; activate } ->
    put_nat w round;
    Bitbuf.Writer.bit w activate
  | Compose_request { round } -> put_nat w round
  | Compose_reply { round; payload } ->
    put_nat w round;
    put_bools w payload
  | Write_grant { round; position } ->
    put_nat w round;
    put_nat w position
  | Board_delta { from_pos; generation; messages } ->
    put_nat w from_pos;
    put_nat w generation;
    put_nat w (List.length messages);
    List.iter
      (fun (author, payload) ->
        put_nat w author;
        put_bools w payload)
      messages
  | Run_end { outcome; detail; rounds } ->
    put_string w outcome;
    put_string w detail;
    put_nat w rounds
  | Error { code; detail } ->
    put_nat w (error_code_to_int code);
    put_string w detail
  | Telemetry_request { tail } -> put_nat w tail
  | Telemetry_reply { metrics; events; dropped } ->
    put_string w metrics;
    put_nat w (List.length events);
    List.iter (put_string w) events;
    put_nat w dropped
  | Metrics_request -> ()
  | Metrics_reply { body } -> put_string w body

let get_payload op r =
  match op with
  | 1 ->
    let session = get_string r in
    let protocol = get_string r in
    let node_pref = if Bitbuf.Reader.bit r then Some (get_nat r) else None in
    Hello { session; protocol; node_pref }
  | 2 ->
    let session = get_string r in
    let node = get_nat r in
    let n = get_nat r in
    let deg = get_nat r in
    if deg > Bitbuf.Reader.remaining r then fail "neighbor count overruns frame";
    let neighbors = Array.init deg (fun _ -> get_nat r) in
    let bound = get_nat r in
    Hello_ack { session; node; n; neighbors; bound }
  | 3 -> Activate_query { round = get_nat r }
  | 4 ->
    let round = get_nat r in
    Activate_reply { round; activate = Bitbuf.Reader.bit r }
  | 5 -> Compose_request { round = get_nat r }
  | 6 ->
    let round = get_nat r in
    Compose_reply { round; payload = get_bools r }
  | 7 ->
    let round = get_nat r in
    Write_grant { round; position = get_nat r }
  | 8 ->
    let from_pos = get_nat r in
    let generation = get_nat r in
    let count = get_nat r in
    if count > Bitbuf.Reader.remaining r then fail "message count overruns frame";
    let messages =
      List.init count (fun _ ->
          let author = get_nat r in
          (author, get_bools r))
    in
    Board_delta { from_pos; generation; messages }
  | 9 ->
    let outcome = get_string r in
    let detail = get_string r in
    Run_end { outcome; detail; rounds = get_nat r }
  | 10 ->
    let code = error_code_of_int (get_nat r) in
    Error { code; detail = get_string r }
  | 11 -> Telemetry_request { tail = get_nat r }
  | 12 ->
    let metrics = get_string r in
    let count = get_nat r in
    if count > Bitbuf.Reader.remaining r then fail "event count overruns frame";
    let events = List.init count (fun _ -> get_string r) in
    Telemetry_reply { metrics; events; dropped = get_nat r }
  | 13 -> Metrics_request
  | 14 -> Metrics_reply { body = get_string r }
  (* The caller range-checks [op], but a decode path never asserts: if the
     guard and this table ever disagree, that is a typed error too. *)
  | op -> fail (Printf.sprintf "opcode %d has no payload decoder" op)

(* ---- framing ---------------------------------------------------------- *)

let set_be32 b off v = Bytes.set_int32_be b off (Int32.of_int v)

let read_be32 s off =
  (Char.code s.[off] lsl 24)
  lor (Char.code s.[off + 1] lsl 16)
  lor (Char.code s.[off + 2] lsl 8)
  lor Char.code s.[off + 3]

(* The version-2 bitstream prefixes the payload with a trace-context
   prelude: one presence bit, then (trace, span) as naturals when set.
   Version-1 bodies are payload-only, so every v1 frame decodes with no
   context — the compatibility contract the old-peer tests pin. *)

let put_ctx w = function
  | None -> Bitbuf.Writer.bit w false
  | Some { Wb_obs.Span.trace; span } ->
    if trace <= 0 || span <= 0 then invalid_arg "Wire.encode: zero trace-context id";
    Bitbuf.Writer.bit w true;
    put_nat w trace;
    put_nat w span

let get_ctx r =
  if not (Bitbuf.Reader.bit r) then None
  else begin
    let trace = get_nat r in
    let span = get_nat r in
    if trace = 0 || span = 0 then fail "zero trace-context id";
    if trace lsr 48 <> 0 || span lsr 48 <> 0 then fail "trace-context id overflow";
    Some { Wb_obs.Span.trace; span }
  end

(* Profiling sites for the wire hot path (zero-cost unless Wb_obs.Prof is
   enabled). *)
let prof_encode = Wb_obs.Prof.site "wire.encode"
let prof_decode = Wb_obs.Prof.site "wire.decode"

(* One buffer per frame: the header, the opcode, the payload bit count and
   the writer's packed bytes, with the CRC filled in once the body is in
   place. *)
let encode_at ~version:v ?ctx frame =
  Wb_obs.Prof.phase prof_encode (fun () ->
  if v = 1 && opcode frame > 10 then
    invalid_arg (Printf.sprintf "Wire.encode: %s frame has no version-1 encoding" (opcode_name frame));
  let w = Bitbuf.Writer.create () in
  if v >= 2 then put_ctx w ctx;
  put_payload w frame;
  let nbits = Bitbuf.Writer.length_bits w in
  let body_len = 5 + ((nbits + 7) / 8) in
  if body_len > max_frame_bytes then
    invalid_arg (Printf.sprintf "Wire.encode: %s frame exceeds %d bytes" (opcode_name frame)
                   max_frame_bytes);
  let b = Bytes.create (header_bytes + body_len) in
  Bytes.set_uint8 b 0 v;
  set_be32 b 1 body_len;
  Bytes.set_uint8 b header_bytes (opcode frame);
  set_be32 b (header_bytes + 1) nbits;
  Bitbuf.Writer.blit w b (header_bytes + 5);
  set_be32 b 5 (crc32_bytes b header_bytes body_len);
  Bytes.unsafe_to_string b)

let encode ?ctx frame = encode_at ~version ?ctx frame
let encode_v1 frame = encode_at ~version:1 frame

let decode_header s =
  if String.length s < header_bytes then Result.Error (Short_frame (String.length s))
  else begin
    let v = Char.code s.[0] in
    if v < min_version || v > version then Result.Error (Bad_version v)
    else begin
      let body_len = read_be32 s 1 in
      if body_len > max_frame_bytes then Result.Error (Oversized body_len)
      else Ok (v, body_len, read_be32 s 5)
    end
  end

(* The body is [s] from byte [off] to its end; the payload is read in
   place, straight from its packed bytes. *)
let decode_at ~version:v ~crc s off =
  Wb_obs.Prof.phase prof_decode (fun () ->
  let body_len = String.length s - off in
  if crc32_bytes (Bytes.unsafe_of_string s) off body_len <> crc then Result.Error Crc_mismatch
  else if body_len < 5 then Result.Error (Malformed_body "body shorter than opcode header")
  else begin
    let op = Char.code s.[off] in
    if op < 1 || op > max_opcode || (v = 1 && op > 10) then Result.Error (Unknown_opcode op)
    else begin
      let nbits = read_be32 s (off + 1) in
      let packed = body_len - 5 in
      if packed <> (nbits + 7) / 8 then
        Result.Error
          (Malformed_body (Printf.sprintf "declared %d bits but %d packed bytes" nbits packed))
      (* canonical padding: bits beyond [nbits] in the last byte are zero *)
      else if nbits mod 8 <> 0 && Char.code s.[String.length s - 1] lsr (nbits mod 8) <> 0 then
        Result.Error (Malformed_body "nonzero padding bits")
      else begin
        let r = Bitbuf.Reader.of_packed s ~off:(off + 5) ~bits:nbits in
        match
          let ctx = if v >= 2 then get_ctx r else None in
          (get_payload op r, ctx)
        with
        | frame, ctx ->
          if Bitbuf.Reader.remaining r <> 0 then
            Result.Error
              (Malformed_body (Printf.sprintf "%d trailing bits" (Bitbuf.Reader.remaining r)))
          else Ok (frame, ctx)
        | exception Bad msg -> Result.Error (Malformed_body msg)
        | exception Bitbuf.Reader.Underflow -> Result.Error (Malformed_body "payload underflow")
        | exception Invalid_argument msg -> Result.Error (Malformed_body msg)
      end
    end
  end)

let decode_body ~version ~crc body = decode_at ~version ~crc body 0

let decode_ctx s =
  match decode_header s with
  | Result.Error e -> Result.Error e
  | Ok (v, body_len, crc) ->
    let actual = String.length s - header_bytes in
    if actual <> body_len then Result.Error (Length_mismatch { declared = body_len; actual })
    else decode_at ~version:v ~crc s header_bytes

let decode s = Result.map fst (decode_ctx s)

(* ---- printing --------------------------------------------------------- *)

let error_to_string = function
  | Short_frame n -> Printf.sprintf "short frame (%d bytes)" n
  | Bad_version v -> Printf.sprintf "unsupported wire version %d" v
  | Oversized n -> Printf.sprintf "oversized frame (%d-byte body)" n
  | Length_mismatch { declared; actual } ->
    Printf.sprintf "length mismatch (declared %d, actual %d)" declared actual
  | Crc_mismatch -> "CRC mismatch"
  | Unknown_opcode op -> Printf.sprintf "unknown opcode %d" op
  | Malformed_body msg -> "malformed body: " ^ msg

let pp ppf frame =
  match frame with
  | Hello { session; protocol; node_pref } ->
    Format.fprintf ppf "HELLO session=%s protocol=%s%s" session protocol
      (match node_pref with None -> "" | Some v -> Printf.sprintf " node=%d" v)
  | Hello_ack { session; node; n; neighbors; bound } ->
    Format.fprintf ppf "HELLO-ACK session=%s node=%d n=%d degree=%d bound=%d" session node n
      (Array.length neighbors) bound
  | Activate_query { round } -> Format.fprintf ppf "ACTIVATE? round=%d" round
  | Activate_reply { round; activate } ->
    Format.fprintf ppf "ACTIVATE round=%d %b" round activate
  | Compose_request { round } -> Format.fprintf ppf "COMPOSE? round=%d" round
  | Compose_reply { round; payload } ->
    Format.fprintf ppf "COMPOSE round=%d %d bits" round (Array.length payload)
  | Write_grant { round; position } ->
    Format.fprintf ppf "WRITE-GRANT round=%d position=%d" round position
  | Board_delta { from_pos; generation; messages } ->
    Format.fprintf ppf "BOARD-DELTA from=%d gen=%d +%d messages" from_pos generation
      (List.length messages)
  | Run_end { outcome; detail = _; rounds } ->
    Format.fprintf ppf "RUN-END outcome=%s rounds=%d" outcome rounds
  | Error { code; detail } ->
    Format.fprintf ppf "ERROR %s %s" (error_code_name code) detail
  | Telemetry_request { tail } -> Format.fprintf ppf "TELEMETRY? tail=%d" tail
  | Telemetry_reply { metrics; events; dropped } ->
    Format.fprintf ppf "TELEMETRY %d metric bytes, %d events (%d dropped)"
      (String.length metrics) (List.length events) dropped
  | Metrics_request -> Format.fprintf ppf "METRICS?"
  | Metrics_reply { body } ->
    Format.fprintf ppf "METRICS %d exposition bytes" (String.length body)
