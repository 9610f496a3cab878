(* The networked whiteboard service: the wire codec (unit round-trips plus
   qcheck properties — random frames survive, corrupted bytes always yield a
   typed error), board truncation generations as seen by incremental
   readers, the loopback differential against Engine.run for every model,
   the failure semantics (malformed frames, mid-run hangups, read timeouts
   all starve the run into a deadlocked configuration with the fault
   recorded), and real TCP sessions against the referee server. *)

open Wb_model
module G = Wb_graph
module Prng = Wb_support.Prng
module Obs = Wb_obs
module Net = Wb_net
module Wire = Wb_net.Wire
module R = Wb_protocols.Registry

let qtest = QCheck_alcotest.to_alcotest
let check = Alcotest.(check bool)

let bound_of protocol ~n =
  let module P = (val protocol : Protocol.S) in
  P.message_bound ~n

(* --- wire codec: unit round-trips and crafted corruptions -------------- *)

let be32 v = String.init 4 (fun i -> Char.chr ((v lsr (8 * (3 - i))) land 0xff))

let read_be32 s off =
  (Char.code s.[off] lsl 24)
  lor (Char.code s.[off + 1] lsl 16)
  lor (Char.code s.[off + 2] lsl 8)
  lor Char.code s.[off + 3]

(* Reassemble a frame around a hand-tampered body, at the current version
   (bodies produced by [Wire.encode] carry the v2 context prelude) or as a
   version-1 frame (bare payload bits, no prelude). *)
let reframe body = Printf.sprintf "\002%s%s%s" (be32 (String.length body)) (be32 (Wire.crc32 body)) body

let reframe_v1 body = Printf.sprintf "\001%s%s%s" (be32 (String.length body)) (be32 (Wire.crc32 body)) body

let expect_error name s pred =
  match Wire.decode s with
  | Ok f -> Alcotest.failf "%s: decoded %s" name (Wire.opcode_name f)
  | Error e -> check name true (pred e)

let wire_tests =
  [ Alcotest.test_case "every frame shape round-trips" `Quick (fun () ->
        List.iter
          (fun f ->
            match Wire.decode (Wire.encode f) with
            | Ok f' ->
              check (Format.asprintf "%a" Wire.pp f) true (f' = f)
            | Error e -> Alcotest.failf "decode failed: %s" (Wire.error_to_string e))
          Wire_frames.samples);
    Alcotest.test_case "header corruptions yield the right typed errors" `Quick (fun () ->
        let s = Wire.encode (Wire.Activate_query { round = 7 }) in
        expect_error "short" (String.sub s 0 5) (function Wire.Short_frame 5 -> true | _ -> false);
        expect_error "empty" "" (function Wire.Short_frame 0 -> true | _ -> false);
        let bad_version = "\009" ^ String.sub s 1 (String.length s - 1) in
        expect_error "version" bad_version (function Wire.Bad_version 9 -> true | _ -> false);
        let oversized = "\001" ^ be32 (Wire.max_frame_bytes + 1) ^ String.sub s 5 4 in
        expect_error "oversized" oversized (function
          | Wire.Oversized n -> n = Wire.max_frame_bytes + 1
          | _ -> false);
        expect_error "truncated body" (String.sub s 0 (String.length s - 1)) (function
          | Wire.Length_mismatch _ -> true
          | _ -> false);
        expect_error "trailing bytes" (s ^ "\000") (function
          | Wire.Length_mismatch _ -> true
          | _ -> false));
    Alcotest.test_case "body corruptions yield the right typed errors" `Quick (fun () ->
        let s = Wire.encode (Wire.Run_end { outcome = "success"; detail = "d"; rounds = 3 }) in
        let body = String.sub s Wire.header_bytes (String.length s - Wire.header_bytes) in
        let flipped = Bytes.of_string body in
        Bytes.set flipped 6 (Char.chr (Char.code (Bytes.get flipped 6) lxor 1));
        expect_error "crc catches a payload flip"
          ("\001" ^ be32 (String.length body) ^ be32 (Wire.crc32 body) ^ Bytes.to_string flipped)
          (function Wire.Crc_mismatch -> true | _ -> false);
        let unknown_op = "\015" ^ be32 0 in
        expect_error "unknown opcode" (reframe unknown_op) (function
          | Wire.Unknown_opcode 15 -> true
          | _ -> false);
        (* the telemetry opcodes are v2-only: a v1 frame carrying one is
           unknown, not misparsed *)
        expect_error "telemetry opcode in a v1 frame" (reframe_v1 ("\011" ^ be32 0)) (function
          | Wire.Unknown_opcode 11 -> true
          | _ -> false);
        let empty_body = "\003" ^ be32 0 in
        (* opcode 3 wants a round number; zero payload bits underflow. *)
        expect_error "payload underflow" (reframe empty_body) (function
          | Wire.Malformed_body _ -> true
          | _ -> false));
    Alcotest.test_case "non-canonical encodings are rejected" `Quick (fun () ->
        (* find a frame whose payload does not end on a byte boundary *)
        let frame =
          List.find
            (fun f ->
              let s = Wire.encode f in
              read_be32 s (Wire.header_bytes + 1) mod 8 <> 0)
            Wire_frames.samples
        in
        let s = Wire.encode frame in
        let body = Bytes.of_string (String.sub s Wire.header_bytes (String.length s - Wire.header_bytes)) in
        let nbits = read_be32 (Bytes.to_string body) 1 in
        let last = Bytes.length body - 1 in
        Bytes.set body last (Char.chr (Char.code (Bytes.get body last) lor (1 lsl (nbits mod 8))));
        expect_error "nonzero padding" (reframe (Bytes.to_string body)) (function
          | Wire.Malformed_body _ -> true
          | _ -> false);
        (* declaring 8 extra zero bits leaves trailing payload *)
        let body = String.sub s Wire.header_bytes (String.length s - Wire.header_bytes) in
        let padded =
          Printf.sprintf "%c%s%s\000" body.[0] (be32 (nbits + 8))
            (String.sub body 5 (String.length body - 5))
        in
        expect_error "trailing bits" (reframe padded) (function
          | Wire.Malformed_body _ -> true
          | _ -> false));
    Alcotest.test_case "encode refuses frames above the size bound" `Quick (fun () ->
        check "raises" true
          (match Wire.encode (Wire.Run_end { outcome = "x"; detail = String.make Wire.max_frame_bytes 'a'; rounds = 1 }) with
          | exception Invalid_argument _ -> true
          | _ -> false)) ]

(* --- wire codec: properties -------------------------------------------- *)

let frame_arb = QCheck.make ~print:(Format.asprintf "%a" Wire.pp) Wire_frames.gen_frame

let frame_and_index =
  QCheck.make
    ~print:(fun (f, i) -> Printf.sprintf "%s @ %d" (Format.asprintf "%a" Wire.pp f) i)
    QCheck.Gen.(pair Wire_frames.gen_frame (0 -- 100_000))

let flip_bit s i =
  let b = Bytes.of_string s in
  let byte = i / 8 in
  Bytes.set b byte (Char.chr (Char.code (Bytes.get b byte) lxor (1 lsl (i mod 8))));
  Bytes.to_string b

let typed_error_only s =
  match Wire.decode s with Ok _ -> false | Error _ -> true | exception _ -> false

let wire_prop_tests =
  [ qtest
      (QCheck.Test.make ~name:"random frames round-trip exactly" ~count:300 frame_arb
         (fun f -> Wire.decode (Wire.encode f) = Ok f));
    qtest
      (QCheck.Test.make ~name:"every strict prefix is a typed error, never an exception"
         ~count:200 frame_and_index (fun (f, i) ->
           let s = Wire.encode f in
           typed_error_only (String.sub s 0 (i mod String.length s))));
    qtest
      (QCheck.Test.make ~name:"any single flipped bit is a typed error, never an exception"
         ~count:400 frame_and_index (fun (f, i) ->
           let s = Wire.encode f in
           typed_error_only (flip_bit s (i mod (String.length s * 8)))));
    qtest
      (QCheck.Test.make ~name:"arbitrary bytes never raise" ~count:300
         QCheck.(string_gen QCheck.Gen.(map Char.chr (0 -- 255)))
         (fun junk ->
           (* with and without a plausible version byte in front *)
           (match Wire.decode junk with Ok _ | Error _ -> true | exception _ -> false)
           && match Wire.decode ("\001" ^ junk) with Ok _ | Error _ -> true | exception _ -> false));
    (* Multi-byte corruption, the shape wb_chaos injects: XOR a random set
       of bytes anywhere past the version byte (length, CRC, body).  Every
       byte there is integrity-protected — length against the actual frame
       size, body against the CRC — so any such flip set must surface as a
       typed error.  (The version byte itself is deliberately excluded: it
       sits outside the checksum and a 2->1 flip is a downgrade, not
       detectable corruption.) *)
    qtest
      (QCheck.Test.make ~name:"arbitrary multi-byte flips are typed errors, never exceptions"
         ~count:400
         (QCheck.make
            ~print:(fun (f, flips) ->
              Printf.sprintf "%s flips=[%s]" (Format.asprintf "%a" Wire.pp f)
                (String.concat ";"
                   (List.map (fun (i, m) -> Printf.sprintf "%d^%d" i m) flips)))
            QCheck.Gen.(
              pair Wire_frames.gen_frame (list_size (1 -- 6) (pair (0 -- 100_000) (1 -- 255)))))
         (fun (f, flips) ->
           let s = Wire.encode f in
           let b = Bytes.of_string s in
           List.iter
             (fun (i, mask) ->
               let i = 1 + (i mod (Bytes.length b - 1)) in
               Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor mask)))
             flips;
           let s' = Bytes.to_string b in
           String.equal s' s || typed_error_only s')) ]

(* --- wire codec: pinned corruption regressions --------------------------- *)

(* Concrete mutations with their exact typed verdicts, pinned so decoder
   refactors keep each corruption class on its dedicated error path (the
   properties above only demand "some typed error"). *)
let wire_pinned_tests =
  let mutate s i c =
    let b = Bytes.of_string s in
    Bytes.set b i c;
    Bytes.to_string b
  in
  let expect name s pred =
    match Wire.decode s with
    | Error e when pred e -> ()
    | Error e -> Alcotest.failf "%s: wrong error %s" name (Wire.error_to_string e)
    | Ok f -> Alcotest.failf "%s: decoded Ok %s" name (Format.asprintf "%a" Wire.pp f)
  in
  [ Alcotest.test_case "pinned corruptions land on their exact error constructors" `Quick
      (fun () ->
        let frames =
          [ Wire.Activate_query { round = 3 };
            Wire.Compose_reply { round = 2; payload = [| true; false; true |] };
            Wire.Run_end { outcome = "success"; detail = "answer"; rounds = 9 } ]
        in
        List.iter
          (fun f ->
            let s = Wire.encode f in
            let len = String.length s in
            expect "version byte zeroed" (mutate s 0 '\000') (function
              | Wire.Bad_version 0 -> true
              | _ -> false);
            expect "version byte from the future"
              (mutate s 0 '\255')
              (function Wire.Bad_version 255 -> true | _ -> false);
            expect "declared length inflated" (mutate s 1 '\255') (function
              | Wire.Oversized _ | Wire.Length_mismatch _ -> true
              | _ -> false);
            expect "declared length off by one"
              (mutate s 4 (Char.chr (Char.code s.[4] lxor 1)))
              (function Wire.Length_mismatch _ -> true | _ -> false);
            expect "one CRC byte flipped"
              (mutate s 5 (Char.chr (Char.code s.[5] lxor 0x40)))
              (function Wire.Crc_mismatch -> true | _ -> false);
            expect "last body byte flipped"
              (mutate s (len - 1) (Char.chr (Char.code s.[len - 1] lxor 0x10)))
              (function Wire.Crc_mismatch -> true | _ -> false);
            expect "truncated to bare header"
              (String.sub s 0 Wire.header_bytes)
              (function Wire.Length_mismatch _ -> true | _ -> false);
            expect "truncated below the header"
              (String.sub s 0 (Wire.header_bytes - 1))
              (function Wire.Short_frame _ -> true | _ -> false))
          frames) ]

(* --- wire codec: the version-2 trace-context prelude -------------------- *)

let frame_and_ctx =
  QCheck.make
    ~print:(fun (f, ctx) ->
      Printf.sprintf "%s ctx{trace=%d; span=%d}" (Format.asprintf "%a" Wire.pp f)
        ctx.Obs.Span.trace ctx.Obs.Span.span)
    QCheck.Gen.(pair Wire_frames.gen_frame Wire_frames.gen_ctx)

let ctx_tests =
  [ qtest
      (QCheck.Test.make ~name:"a trace context rides any frame and round-trips exactly"
         ~count:300 frame_and_ctx (fun (f, ctx) ->
           Wire.decode_ctx (Wire.encode ~ctx f) = Ok (f, Some ctx)));
    qtest
      (QCheck.Test.make ~name:"frames encoded without a context decode to none" ~count:200
         frame_arb (fun f -> Wire.decode_ctx (Wire.encode f) = Ok (f, None)));
    qtest
      (QCheck.Test.make ~name:"version-1 encodings still decode, and never carry a context"
         ~count:200 frame_arb (fun f ->
           match f with
           | Wire.Telemetry_request _ | Wire.Telemetry_reply _ | Wire.Metrics_request
           | Wire.Metrics_reply _ ->
             (* v2-only opcodes have no v1 encoding at all *)
             (match Wire.encode_v1 f with exception Invalid_argument _ -> true | _ -> false)
           | _ -> Wire.decode_ctx (Wire.encode_v1 f) = Ok (f, None)));
    qtest
      (QCheck.Test.make
         ~name:"every strict prefix of a context-carrying frame is a typed error" ~count:200
         (QCheck.make
            ~print:(fun ((f, ctx), i) ->
              Printf.sprintf "%s ctx{%d;%d} @ %d" (Format.asprintf "%a" Wire.pp f)
                ctx.Obs.Span.trace ctx.Obs.Span.span i)
            QCheck.Gen.(pair (pair Wire_frames.gen_frame Wire_frames.gen_ctx) (0 -- 100_000)))
         (fun ((f, ctx), i) ->
           let s = Wire.encode ~ctx f in
           match Wire.decode_ctx (String.sub s 0 (i mod String.length s)) with
           | Ok _ -> false
           | Error _ -> true
           | exception _ -> false));
    Alcotest.test_case "telemetry frames are version-2-only" `Quick (fun () ->
        List.iter
          (fun f ->
            check (Wire.opcode_name f ^ " round-trips") true (Wire.decode (Wire.encode f) = Ok f);
            check (Wire.opcode_name f ^ " has no v1 encoding") true
              (match Wire.encode_v1 f with exception Invalid_argument _ -> true | _ -> false))
          [ Wire.Telemetry_request { tail = 128 };
            Wire.Telemetry_reply
              { metrics = "{\"counters\":{}}"; events = [ "{\"ev\":\"x\"}" ]; dropped = 7 };
            Wire.Metrics_request;
            Wire.Metrics_reply { body = "# EOF\n" } ]);
    Alcotest.test_case "a zero context id is refused at encode time" `Quick (fun () ->
        List.iter
          (fun ctx ->
            check "raises" true
              (match Wire.encode ~ctx (Wire.Activate_query { round = 1 }) with
              | exception Invalid_argument _ -> true
              | _ -> false))
          [ { Obs.Span.trace = 0; span = 3 }; { Obs.Span.trace = 3; span = 0 } ]) ]

(* --- board generations under truncation (incremental readers) ---------- *)

let message v bits = Message.make ~author:v ~payload:(Array.of_list bits)

let board_tests =
  [ Alcotest.test_case "truncate rewinds length and bumps the generation" `Quick (fun () ->
        let b = Board.create 4 in
        let g0 = Board.generation b in
        Board.append b (message 0 [ true ]);
        Board.append b (message 1 [ false; true ]);
        Board.append b (message 2 []);
        check "appends keep the generation" true (Board.generation b = g0);
        Board.truncate b 1;
        Alcotest.(check int) "length rewound" 1 (Board.length b);
        check "generation bumped" true (Board.generation b > g0);
        let g1 = Board.generation b in
        Board.append b (message 3 [ true; true ]);
        check "append after truncate keeps generation" true (Board.generation b = g1);
        check "author slot freed by truncate is reusable" true
          (match Board.append b (message 1 [ true ]) with () -> true));
    Alcotest.test_case "an incremental reader detects rewrites via the generation" `Quick
      (fun () ->
        let b = Board.create 4 in
        (* the reader's replica: (position, generation) plus copied messages *)
        let replica = ref [] and pos = ref 0 and gen = ref (Board.generation b) in
        let catch_up () =
          if Board.generation b <> !gen then begin
            (* stale replica: positions below [pos] may have been rewritten *)
            replica := [];
            pos := 0;
            gen := Board.generation b
          end;
          while !pos < Board.length b do
            replica := Board.get b !pos :: !replica;
            incr pos
          done
        in
        Board.append b (message 0 [ true ]);
        Board.append b (message 1 [] );
        catch_up ();
        Alcotest.(check int) "read both" 2 (List.length !replica);
        Board.truncate b 1;
        Board.append b (message 2 [ false ]);
        Board.append b (message 1 [ true; true ]);
        catch_up ();
        let names = List.rev_map (fun m -> Message.author m) !replica in
        check "replica equals the rewritten board" true (names = [ 0; 2; 1 ]);
        check "replica payloads match" true
          (List.for_all2
             (fun m i -> Message.equal m (Board.get b i))
             (List.rev !replica) [ 0; 1; 2 ]));
    Alcotest.test_case "Board.equal compares authors and payloads in write order" `Quick
      (fun () ->
        let fill msgs =
          let b = Board.create 3 in
          List.iter (Board.append b) msgs;
          b
        in
        let a = fill [ message 0 [ true ]; message 2 [] ] in
        check "equal" true (Board.equal a (fill [ message 0 [ true ]; message 2 [] ]));
        check "payload differs" false (Board.equal a (fill [ message 0 [ false ]; message 2 [] ]));
        check "order differs" false (Board.equal a (fill [ message 2 []; message 0 [ true ] ]));
        check "length differs" false (Board.equal a (fill [ message 0 [ true ] ])));
    Alcotest.test_case "a client rejects an incremental delta across a generation change"
      `Quick (fun () ->
        let entry = Option.get (R.find "bfs") in
        let client = Net.Client.create ~protocol:entry.R.protocol ~key:"bfs" ~session:"s" () in
        let ack =
          Wire.Hello_ack { session = "s"; node = 0; n = 3; neighbors = [| 1 |]; bound = 64 }
        in
        check "joined quietly" true (Net.Client.handle client ~ctx:None ack = []);
        check "first delta ok" true
          (Net.Client.handle client ~ctx:None
             (Wire.Board_delta { from_pos = 0; generation = 0; messages = [ (1, [| true |]) ] })
          = []);
        check "same-generation increment ok" true
          (Net.Client.handle client ~ctx:None
             (Wire.Board_delta { from_pos = 1; generation = 0; messages = [ (2, [||]) ] })
          = []);
        let replies =
          Net.Client.handle client ~ctx:None
            (Wire.Board_delta { from_pos = 2; generation = 1; messages = [ (0, [||]) ] })
        in
        check "incremental delta across generations refused" true
          (match (Net.Client.phase client, replies) with
          | Net.Client.Failed _, [ Wire.Error _ ] -> true
          | _ -> false)) ]

(* --- the loopback differential: remote == Engine.run, all four models -- *)

let differential ?(adv = fun () -> Adversary.min_id) key g =
  match R.find key with
  | None -> Alcotest.failf "unknown protocol %S" key
  | Some entry ->
    check (key ^ ": graph satisfies the promise") true
      (R.satisfies_promise entry.R.promise g);
    let local = Engine.run_packed entry.R.protocol g (adv ()) in
    let remote = Net.Remote.run_loopback ~protocol:entry.R.protocol g (adv ()) in
    check (key ^ ": fault-free") true (remote.Net.Session.faults = []);
    (match Net.Remote.diff_runs remote.Net.Session.run local with
    | [] -> ()
    | issues -> Alcotest.failf "%s: %s" key (String.concat "; " issues))

let loopback_tests =
  [ Alcotest.test_case "SIMASYNC: build-naive and subgraph-sqrt" `Quick (fun () ->
        differential "build-naive" (G.Gen.random_gnp (Prng.create 3) 12 0.3);
        differential "subgraph-sqrt" (G.Gen.random_gnp (Prng.create 8) 12 0.25));
    Alcotest.test_case "SIMASYNC: build-forest on a random tree" `Quick (fun () ->
        differential "build-forest" (G.Gen.random_tree (Prng.create 11) 14));
    Alcotest.test_case "SIMSYNC: mis and two-cliques" `Quick (fun () ->
        differential "mis" (G.Gen.random_gnp (Prng.create 5) 13 0.25);
        differential "two-cliques" (G.Gen.two_cliques_shuffled (Prng.create 6) 7));
    Alcotest.test_case "ASYNC: eob-bfs and bfs-bipartite" `Quick (fun () ->
        differential "eob-bfs" (G.Gen.random_eob (Prng.create 4) 12 0.3);
        differential "bfs-bipartite" (G.Gen.random_bipartite (Prng.create 9) 6 6 0.4));
    Alcotest.test_case "SYNC: bfs, connectivity and spanning-forest" `Quick (fun () ->
        differential "bfs" (G.Gen.random_connected (Prng.create 7) 14 0.2);
        differential "connectivity" (G.Gen.random_gnp (Prng.create 10) 14 0.15);
        differential "spanning-forest" (G.Gen.random_gnp (Prng.create 12) 14 0.2));
    Alcotest.test_case "differential holds under a randomized adversary" `Quick (fun () ->
        differential "bfs" ~adv:(fun () -> Adversary.random (Prng.create 21))
          (G.Gen.random_connected (Prng.create 20) 12 0.25);
        differential "build-naive" ~adv:(fun () -> Adversary.random (Prng.create 23))
          (G.Gen.random_gnp (Prng.create 22) 12 0.3));
    qtest
      (QCheck.Test.make ~name:"loopback differential on random graphs across all four models"
         ~count:10
         (QCheck.make
            ~print:(fun (n, seed) -> Printf.sprintf "n=%d seed=%d" n seed)
            QCheck.Gen.(pair (4 -- 9) (0 -- 9999)))
         (fun (n, seed) ->
           let g = G.Gen.random_gnp (Prng.create seed) n 0.4 in
           (* one Any_graph protocol per model: SIMASYNC, SIMSYNC, ASYNC, SYNC *)
           List.iter (fun key -> differential key g) [ "build-naive"; "mis"; "eob-bfs"; "bfs" ];
           true));
    Alcotest.test_case "loopback runs move the net.* metrics" `Quick (fun () ->
        let sessions = Obs.Metrics.counter "net.sessions" in
        let frames = Obs.Metrics.counter "net.frames_sent" in
        let before_s = Obs.Metrics.counter_value sessions in
        let before_f = Obs.Metrics.counter_value frames in
        let entry = Option.get (R.find "bfs") in
        let g = G.Gen.random_connected (Prng.create 2) 8 0.3 in
        let r = Net.Remote.run_loopback ~protocol:entry.R.protocol g Adversary.min_id in
        check "succeeded" true (Engine.succeeded r.Net.Session.run);
        Alcotest.(check int) "one more session" (before_s + 1)
          (Obs.Metrics.counter_value sessions);
        check "frames were counted" true (Obs.Metrics.counter_value frames > before_f)) ]

(* --- linearity: a session's cost per RPC does not grow with n ---------- *)

(* Minor words allocated per RPC (activation and compose queries) by one
   untraced loopback session of SYNC BFS under min-id on a side x side
   grid.  Deterministic, like kernel.linearity's count: the same code
   allocates the same words on every run. *)
let words_per_rpc side =
  let entry = Option.get (R.find "bfs") in
  let g = G.Gen.grid side side in
  let rpcs () =
    Obs.Metrics.histogram_count (Obs.Metrics.histogram "net.rpc.activate_us")
    + Obs.Metrics.histogram_count (Obs.Metrics.histogram "net.rpc.compose_us")
  in
  let rpcs0 = rpcs () in
  let before = Gc.minor_words () in
  let r = Net.Remote.run_loopback ~protocol:entry.R.protocol g Adversary.min_id in
  let words = Gc.minor_words () -. before in
  check "session succeeds" true (Engine.succeeded r.Net.Session.run && r.Net.Session.faults = []);
  words /. float_of_int (rpcs () - rpcs0)

let linearity_tests =
  [ Alcotest.test_case "a loopback session allocates O(1) words per RPC" `Quick (fun () ->
        let prof = Obs.Prof.is_enabled () in
        Obs.Prof.disable ();
        Fun.protect
          ~finally:(fun () -> if prof then Obs.Prof.enable ())
          (fun () ->
            let small = words_per_rpc 10 and large = words_per_rpc 20 in
            if large > 1.1 *. small || large > 600. || small > 600. then
              Alcotest.failf "%.0f words/RPC on the 10x10 grid, %.0f on the 20x20 grid" small
                large)) ]

(* --- failure semantics: dead nodes starve the run into a deadlock ------ *)

(* Loopback connections like Remote.run_loopback's, but [tamper v] may wrap
   node [v]'s frame handler for fault injection. *)
let tampered_conns ?(tamper = fun _ handler -> handler) ~protocol g =
  let n = G.Graph.n g in
  Array.init n (fun v ->
      let client = Net.Client.create ~protocol ~key:"k" ~session:"s" ~node_pref:v () in
      let handler = tamper v (Net.Client.handle client ~ctx:None) in
      let conn =
        Net.Conn.loopback_served ~peer:(Printf.sprintf "node-%d" v)
          ~handler:(fun ~ctx:_ frame -> handler frame)
      in
      (match
         Net.Conn.send conn
           (Wire.Hello_ack
              { session = "s"; node = v; n; neighbors = G.Graph.neighbors g v; bound = bound_of protocol ~n })
       with
      | Ok () -> ()
      | Error f -> Alcotest.failf "handshake: %s" (Net.Conn.fault_to_string f));
      (client, conn))

let run_session ?trace ~protocol g conns =
  Net.Session.run
    { Net.Session.protocol;
      graph = g;
      adversary = Adversary.min_id;
      max_rounds = None;
      trace;
      parent = None }
    (Array.map snd conns)

let fault_tests =
  [ Alcotest.test_case "a node hanging up mid-run yields a deadlocked configuration" `Quick
      (fun () ->
        let entry = Option.get (R.find "bfs") in
        let g = G.Gen.random_connected (Prng.create 13) 8 0.3 in
        let tamper v handler =
          if v <> 0 then handler
          else begin
            (* survive the handshake and one query, then vanish *)
            let calls = ref 0 in
            fun frame ->
              incr calls;
              if !calls > 2 then raise Net.Conn.Hangup else handler frame
          end
        in
        let conns = tampered_conns ~tamper ~protocol:entry.R.protocol g in
        let r = run_session ~protocol:entry.R.protocol g conns in
        check "deadlock" true (r.Net.Session.run.Engine.outcome = Engine.Deadlock);
        check "the hangup is recorded against node 0" true
          (match r.Net.Session.faults with
          | [ (0, Net.Session.Transport Net.Conn.Closed) ] -> true
          | _ -> false);
        check "node 0 never wrote" true (not (Board.has_author r.Net.Session.run.Engine.board 0));
        (* the survivors were told about the deadlock *)
        Array.iteri
          (fun v (client, _) ->
            if v <> 0 then
              check (Printf.sprintf "node %d saw RUN-END" v) true
                (match Net.Client.phase client with
                | Net.Client.Finished { outcome = "deadlock"; _ } -> true
                | _ -> false))
          conns);
    Alcotest.test_case "malformed frames from a node are a typed fault, not an exception"
      `Quick (fun () ->
        let entry = Option.get (R.find "bfs") in
        let g = G.Gen.path 4 in
        let malformed = Obs.Metrics.counter "net.malformed_frames" in
        let before = Obs.Metrics.counter_value malformed in
        let conns = tampered_conns ~protocol:entry.R.protocol g in
        let bad =
          Net.Conn.make ~peer:"node-2-evil"
            ~send:(fun _ -> Ok ())
            ~recv:(fun () -> Error (Net.Conn.Bad_frame Wire.Crc_mismatch))
            ~close:(fun () -> ())
        in
        let conns = Array.mapi (fun v (c, conn) -> (c, if v = 2 then bad else conn)) conns in
        let r = run_session ~protocol:entry.R.protocol g conns in
        check "deadlock" true (r.Net.Session.run.Engine.outcome = Engine.Deadlock);
        check "CRC fault recorded against node 2" true
          (match r.Net.Session.faults with
          | [ (2, Net.Session.Transport (Net.Conn.Bad_frame Wire.Crc_mismatch)) ] -> true
          | _ -> false);
        check "malformed-frame metric moved" true
          (Obs.Metrics.counter_value malformed > before));
    Alcotest.test_case "a confused peer (wrong reply opcode) is marked dead" `Quick (fun () ->
        let entry = Option.get (R.find "bfs") in
        let g = G.Gen.path 3 in
        let tamper v handler =
          if v <> 1 then handler
          else
            fun frame ->
              List.map
                (function
                  | Wire.Activate_reply { round; _ } -> Wire.Write_grant { round; position = 0 }
                  | f -> f)
                (handler frame)
        in
        let conns = tampered_conns ~tamper ~protocol:entry.R.protocol g in
        let r = run_session ~protocol:entry.R.protocol g conns in
        check "deadlock" true (r.Net.Session.run.Engine.outcome = Engine.Deadlock);
        check "confusion recorded against node 1" true
          (match r.Net.Session.faults with
          | [ (1, Net.Session.Confused _) ] -> true
          | _ -> false));
    Alcotest.test_case "each dead node leaves one fault span under the session span" `Quick
      (fun () ->
        let entry = Option.get (R.find "bfs") in
        let g = G.Gen.random_connected (Prng.create 13) 8 0.3 in
        (* nodes 0 and 5 survive the handshake and one query, then vanish *)
        let tamper v handler =
          if v <> 0 && v <> 5 then handler
          else begin
            let calls = ref 0 in
            fun frame ->
              incr calls;
              if !calls > 2 then raise Net.Conn.Hangup else handler frame
          end
        in
        let conns = tampered_conns ~tamper ~protocol:entry.R.protocol g in
        let sink, events = Obs.Trace.collector () in
        let r = run_session ~trace:sink ~protocol:entry.R.protocol g conns in
        let starts =
          List.filter_map
            (function
              | Obs.Event.Span_start { span; parent; name; attrs; _ } -> Some (span, parent, name, attrs)
              | _ -> None)
            (events ())
        in
        let session =
          match List.filter (fun (_, _, name, _) -> name = "session") starts with
          | [ (span, _, _, _) ] -> span
          | l -> Alcotest.failf "%d session spans" (List.length l)
        in
        let fault_nodes =
          List.filter_map
            (fun (_, parent, name, attrs) ->
              if name <> "fault" then None
              else begin
                check "a fault span is a child of the session span" true (parent = Some session);
                List.assoc_opt "node" attrs
              end)
            starts
        in
        Alcotest.(check (list string))
          "one fault span per dead node" [ "1"; "6" ]
          (List.sort compare fault_nodes);
        Alcotest.(check (list int))
          "the deaths agree" [ 0; 5 ]
          (List.sort compare (List.map (fun d -> d.Net.Session.node) r.Net.Session.deaths));
        let opened = List.map (fun (span, _, _, _) -> span) starts in
        let closed =
          List.filter_map
            (function Obs.Event.Span_stop { span; _ } -> Some span | _ -> None)
            (events ())
        in
        check "the referee closes every span it opens" true
          (List.sort compare opened = List.sort compare closed)) ]

(* --- real sockets ------------------------------------------------------ *)

let connect_local port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  fd

let write_raw fd s =
  let b = Bytes.of_string s in
  let rec go off =
    if off < Bytes.length b then go (off + Unix.write fd b off (Bytes.length b - off))
  in
  go 0

let spec_of entry g ~timeout =
  { Net.Server.key = "bfs";
    protocol = entry.R.protocol;
    graph = g;
    make_adversary = (fun () -> Adversary.min_id);
    max_rounds = None;
    timeout;
    trace = None }

(* Join all n nodes of [session] from client threads; returns per-node
   outcomes. *)
let join_all ~port ~protocol ~session n =
  let outcomes = Array.make n (Error "never ran") in
  let threads =
    List.init n (fun v ->
        Thread.create
          (fun () ->
            let fd = connect_local port in
            let conn = Net.Conn.of_fd ~timeout:10.0 ~peer:(Printf.sprintf "c%d" v) fd in
            let client = Net.Client.create ~protocol ~key:"bfs" ~session ~node_pref:v () in
            outcomes.(v) <- Net.Client.run client conn)
          ())
  in
  List.iter Thread.join threads;
  outcomes

(* A session is fault-free when it recorded no (node, fault) pair; the
   check prints the pairs it saw. *)
let check_fault_free label (r : Net.Session.result) =
  Alcotest.(check (list string))
    label []
    (List.map
       (fun (v, f) -> Printf.sprintf "node %d: %s" v (Net.Session.fault_to_string f))
       r.Net.Session.faults)

let socket_tests =
  [ Alcotest.test_case "socket session at n=16 matches Engine.run exactly" `Quick (fun () ->
        let entry = Option.get (R.find "bfs") in
        let g = G.Gen.grid 4 4 in
        let local = Engine.run_packed entry.R.protocol g Adversary.min_id in
        match
          Net.Remote.run_socket ~key:"bfs" ~protocol:entry.R.protocol ~graph:g
            ~make_adversary:(fun () -> Adversary.min_id) ()
        with
        | Error msg -> Alcotest.failf "socket run failed: %s" msg
        | Ok r ->
          check_fault_free "fault-free" r;
          (match Net.Remote.diff_runs r.Net.Session.run local with
          | [] -> ()
          | issues -> Alcotest.failf "socket differential: %s" (String.concat "; " issues)));
    Alcotest.test_case "handshake rejections are typed and leave the server clean" `Quick
      (fun () ->
        let entry = Option.get (R.find "bfs") in
        let g = G.Gen.grid 3 3 in
        let server = Net.Server.create ~port:0 (spec_of entry g ~timeout:2.0) in
        let st = Net.Server.serve_in_thread ~max_sessions:1 server in
        let port = Net.Server.port server in
        let expect_reject name bytes pred =
          let fd = connect_local port in
          write_raw fd bytes;
          let conn = Net.Conn.of_fd ~timeout:2.0 ~peer:name fd in
          (match Net.Conn.recv conn with
          | Ok (Wire.Error { code; detail }) ->
            check name true (pred code detail)
          | Ok f -> Alcotest.failf "%s: server answered %s" name (Wire.opcode_name f)
          | Error f -> Alcotest.failf "%s: %s" name (Net.Conn.fault_to_string f));
          Net.Conn.close conn
        in
        expect_reject "garbage bytes" "this is not a frame at all."
          (fun code _ -> code = Wire.Malformed);
        expect_reject "oversized declared length"
          ("\001" ^ be32 (4 * Wire.max_frame_bytes) ^ be32 0)
          (fun code detail ->
            code = Wire.Malformed
            && (match String.index_opt detail 'o' with Some _ -> true | None -> false));
        expect_reject "non-HELLO first frame"
          (Wire.encode (Wire.Activate_reply { round = 1; activate = true }))
          (fun code _ -> code = Wire.Bad_hello);
        expect_reject "wrong protocol key"
          (Wire.encode (Wire.Hello { session = "main"; protocol = "mis"; node_pref = None }))
          (fun code _ -> code = Wire.Protocol_mismatch);
        (* claim node 0 of a probe session, then try to claim it again *)
        let fd0 = connect_local port in
        let probe = Net.Conn.of_fd ~timeout:2.0 ~peer:"probe" fd0 in
        (match Net.Conn.send probe (Wire.Hello { session = "probe"; protocol = "bfs"; node_pref = Some 0 }) with
        | Ok () -> ()
        | Error f -> Alcotest.failf "probe hello: %s" (Net.Conn.fault_to_string f));
        (match Net.Conn.recv probe with
        | Ok (Wire.Hello_ack { node = 0; n = 9; _ }) -> ()
        | Ok f -> Alcotest.failf "probe expected HELLO-ACK, got %s" (Wire.opcode_name f)
        | Error f -> Alcotest.failf "probe: %s" (Net.Conn.fault_to_string f));
        expect_reject "node already claimed"
          (Wire.encode (Wire.Hello { session = "probe"; protocol = "bfs"; node_pref = Some 0 }))
          (fun code _ -> code = Wire.Node_taken);
        (* after all that abuse, a full session still runs to completion *)
        let outcomes = join_all ~port ~protocol:entry.R.protocol ~session:"main" 9 in
        Array.iteri
          (fun v o ->
            match o with
            | Ok fin -> check (Printf.sprintf "node %d succeeded" v) true (fin.Net.Client.outcome = "success")
            | Error msg -> Alcotest.failf "node %d: %s" v msg)
          outcomes;
        (match Net.Server.take_result server "main" with
        | Some r ->
          check_fault_free "clean session" r;
          let local = Engine.run_packed entry.R.protocol g Adversary.min_id in
          (match Net.Remote.diff_runs r.Net.Session.run local with
          | [] -> ()
          | issues -> Alcotest.failf "differential: %s" (String.concat "; " issues))
        | None -> Alcotest.fail "server stopped without the session result");
        Net.Conn.close probe;
        Net.Server.stop server;
        Thread.join st);
    Alcotest.test_case "a silent node trips the read timeout and deadlocks the run" `Quick
      (fun () ->
        let entry = Option.get (R.find "bfs") in
        let g = G.Gen.path 3 in
        let server = Net.Server.create ~port:0 (spec_of entry g ~timeout:0.4) in
        let st = Net.Server.serve_in_thread ~max_sessions:1 server in
        let port = Net.Server.port server in
        (* node 2 joins, then never answers another frame *)
        let fd = connect_local port in
        let mute = Net.Conn.of_fd ~timeout:5.0 ~peer:"mute" fd in
        (match Net.Conn.send mute (Wire.Hello { session = "main"; protocol = "bfs"; node_pref = Some 2 }) with
        | Ok () -> ()
        | Error f -> Alcotest.failf "mute hello: %s" (Net.Conn.fault_to_string f));
        (match Net.Conn.recv mute with
        | Ok (Wire.Hello_ack { node = 2; _ }) -> ()
        | Ok f -> Alcotest.failf "mute expected HELLO-ACK, got %s" (Wire.opcode_name f)
        | Error f -> Alcotest.failf "mute: %s" (Net.Conn.fault_to_string f));
        let outcomes = join_all ~port ~protocol:entry.R.protocol ~session:"main" 2 in
        (match Net.Server.take_result server "main" with
        | Some r ->
          check "deadlock" true (r.Net.Session.run.Engine.outcome = Engine.Deadlock);
          check "timeout recorded against node 2" true
            (match r.Net.Session.faults with
            | [ (2, Net.Session.Transport Net.Conn.Timeout) ] -> true
            | _ -> false)
        | None -> Alcotest.fail "server stopped without the session result");
        (* the live nodes were told the run deadlocked *)
        Array.iteri
          (fun v o ->
            match o with
            | Ok fin ->
              check (Printf.sprintf "node %d saw the deadlock" v) true
                (fin.Net.Client.outcome = "deadlock")
            | Error msg -> Alcotest.failf "node %d: %s" v msg)
          outcomes;
        Net.Conn.close mute;
        Net.Server.stop server;
        Thread.join st);
    Alcotest.test_case "one server referees two named sessions" `Quick (fun () ->
        let entry = Option.get (R.find "bfs") in
        let g = G.Gen.grid 3 3 in
        let server = Net.Server.create ~port:0 (spec_of entry g ~timeout:2.0) in
        let st = Net.Server.serve_in_thread ~max_sessions:2 server in
        let port = Net.Server.port server in
        let local = Engine.run_packed entry.R.protocol g Adversary.min_id in
        List.iter
          (fun session ->
            ignore (join_all ~port ~protocol:entry.R.protocol ~session 9);
            match Net.Server.take_result server session with
            | Some r ->
              check_fault_free (session ^ " fault-free") r;
              (match Net.Remote.diff_runs r.Net.Session.run local with
              | [] -> ()
              | issues -> Alcotest.failf "%s: %s" session (String.concat "; " issues))
            | None -> Alcotest.failf "no result for session %s" session)
          [ "alpha"; "beta" ];
        Thread.join st) ]

(* --- telemetry: span propagation and the TELEMETRY RPC ------------------ *)

let span_starts evs =
  List.filter_map
    (function
      | Obs.Event.Span_start { trace; span; parent; name; _ } -> Some (trace, span, parent, name)
      | _ -> None)
    evs

let telemetry_tests =
  [ Alcotest.test_case "spans propagate driver -> referee -> clients over the loopback" `Quick
      (fun () ->
        let entry = Option.get (R.find "bfs") in
        let g = G.Gen.grid 3 3 in
        let n = G.Graph.n g in
        let driver_sink, driver_events = Obs.Trace.collector () in
        let minter = Obs.Span.minter ~seed:77 () in
        let root = Obs.Span.start minter driver_sink "driver" in
        let session_sink, session_events = Obs.Trace.collector () in
        let clients = Array.init n (fun _ -> Obs.Trace.collector ()) in
        let r =
          Net.Remote.run_loopback ~trace:session_sink ~parent:(Obs.Span.context root)
            ~client_trace:(fun v -> Some (fst clients.(v)))
            ~protocol:entry.R.protocol g Adversary.min_id
        in
        Obs.Span.finish driver_sink root;
        check "succeeded" true (Engine.succeeded r.Net.Session.run);
        let root_ctx = Obs.Span.context root in
        let referee = span_starts (session_events ()) in
        let client_spans =
          List.concat (List.init n (fun v -> span_starts ((snd clients.(v)) ())))
        in
        let all = span_starts (driver_events ()) @ referee @ client_spans in
        check "spans were emitted on every side" true
          ((not (List.is_empty referee)) && not (List.is_empty client_spans));
        check "one trace id everywhere" true
          (List.for_all (fun (trace, _, _, _) -> trace = root_ctx.Obs.Span.trace) all);
        check "all span ids are distinct" true
          (let ids = List.map (fun (_, span, _, _) -> span) all in
           List.length (List.sort_uniq compare ids) = List.length ids);
        check "the session span is a child of the driver root" true
          (List.exists
             (fun (_, _, parent, name) ->
               name = "session" && parent = Some root_ctx.Obs.Span.span)
             referee);
        let rpc_ids =
          List.filter_map
            (fun (_, span, _, name) ->
              if name = "net.rpc.activate" || name = "net.rpc.compose" then Some span else None)
            referee
        in
        check "every client handler span hangs off a referee RPC span" true
          (List.for_all
             (fun (_, _, parent, _) ->
               match parent with Some p -> List.mem p rpc_ids | None -> false)
             client_spans);
        (* each side's stream closes every span it opened *)
        List.iter
          (fun (label, evs) ->
            let opened = List.map (fun (_, span, _, _) -> span) (span_starts evs) in
            let closed =
              List.filter_map
                (function Obs.Event.Span_stop { span; _ } -> Some span | _ -> None)
                evs
            in
            check (label ^ " closes what it opens") true
              (List.sort compare opened = List.sort compare closed))
          (("referee", session_events ())
          :: List.init n (fun v -> (Printf.sprintf "client %d" v, (snd clients.(v)) ()))));
    Alcotest.test_case "TELEMETRY serves metrics and the flight-recorder tail" `Quick
      (fun () ->
        let entry = Option.get (R.find "bfs") in
        let g = G.Gen.grid 3 3 in
        let server = Net.Server.create ~port:0 (spec_of entry g ~timeout:2.0) in
        let st = Net.Server.serve_in_thread server in
        let port = Net.Server.port server in
        let probe tail =
          let conn = Net.Conn.of_fd ~timeout:2.0 ~peer:"telemetry" (connect_local port) in
          (match Net.Conn.send conn (Wire.Telemetry_request { tail }) with
          | Ok () -> ()
          | Error f -> Alcotest.failf "telemetry send: %s" (Net.Conn.fault_to_string f));
          let r = Net.Conn.recv conn in
          Net.Conn.close conn;
          match r with
          | Ok (Wire.Telemetry_reply { metrics; events; dropped }) -> (metrics, events, dropped)
          | Ok f -> Alcotest.failf "telemetry reply: got %s" (Wire.opcode_name f)
          | Error f -> Alcotest.failf "telemetry recv: %s" (Net.Conn.fault_to_string f)
        in
        (* before any session: the metrics parse, and tail 0 sends no events *)
        let metrics, events, _ = probe 0 in
        check "metrics parse as JSON" true
          (match Obs.Json.of_string metrics with Ok _ -> true | Error _ -> false);
        check "tail 0 sends no events" true (List.is_empty events);
        (* a full session populates the ring; the tail is well-formed events *)
        let outcomes = join_all ~port ~protocol:entry.R.protocol ~session:"t" 9 in
        Array.iteri
          (fun v o ->
            match o with Ok _ -> () | Error msg -> Alcotest.failf "node %d: %s" v msg)
          outcomes;
        ignore (Net.Server.take_result server "t");
        let metrics, events, dropped = probe 10_000 in
        check "the ring served events" true (not (List.is_empty events));
        check "dropped count is sane" true (dropped >= 0);
        List.iter
          (fun line ->
            match Obs.Event.of_json (Obs.Json.of_string_exn line) with
            | Ok _ -> ()
            | Error msg -> Alcotest.failf "bad ring event %S: %s" line msg)
          events;
        (match Obs.Json.of_string metrics with
        | Error msg -> Alcotest.failf "metrics: %s" msg
        | Ok j ->
          let hist =
            Option.bind (Obs.Json.member "histograms" j)
              (Obs.Json.member "net.rpc.activate_us")
          in
          check "the ACTIVATE RPC histogram is in the snapshot" true (Option.is_some hist));
        Net.Server.stop server;
        Thread.join st);
    Alcotest.test_case "METRICS serves a valid OpenMetrics exposition" `Quick (fun () ->
        let entry = Option.get (R.find "bfs") in
        let g = G.Gen.grid 3 3 in
        let server = Net.Server.create ~port:0 (spec_of entry g ~timeout:2.0) in
        let st = Net.Server.serve_in_thread server in
        let port = Net.Server.port server in
        let conn = Net.Conn.of_fd ~timeout:2.0 ~peer:"metrics" (connect_local port) in
        (match Net.Conn.send conn Wire.Metrics_request with
        | Ok () -> ()
        | Error f -> Alcotest.failf "metrics send: %s" (Net.Conn.fault_to_string f));
        let r = Net.Conn.recv conn in
        Net.Conn.close conn;
        let body =
          match r with
          | Ok (Wire.Metrics_reply { body }) -> body
          | Ok f -> Alcotest.failf "metrics reply: got %s" (Wire.opcode_name f)
          | Error f -> Alcotest.failf "metrics recv: %s" (Net.Conn.fault_to_string f)
        in
        (match Obs.Metrics.Openmetrics.validate body with
        | Ok () -> ()
        | Error msg -> Alcotest.failf "invalid exposition: %s" msg);
        Net.Server.stop server;
        Thread.join st) ]

let suites =
  [ ("net.wire", wire_tests);
    ("net.wire-prop", wire_prop_tests);
    ("net.wire-pinned", wire_pinned_tests);
    ("net.wire-ctx", ctx_tests);
    ("net.board", board_tests);
    ("net.loopback", loopback_tests);
    ("net.linearity", linearity_tests);
    ("net.faults", fault_tests);
    ("net.socket", socket_tests);
    ("net.telemetry", telemetry_tests) ]
