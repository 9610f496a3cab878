(* The observability layer: hand-rolled JSON, the event vocabulary and its
   wire round-trip, trace sinks, the metrics registry, and — most
   importantly — the contract between the engine's live event stream and
   the run record (compose counts, ordering invariants, and the
   timeline/summary agreement on the deadlock round). *)

open Wb_model
module G = Wb_graph
module Prng = Wb_support.Prng
module Obs = Wb_obs
module J = Obs.Json
module E = Obs.Event

let qtest = QCheck_alcotest.to_alcotest
let check = Alcotest.(check bool)

(* --- JSON ------------------------------------------------------------- *)

let roundtrip v = J.of_string_exn (J.to_string v)

let json_tests =
  [ Alcotest.test_case "nested value round-trips through the printer" `Quick (fun () ->
        let v =
          J.Obj
            [ ("a", J.List [ J.Int 1; J.Int (-42); J.Null; J.Bool true; J.Bool false ]);
              ("empty", J.List []);
              ("nested", J.Obj [ ("x", J.Float 1.5); ("y", J.String "hi") ]);
              ("none", J.Obj []) ]
        in
        check "roundtrip" true (roundtrip v = v));
    Alcotest.test_case "string escapes round-trip" `Quick (fun () ->
        let v = J.String "quote\" back\\slash \n tab\t ctrl\001 caf\xc3\xa9" in
        check "roundtrip" true (roundtrip v = v));
    Alcotest.test_case "unicode escapes decode to UTF-8" `Quick (fun () ->
        check "latin A" true (J.of_string_exn {|"A"|} = J.String "A");
        check "2-byte" true (J.of_string_exn {|"é"|} = J.String "\xc3\xa9");
        check "3-byte" true (J.of_string_exn {|"€"|} = J.String "\xe2\x82\xac"));
    Alcotest.test_case "integer tokens parse as Int, fraction/exponent as Float" `Quick
      (fun () ->
        check "int" true (J.of_string_exn "3" = J.Int 3);
        check "neg int" true (J.of_string_exn "-17" = J.Int (-17));
        check "frac" true (J.of_string_exn "3.5" = J.Float 3.5);
        check "exp" true (J.of_string_exn "2e3" = J.Float 2000.));
    Alcotest.test_case "malformed inputs are rejected" `Quick (fun () ->
        List.iter
          (fun s ->
            match J.of_string s with
            | Error _ -> ()
            | Ok _ -> Alcotest.failf "accepted %S" s)
          [ "{"; "tru"; "[1,]"; "{\"a\":}"; "1 2"; ""; "\"unterminated"; "{\"a\" 1}" ]);
    Alcotest.test_case "accessors" `Quick (fun () ->
        let v = J.of_string_exn {|{"a": {"b": [1, "two"]}}|} in
        let lst = Option.get (J.to_list (J.get "b" (J.get "a" v))) in
        check "int elem" true (J.to_int (List.nth lst 0) = Some 1);
        check "str elem" true (J.to_str (List.nth lst 1) = Some "two");
        check "missing member" true (J.member "zzz" v = None)) ]

(* --- events ----------------------------------------------------------- *)

let sample_events =
  [ E.Round_start { round = 1 };
    E.Activate { node = 0; round = 1 };
    E.Compose { node = 3; round = 2; bits = 17 };
    E.Adversary_pick { node = 2; round = 2; candidates = [ 0; 2; 5 ] };
    E.Write { node = 2; round = 2; bits = 9; board_bits = 31 };
    E.Deadlock_detected { round = 4 };
    E.Run_end { round = 4; outcome = "deadlock" } ]

let event_tests =
  [ Alcotest.test_case "to_json/of_json round-trips every constructor" `Quick (fun () ->
        List.iter
          (fun ev ->
            match E.of_json (J.of_string_exn (J.to_string (E.to_json ev))) with
            | Ok ev' -> check (Format.asprintf "%a" E.pp ev) true (ev' = ev)
            | Error msg -> Alcotest.failf "decode failed: %s" msg)
          sample_events);
    Alcotest.test_case "of_json rejects unknown tags and missing fields" `Quick (fun () ->
        List.iter
          (fun s ->
            match E.of_json (J.of_string_exn s) with
            | Error _ -> ()
            | Ok _ -> Alcotest.failf "accepted %s" s)
          [ {|{"ev": "warp", "round": 1}|}; {|{"ev": "write", "round": 1}|}; {|[1,2]|} ]) ]

(* --- trace sinks ------------------------------------------------------ *)

let trace_tests =
  [ Alcotest.test_case "collector preserves emission order" `Quick (fun () ->
        let tr, events = Obs.Trace.collector () in
        List.iter (Obs.Trace.emit tr) sample_events;
        check "order" true (events () = sample_events));
    Alcotest.test_case "tee fans out to every sink" `Quick (fun () ->
        let a, ea = Obs.Trace.collector () in
        let b, eb = Obs.Trace.collector () in
        let tr = Obs.Trace.tee [ a; b ] in
        List.iter (Obs.Trace.emit tr) sample_events;
        check "a" true (ea () = sample_events);
        check "b" true (eb () = sample_events));
    Alcotest.test_case "ring keeps the latest [capacity] events" `Quick (fun () ->
        let ring = Obs.Trace.Ring.create ~capacity:3 in
        let tr = Obs.Trace.Ring.sink ring in
        List.iter (Obs.Trace.emit tr) sample_events;
        Alcotest.(check int) "length" 3 (Obs.Trace.Ring.length ring);
        Alcotest.(check int) "dropped" 4 (Obs.Trace.Ring.dropped ring);
        let tail = Obs.Trace.Ring.to_list ring in
        check "latest, oldest first" true
          (tail
          = [ E.Write { node = 2; round = 2; bits = 9; board_bits = 31 };
              E.Deadlock_detected { round = 4 };
              E.Run_end { round = 4; outcome = "deadlock" } ]);
        Obs.Trace.Ring.clear ring;
        Alcotest.(check int) "cleared" 0 (Obs.Trace.Ring.length ring));
    Alcotest.test_case "closed sinks drop events; close is idempotent" `Quick (fun () ->
        let tr, events = Obs.Trace.collector () in
        Obs.Trace.emit tr (List.hd sample_events);
        Obs.Trace.close tr;
        Obs.Trace.close tr;
        Obs.Trace.emit tr (List.hd sample_events);
        Alcotest.(check int) "one event" 1 (List.length (events ()))) ]

(* --- metrics registry ------------------------------------------------- *)

let metrics_tests =
  [ Alcotest.test_case "counters are idempotently registered and add up" `Quick (fun () ->
        let c = Obs.Metrics.counter "test.obs.c" in
        let c' = Obs.Metrics.counter "test.obs.c" in
        let before = Obs.Metrics.counter_value c in
        Obs.Metrics.incr c;
        Obs.Metrics.add c' 4;
        Alcotest.(check int) "shared" (before + 5) (Obs.Metrics.counter_value c);
        check "negative add rejected" true
          (match Obs.Metrics.add c (-1) with
          | exception Invalid_argument _ -> true
          | () -> false));
    Alcotest.test_case "re-registering a name as a different kind is an error" `Quick
      (fun () ->
        let _ = Obs.Metrics.counter "test.obs.kind" in
        check "kind clash" true
          (match Obs.Metrics.gauge "test.obs.kind" with
          | exception Invalid_argument _ -> true
          | _ -> false));
    Alcotest.test_case "histogram buckets observations by bit width" `Quick (fun () ->
        let h = Obs.Metrics.histogram "test.obs.h" in
        let base_count = Obs.Metrics.histogram_count h in
        let base_sum = Obs.Metrics.histogram_sum h in
        List.iter (Obs.Metrics.observe h) [ 0; 1; 2; 3; 8; 1000 ];
        Alcotest.(check int) "count" (base_count + 6) (Obs.Metrics.histogram_count h);
        Alcotest.(check int) "sum" (base_sum + 1014) (Obs.Metrics.histogram_sum h);
        let dump = Obs.Metrics.dump_json () in
        let hj = J.get "test.obs.h" (J.get "histograms" dump) in
        check "count in dump" true (J.to_int (J.get "count" hj) = Some (base_count + 6));
        match J.to_list (J.get "buckets" hj) with
        | Some (_ :: _) -> ()
        | _ -> Alcotest.fail "buckets missing");
    Alcotest.test_case "dump_json has the documented envelope and polls probes" `Quick
      (fun () ->
        let cell = ref 7 in
        Obs.Metrics.probe "test.obs.probe" (fun () -> !cell);
        cell := 11;
        let dump = Obs.Metrics.dump_json () in
        List.iter
          (fun k ->
            match J.member k dump with
            | Some (J.Obj _) -> ()
            | _ -> Alcotest.failf "missing %s" k)
          [ "counters"; "gauges"; "histograms" ];
        check "probe polled at dump time" true
          (J.to_int (J.get "test.obs.probe" (J.get "gauges" dump)) = Some 11));
    Alcotest.test_case "reset zeroes values but keeps registrations" `Quick (fun () ->
        let c = Obs.Metrics.counter "test.obs.reset" in
        Obs.Metrics.add c 9;
        Obs.Metrics.reset ();
        Alcotest.(check int) "zeroed" 0 (Obs.Metrics.counter_value c);
        Obs.Metrics.incr c;
        Alcotest.(check int) "still live" 1 (Obs.Metrics.counter_value c));
    Alcotest.test_case "reset zeroes histograms down to percentiles and the dump" `Quick
      (fun () ->
        let h = Obs.Metrics.histogram "test.obs.reset-h" in
        List.iter (Obs.Metrics.observe h) [ 1; 2; 4; 1000 ];
        check "observed before reset" true (Obs.Metrics.histogram_count h >= 4);
        Obs.Metrics.reset ();
        Alcotest.(check int) "count zeroed" 0 (Obs.Metrics.histogram_count h);
        Alcotest.(check int) "sum zeroed" 0 (Obs.Metrics.histogram_sum h);
        Alcotest.(check int) "percentile of empty" 0 (Obs.Metrics.percentile h 99.);
        let hj = J.get "test.obs.reset-h" (J.get "histograms" (Obs.Metrics.dump_json ())) in
        check "count in dump zeroed" true (J.to_int (J.get "count" hj) = Some 0);
        check "empty dump reports null percentiles" true (J.member "p50" hj = Some J.Null);
        Obs.Metrics.observe h 8;
        Alcotest.(check int) "registration survives" 1 (Obs.Metrics.histogram_count h));
    Alcotest.test_case "percentile estimates from buckets, clamped by the observed max"
      `Quick (fun () ->
        let h = Obs.Metrics.histogram "test.obs.pct" in
        Alcotest.(check int) "empty histogram" 0 (Obs.Metrics.percentile h 50.);
        List.iter (Obs.Metrics.observe h) [ 0; 0; 0; 1000 ];
        Alcotest.(check int) "p50 lands in the zero bucket" 0 (Obs.Metrics.percentile h 50.);
        Alcotest.(check int) "p99 clamped to the max" 1000 (Obs.Metrics.percentile h 99.);
        List.iter
          (fun p ->
            check (Printf.sprintf "p=%g rejected" p) true
              (match Obs.Metrics.percentile h p with
              | exception Invalid_argument _ -> true
              | _ -> false))
          [ -1.; 100.5 ]);
    Alcotest.test_case "engine runs move the engine.* metrics" `Quick (fun () ->
        let runs = Obs.Metrics.counter "engine.runs" in
        let writes = Obs.Metrics.counter "engine.writes" in
        let before_runs = Obs.Metrics.counter_value runs in
        let before_writes = Obs.Metrics.counter_value writes in
        let g = G.Gen.random_tree (Prng.create 3) 12 in
        let run = Engine.run_packed Wb_protocols.Build_forest.protocol g Adversary.min_id in
        check "ran" true (Engine.succeeded run);
        Alcotest.(check int) "runs +1" (before_runs + 1) (Obs.Metrics.counter_value runs);
        Alcotest.(check int) "writes +12" (before_writes + 12) (Obs.Metrics.counter_value writes));
    Alcotest.test_case "PRNG draws are visible through the probe" `Quick (fun () ->
        let before = Wb_support.Prng.total_draws () in
        let rng = Prng.create 1 in
        let _ = Prng.int rng 100 in
        check "draws advanced" true (Wb_support.Prng.total_draws () > before);
        let dump = Obs.Metrics.dump_json () in
        check "probe registered" true (J.member "prng.draws" (J.get "gauges" dump) <> None)) ]

(* --- spans: deterministic ids, linkage, and the Chrome merge ----------- *)

let span_tests =
  [ Alcotest.test_case "minted ids are deterministic, 48-bit and nonzero" `Quick (fun () ->
        let stream seed =
          let m = Obs.Span.minter ~seed () in
          List.init 64 (fun _ -> Obs.Span.mint m)
        in
        check "equal seeds mint equal streams" true (stream 7 = stream 7);
        check "different seeds diverge" true (stream 7 <> stream 8);
        List.iter
          (fun id -> check "48-bit nonzero" true (id > 0 && id < 1 lsl 48))
          (stream 7 @ stream 0));
    Alcotest.test_case "start/finish emit linked span events" `Quick (fun () ->
        let tr, events = Obs.Trace.collector () in
        let m = Obs.Span.minter ~seed:3 () in
        let root = Obs.Span.start ~attrs:[ ("kind", "test") ] m tr "root" in
        let ctx = Obs.Span.context root in
        let child = Obs.Span.start ~parent:ctx ~round:2 m tr "child" in
        Obs.Span.finish ~round:3 tr child;
        Obs.Span.finish ~round:4 tr root;
        match events () with
        | [ E.Span_start { trace = t1; span = s1; parent = p1; name = n1; attrs; _ };
            E.Span_start { trace = t2; span = s2; parent = p2; round = r2; _ };
            E.Span_stop { span = e1; round = er1; _ };
            E.Span_stop { span = e2; _ } ] ->
          check "root has no parent" true (p1 = None);
          check "root name" true (n1 = "root");
          check "attrs carried" true (attrs = [ ("kind", "test") ]);
          check "context exposes the ids" true
            (ctx.Obs.Span.trace = t1 && ctx.Obs.Span.span = s1);
          check "child shares the trace" true (t2 = t1);
          check "child parented under root" true (p2 = Some s1);
          check "child round carried" true (r2 = 2);
          check "child closed first" true (e1 = s2 && er1 = 3);
          check "root closed last" true (e2 = s1)
        | evs -> Alcotest.failf "unexpected stream (%d events)" (List.length evs));
    Alcotest.test_case "span events round-trip through JSON" `Quick (fun () ->
        let tr, events = Obs.Trace.collector () in
        let m = Obs.Span.minter ~seed:9 () in
        let a = Obs.Span.start ~attrs:[ ("n", "16"); ("g", "grid") ] m tr "a" in
        let b = Obs.Span.start ~parent:(Obs.Span.context a) ~round:1 m tr "b" in
        Obs.Span.finish ~round:2 tr b;
        Obs.Span.finish ~round:2 tr a;
        List.iter
          (fun ev ->
            match E.of_json (J.of_string_exn (J.to_string (E.to_json ev))) with
            | Ok ev' -> check (Format.asprintf "%a" E.pp ev) true (ev' = ev)
            | Error msg -> Alcotest.failf "decode failed: %s" msg)
          (events ()));
    Alcotest.test_case "Chrome.merge names each shard and keeps b/e pairs matched" `Quick
      (fun () ->
        let shard seed name =
          let tr, events = Obs.Trace.collector () in
          let m = Obs.Span.minter ~seed () in
          let s = Obs.Span.start m tr name in
          let c = Obs.Span.start ~parent:(Obs.Span.context s) m tr (name ^ ".child") in
          Obs.Span.finish tr c;
          Obs.Span.finish tr s;
          events ()
        in
        (* chop the root's Span_start off one shard: its orphaned Span_stop
           (ring truncation in real life) must be dropped by the merge *)
        let truncated = List.tl (shard 31 "late") in
        let v =
          Obs.Chrome.merge
            [ ("alpha", shard 11 "alpha"); ("beta", shard 21 "beta"); ("late", truncated) ]
        in
        let events = Option.get (J.to_list (J.get "traceEvents" v)) in
        let phase e = J.to_str (J.get "ph" e) in
        let names =
          List.filter_map
            (fun e ->
              if phase e = Some "M" && J.to_str (J.get "name" e) = Some "process_name" then
                Option.bind (J.member "args" e) (fun a ->
                    Option.bind (J.member "name" a) J.to_str)
              else None)
            events
        in
        check "every shard is a named process" true
          (List.sort compare names = [ "alpha"; "beta"; "late" ]);
        let count ph = List.length (List.filter (fun e -> phase e = Some ph) events) in
        Alcotest.(check int) "begins: 2 + 2 + 1" 5 (count "b");
        Alcotest.(check int) "every end has a begin" 5 (count "e");
        let ts = List.filter_map (fun e -> Option.bind (J.member "ts" e) J.to_int) events in
        check "timestamps normalised to zero" true
          (List.exists (fun t -> t = 0) ts && List.for_all (fun t -> t >= 0) ts)) ]

(* --- engine stream: ordering invariants and exporter round-trips ------ *)

let assert_stream_invariants name ?n evs =
  (match List.rev evs with
  | E.Run_end _ :: rest ->
    check (name ^ ": run_end unique") true
      (List.for_all (function E.Run_end _ -> false | _ -> true) rest)
  | _ -> Alcotest.failf "%s: last event is not Run_end" name);
  let activated = Hashtbl.create 16 in
  List.iter
    (function
      | E.Activate { node; _ } -> Hashtbl.replace activated node ()
      | E.Write { node; _ } ->
        check (name ^ ": no write before activate") true (Hashtbl.mem activated node)
      | _ -> ())
    evs;
  let last_start = ref 0 in
  List.iter
    (function
      | E.Round_start { round } ->
        check (name ^ ": round starts strictly increase") true (round > !last_start);
        last_start := round
      | _ -> ())
    evs;
  let last_round = ref 0 in
  List.iter
    (fun ev ->
      let r = E.round ev in
      check (name ^ ": event rounds nondecreasing") true (r >= !last_round);
      last_round := r)
    evs;
  let last_board = ref 0 in
  List.iter
    (function
      | E.Write { board_bits; bits; _ } ->
        check (name ^ ": board grows by each write") true (board_bits = !last_board + bits);
        last_board := board_bits
      | _ -> ())
    evs;
  match n with
  | None -> ()
  | Some n ->
    let writes =
      List.length (List.filter (function E.Write _ -> true | _ -> false) evs)
    in
    Alcotest.(check int) (name ^ ": n writes") n writes

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | line -> go (line :: acc)
    | exception End_of_file ->
      close_in ic;
      List.rev acc
  in
  go []

let with_temp_file suffix f =
  let path = Filename.temp_file "wb_obs_test" suffix in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let traced_bfs_64 () =
  let g = G.Gen.random_connected (Prng.create 41) 64 0.08 in
  let collect, events = Obs.Trace.collector () in
  let run =
    Engine.run_packed ~trace:collect Wb_protocols.Bfs_sync.protocol g Adversary.min_id
  in
  check "succeeded" true (Engine.succeeded run);
  (run, events ())

(* The 64-node BFS through the Chrome writer and a collector at once: the
   live events and the records of the file written from them. *)
let chrome_bfs_64 () =
  with_temp_file ".json" (fun path ->
      let oc = open_out path in
      let chrome = Obs.Chrome.writer oc in
      let collect, events = Obs.Trace.collector () in
      let g = G.Gen.random_connected (Prng.create 41) 64 0.08 in
      let run =
        Engine.run_packed
          ~trace:(Obs.Trace.tee [ chrome; collect ])
          Wb_protocols.Bfs_sync.protocol g Adversary.min_id
      in
      Obs.Trace.close chrome;
      close_out oc;
      check "succeeded" true (Engine.succeeded run);
      let body = In_channel.with_open_bin path In_channel.input_all in
      (events (), Option.get (J.to_list (J.get "traceEvents" (J.of_string_exn body)))))

let engine_stream_tests =
  [ Alcotest.test_case "SYNC BFS n=64 stream satisfies the ordering invariants" `Quick
      (fun () ->
        let _, evs = traced_bfs_64 () in
        assert_stream_invariants "live" ~n:64 evs);
    Alcotest.test_case "SYNC BFS n=64 round-trips through the JSONL exporter" `Quick
      (fun () ->
        with_temp_file ".jsonl" (fun path ->
            let oc = open_out path in
            let jsonl = Obs.Trace.jsonl_writer oc in
            let collect, events = Obs.Trace.collector () in
            let g = G.Gen.random_connected (Prng.create 41) 64 0.08 in
            let run =
              Engine.run_packed
                ~trace:(Obs.Trace.tee [ jsonl; collect ])
                Wb_protocols.Bfs_sync.protocol g Adversary.min_id
            in
            Obs.Trace.close jsonl;
            close_out oc;
            check "succeeded" true (Engine.succeeded run);
            let decoded =
              List.map
                (fun line ->
                  match E.of_json (J.of_string_exn line) with
                  | Ok ev -> ev
                  | Error msg -> Alcotest.failf "bad line %S: %s" line msg)
                (read_lines path)
            in
            check "decoded stream equals the live stream" true (decoded = events ());
            assert_stream_invariants "jsonl" ~n:64 decoded));
    Alcotest.test_case "Chrome export is valid JSON with one slice per node" `Quick
      (fun () ->
        let _, records = chrome_bfs_64 () in
        let phase e = J.to_str (J.get "ph" e) in
        let node_slices =
          List.filter
            (fun e ->
              phase e = Some "X"
              && match Option.bind (J.member "tid" e) J.to_int with Some t -> t >= 1 | None -> false)
            records
        in
        Alcotest.(check int) "64 node lifetime slices" 64 (List.length node_slices);
        List.iter
          (fun e ->
            List.iter
              (fun k ->
                if J.member k e = None then
                  Alcotest.failf "trace event missing %S in %s" k (J.to_string e))
              [ "name"; "ph"; "ts"; "pid"; "tid" ])
          records);
    Alcotest.test_case "Chrome renders each composition once and each round as one slice"
      `Quick (fun () ->
        let evs, records = chrome_bfs_64 () in
        let count_events p = List.length (List.filter p evs) in
        let count_records p = List.length (List.filter p records) in
        let named prefix e =
          match Option.bind (J.member "name" e) J.to_str with
          | Some n -> String.starts_with ~prefix n
          | None -> false
        in
        let ph e = J.to_str (J.get "ph" e) in
        Alcotest.(check int) "one compose record per Compose event"
          (count_events (function E.Compose _ -> true | _ -> false))
          (count_records (named "compose"));
        Alcotest.(check int) "one round slice per Round_start"
          (count_events (function E.Round_start _ -> true | _ -> false))
          (count_records (fun e -> named "round " e && ph e = Some "X"));
        check "no span records in a single-run file" true
          (count_records (fun e -> ph e = Some "b" || ph e = Some "e") = 0));
    Alcotest.test_case "the kernel emits events only, no spans" `Quick (fun () ->
        let _, evs = traced_bfs_64 () in
        check "no Span_start or Span_stop in a traced run" true
          (List.for_all (function E.Span_start _ | E.Span_stop _ -> false | _ -> true) evs));
    Alcotest.test_case "attaching a trace does not change the run" `Quick (fun () ->
        let g = G.Gen.random_connected (Prng.create 17) 32 0.1 in
        let plain = Engine.run_packed Wb_protocols.Bfs_sync.protocol g Adversary.min_id in
        let tr, _ = Obs.Trace.collector () in
        let traced =
          Engine.run_packed ~trace:tr Wb_protocols.Bfs_sync.protocol g Adversary.min_id
        in
        check "identical run records" true (plain = traced));
    Alcotest.test_case "events_of_run matches the live stream's activate/write skeleton"
      `Quick (fun () ->
        let run, evs = traced_bfs_64 () in
        let skeleton =
          List.filter
            (function
              | E.Activate _ | E.Write _ | E.Deadlock_detected _ | E.Run_end _ -> true
              | E.Round_start _ | E.Compose _ | E.Adversary_pick _ | E.Span_start _
              | E.Span_stop _ -> false)
            evs
        in
        check "skeleton equality" true (Report.events_of_run run = skeleton));
    Alcotest.test_case "explore emits one Run_end per checked execution on the worker rings"
      `Quick (fun () ->
        let g = G.Gen.random_ktree (Prng.create 5) 5 ~k:2 in
        let protocol = Protocol.opaque Wb_protocols.Build_forest.protocol in
        List.iter
          (fun jobs ->
            let shards = Array.init jobs (fun _ -> Obs.Trace.Ring.create ~capacity:65536) in
            match Engine.verify_packed ~jobs ~shards protocol g Engine.succeeded with
            | Error _ -> Alcotest.fail "unexpected limit"
            | Ok v ->
              let label = Printf.sprintf "jobs=%d" jobs in
              check (label ^ " all succeed") true v.Engine.valid;
              Alcotest.(check int) (label ^ " 5!") 120 v.Engine.finals;
              Array.iter
                (fun r -> Alcotest.(check int) (label ^ " dropped") 0 (Obs.Trace.Ring.dropped r))
                shards;
              let ends =
                Array.fold_left
                  (fun acc r ->
                    acc
                    + List.length
                        (List.filter
                           (function E.Run_end _ -> true | _ -> false)
                           (Obs.Trace.Ring.to_list r)))
                  0 shards
              in
              Alcotest.(check int) (label ^ " run ends") v.Engine.finals ends)
          [ 1; 3 ]) ]

(* --- satellite 1: timeline and summary agree on the deadlock round ---- *)

(* Triangle 0-1-2 plus tail 1-3-4: the within-layer edge starves node 4's
   layer-completion certificate, so every schedule deadlocks (Section 6). *)
let deadlock_graph () = G.Graph.of_edges 5 [ (0, 1); (0, 2); (1, 2); (1, 3); (3, 4) ]

let deadlock_run () =
  Engine.run_packed Wb_protocols.Bfs_bipartite_async.protocol (deadlock_graph ())
    Adversary.min_id

let contains haystack needle =
  let n = String.length needle in
  let rec scan i =
    i + n <= String.length haystack && (String.sub haystack i n = needle || scan (i + 1))
  in
  scan 0

let timeline_tests =
  [ Alcotest.test_case "deadlocked timeline shows the detection round of the summary"
      `Quick (fun () ->
        let run = deadlock_run () in
        check "deadlocks" true (run.Engine.outcome = Engine.Deadlock);
        let rounds = run.Engine.stats.rounds in
        let evs = Report.events_of_run run in
        check "deadlock event carries the summary's round count" true
          (List.exists
             (function E.Deadlock_detected { round } -> round = rounds | _ -> false)
             evs);
        let timeline = Report.timeline run in
        check "summary line mentions the round count" true
          (contains timeline (Printf.sprintf "%d rounds" rounds));
        check "DEADLOCK row rendered" true (contains timeline "DEADLOCK"));
    Alcotest.test_case "live trace and record-derived timeline agree row by row" `Quick
      (fun () ->
        let g = deadlock_graph () in
        let tr, events = Obs.Trace.collector () in
        let run =
          Engine.run_packed ~trace:tr Wb_protocols.Bfs_bipartite_async.protocol g
            Adversary.min_id
        in
        let strip_live =
          List.filter
            (function
              | E.Activate _ | E.Write _ | E.Deadlock_detected _ | E.Run_end _ -> true
              | _ -> false)
            (events ())
        in
        check "same skeleton" true (Report.events_of_run run = strip_live)) ]

(* --- satellite 2: compose counts, property-tested ---------------------- *)

let compose_matches_trace protocol g adversary =
  let tr, events = Obs.Trace.collector () in
  let run = Engine.run_packed ~trace:tr protocol g adversary in
  let n = Array.length run.Engine.compose_count in
  let from_trace = Array.make n 0 in
  List.iter
    (function
      | E.Compose { node; _ } -> from_trace.(node) <- from_trace.(node) + 1
      | _ -> ())
    (events ());
  (run, run.Engine.compose_count = from_trace)

let compose_tests =
  [ qtest
      (QCheck.Test.make ~name:"frozen models compose exactly once per activated node"
         ~count:40
         QCheck.(pair small_int small_int)
         (fun (seed, size) ->
           let n = 3 + (abs size mod 28) in
           let rng = Prng.create (1 + abs seed) in
           let g, protocol =
             if seed mod 2 = 0 then
               (G.Gen.random_tree rng n, Wb_protocols.Build_forest.protocol)
             else (G.Gen.random_eob rng n 0.3, Wb_protocols.Eob_bfs_async.protocol)
           in
           let run, agrees = compose_matches_trace protocol g (Adversary.random rng) in
           agrees
           && Array.for_all2
                (fun c a -> c = if a >= 0 then 1 else 0)
                run.Engine.compose_count run.Engine.activation_round));
    qtest
      (QCheck.Test.make
         ~name:"sync models: compose count = rounds spent as a write candidate" ~count:40
         QCheck.(pair small_int small_int)
         (fun (seed, size) ->
           let n = 3 + (abs size mod 28) in
           let rng = Prng.create (1 + abs seed) in
           let g, protocol =
             if seed mod 2 = 0 then
               (G.Gen.random_gnp rng n 0.2, Wb_protocols.Mis_simsync.protocol ~root:0)
             else (G.Gen.random_connected rng n 0.2, Wb_protocols.Bfs_sync.protocol)
           in
           let run, agrees = compose_matches_trace protocol g (Adversary.random rng) in
           agrees
           && Array.for_all
                (fun v ->
                  let a = run.Engine.activation_round.(v) in
                  let w = run.Engine.write_round.(v) in
                  w < 0 || run.Engine.compose_count.(v) = w - a)
                (Array.init n Fun.id)));
    Alcotest.test_case "engine.recompositions counter totals the compose events" `Quick
      (fun () ->
        let recomp = Obs.Metrics.counter "engine.recompositions" in
        let before = Obs.Metrics.counter_value recomp in
        let g = G.Gen.grid 4 4 in
        let run, agrees =
          compose_matches_trace Wb_protocols.Bfs_sync.protocol g Adversary.min_id
        in
        check "trace agrees with record" true agrees;
        let total = Array.fold_left ( + ) 0 run.Engine.compose_count in
        Alcotest.(check int) "counter delta" (before + total)
          (Obs.Metrics.counter_value recomp)) ]

let suites =
  [ ("obs.json", json_tests);
    ("obs.event", event_tests);
    ("obs.trace", trace_tests);
    ("obs.metrics", metrics_tests);
    ("obs.span", span_tests);
    ("obs.engine-stream", engine_stream_tests);
    ("obs.timeline", timeline_tests);
    ("obs.compose-count", compose_tests) ]
