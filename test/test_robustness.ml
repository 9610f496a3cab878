(* Failure injection and cross-cutting invariants: corrupted whiteboards,
   adversarial payloads, determinism, and the execution report. *)

open Wb_model
module G = Wb_graph
module Prng = Wb_support.Prng

let qtest = QCheck_alcotest.to_alcotest

let check = Alcotest.(check bool)

let output_of (p : Protocol.t) ~n board =
  let module M = (val p : Protocol.S) in
  M.output ~n board

let garbage_board n seed =
  let rng = Prng.create seed in
  let board = Board.create n in
  for author = 0 to n - 1 do
    let payload = Array.init (Prng.int rng 40) (fun _ -> Prng.bool rng) in
    Board.append board (Message.make ~author ~payload)
  done;
  board

let corrupted_board_tests =
  [ Alcotest.test_case "BUILD outputs reject or fail-safe on garbage, never wrong graphs" `Quick
      (fun () ->
        List.iter
          (fun seed ->
            let board = garbage_board 6 seed in
            List.iter
              (fun p ->
                match output_of p ~n:6 board with
                | Answer.Reject -> ()
                | Answer.Graph _ -> Alcotest.fail "garbage decoded to a graph"
                | _ -> Alcotest.fail "unexpected answer shape"
                | exception _ -> () (* raising is acceptable: the engine maps it to Output_error *))
              [ Wb_protocols.Build_forest.protocol;
                Wb_protocols.Build_degenerate.protocol ~k:2 ~decoder:`Backtracking;
                Wb_protocols.Build_split_degenerate.protocol ~k:2 ])
          [ 1; 2; 3; 4; 5 ]);
    Alcotest.test_case "duplicate-identifier boards are rejected" `Quick (fun () ->
        (* two messages claiming paper id 1 *)
        let w () =
          let w = Wb_support.Bitbuf.Writer.create () in
          Wb_protocols.Codec.write_id w 1;
          Wb_protocols.Codec.write_int w 0;
          Wb_protocols.Codec.write_int w 0;
          Wb_support.Bitbuf.Writer.contents w
        in
        let board = Board.create 2 in
        Board.append board (Message.make ~author:0 ~payload:(w ()));
        Board.append board (Message.make ~author:1 ~payload:(w ()));
        check "reject" true (output_of Wb_protocols.Build_forest.protocol ~n:2 board = Answer.Reject));
    Alcotest.test_case "forest protocol rejects a consistent-looking lie" `Quick (fun () ->
        (* Node 1 claims degree 1 towards node 2; node 2 claims degree 0:
           the pruning bookkeeping catches the asymmetry. *)
        let msg id deg sum =
          let w = Wb_support.Bitbuf.Writer.create () in
          Wb_protocols.Codec.write_id w id;
          Wb_protocols.Codec.write_int w deg;
          Wb_protocols.Codec.write_int w sum;
          Wb_support.Bitbuf.Writer.contents w
        in
        let board = Board.create 2 in
        Board.append board (Message.make ~author:0 ~payload:(msg 1 1 2));
        Board.append board (Message.make ~author:1 ~payload:(msg 2 0 0));
        check "reject" true (output_of Wb_protocols.Build_forest.protocol ~n:2 board = Answer.Reject)) ]

let determinism_tests =
  [ qtest
      (QCheck.Test.make ~name:"runs are reproducible from the seed" ~count:50 QCheck.small_int
         (fun seed ->
           let g = G.Gen.random_gnp (Prng.create seed) 14 0.2 in
           let go () =
             let run =
               Engine.run_packed Wb_protocols.Bfs_sync.protocol g
                 (Adversary.random (Prng.create (seed * 3)))
             in
             (run.Engine.writes, run.Engine.stats, run.Engine.outcome)
           in
           go () = go ()));
    qtest
      (QCheck.Test.make ~name:"SIMASYNC boards are schedule-independent as multisets" ~count:40
         QCheck.small_int (fun seed ->
           let g = G.Gen.random_tree (Prng.create seed) 10 in
           let bits adv =
             let run = Engine.run_packed Wb_protocols.Build_forest.protocol g adv in
             List.sort compare (Array.to_list run.Engine.message_bits)
           in
           bits Adversary.min_id = bits Adversary.max_id)) ]

let report_tests =
  [ Alcotest.test_case "timeline mentions every node once" `Quick (fun () ->
        let g = G.Gen.path 5 in
        let run = Engine.run_packed Wb_protocols.Bfs_sync.protocol g Adversary.min_id in
        let text = Report.timeline run in
        for v = 1 to 5 do
          let needle = Printf.sprintf "write %d (" v in
          let contains =
            let nl = String.length needle and tl = String.length text in
            let rec go i = i + nl <= tl && (String.sub text i nl = needle || go (i + 1)) in
            go 0
          in
          check (Printf.sprintf "node %d wrote" v) true contains
        done);
    Alcotest.test_case "timeline reports deadlocked nodes" `Quick (fun () ->
        let odd = G.Graph.of_edges 5 [ (0, 1); (0, 2); (1, 2); (1, 3); (3, 4) ] in
        let run = Engine.run_packed Wb_protocols.Bfs_bipartite_async.protocol odd Adversary.min_id in
        let text = Report.timeline run in
        let contains needle =
          let nl = String.length needle and tl = String.length text in
          let rec go i = i + nl <= tl && (String.sub text i nl = needle || go (i + 1)) in
          go 0
        in
        check "deadlock line" true (contains "deadlock");
        check "never-wrote line" true (contains "never wrote: 5"));
    Alcotest.test_case "summary is one line" `Quick (fun () ->
        let g = G.Gen.path 3 in
        let run = Engine.run_packed Wb_protocols.Build_forest.protocol g Adversary.min_id in
        check "no newline" true (not (String.contains (Report.summary run) '\n'))) ]

let codec_tests =
  [ qtest
      (QCheck.Test.make ~name:"signed zig-zag roundtrip" ~count:400 QCheck.int (fun v ->
           let v = v / 4 (* keep 2v in range *) in
           let w = Wb_support.Bitbuf.Writer.create () in
           Wb_protocols.Codec.write_signed w v;
           let r = Wb_support.Bitbuf.Reader.of_bits (Wb_support.Bitbuf.Writer.contents w) in
           Wb_protocols.Codec.read_signed r = v));
    qtest
      (QCheck.Test.make ~name:"payload embedding roundtrip" ~count:200
         QCheck.(small_list bool)
         (fun bits ->
           let payload = Array.of_list bits in
           let w = Wb_support.Bitbuf.Writer.create () in
           Wb_protocols.Codec.write_payload w payload;
           let r = Wb_support.Bitbuf.Reader.of_bits (Wb_support.Bitbuf.Writer.contents w) in
           Wb_protocols.Codec.read_payload r = payload));
    qtest
      (QCheck.Test.make ~name:"big-nat wire roundtrip" ~count:200 QCheck.(pair small_int small_int)
         (fun (a, b) ->
           let v = Wb_bignum.Nat.mul (Wb_bignum.Nat.of_int (abs a)) (Wb_bignum.Nat.pow_int 10 (abs b mod 20)) in
           let w = Wb_support.Bitbuf.Writer.create () in
           Wb_protocols.Codec.write_big w v;
           let r = Wb_support.Bitbuf.Reader.of_bits (Wb_support.Bitbuf.Writer.contents w) in
           Wb_bignum.Nat.equal (Wb_protocols.Codec.read_big r) v));
    Alcotest.test_case "size estimators are upper bounds" `Quick (fun () ->
        List.iter
          (fun v ->
            let w = Wb_support.Bitbuf.Writer.create () in
            Wb_protocols.Codec.write_int w v;
            check (string_of_int v) true
              (Wb_support.Bitbuf.Writer.length_bits w <= Wb_protocols.Codec.int_bits v))
          [ 0; 1; 7; 64; 511; 100000 ]) ]

let registry_explore_tests =
  [ Alcotest.test_case "every deterministic protocol survives exhaustive scheduling at n<=5"
      `Slow (fun () ->
        let rng = Prng.create 31337 in
        List.iter
          (fun (e : Wb_protocols.Registry.entry) ->
            if not e.randomized then begin
              let g =
                match e.promise with
                | Wb_protocols.Registry.Forest -> G.Gen.random_tree rng 5
                | Wb_protocols.Registry.Degeneracy_at_most k ->
                  G.Gen.random_kdegenerate rng 5 ~k:(min k 2)
                | Wb_protocols.Registry.Split_degeneracy_at_most k ->
                  G.Gen.random_split_degenerate rng 5 ~k:(min k 2)
                | Wb_protocols.Registry.Even_odd_bipartite -> G.Gen.random_eob rng 5 0.5
                | Wb_protocols.Registry.Bipartite -> G.Gen.random_bipartite rng 2 3 0.5
                | Wb_protocols.Registry.Regular_two_half -> G.Gen.two_cliques 2
                | Wb_protocols.Registry.Any_graph -> G.Gen.random_gnp rng 5 0.4
              in
              let problem = e.problem (G.Graph.n g) in
              let ok, _ =
                Exhaustive.every_schedule e.protocol g (fun r ->
                    match r.Engine.outcome with
                    | Engine.Success a -> Problems.valid_answer problem g a
                    | _ -> false)
              in
              check e.key true ok
            end)
          (Wb_protocols.Registry.all ())) ]

let semantics_regression_tests =
  [ Alcotest.test_case "explore is idempotent (analysis caches invalidate correctly)" `Quick
      (fun () ->
        (* The BFS protocols share a memoised board digest; backtracking
           exploration must never serve stale sums.  Two identical
           exhaustive checks must agree exactly. *)
        let g = G.Graph.of_edges 6 [ (0, 1); (0, 2); (1, 2); (1, 3); (3, 4); (0, 5) ] in
        let go () =
          Exhaustive.every_schedule Wb_protocols.Bfs_sync.protocol g (fun r ->
              match r.Engine.outcome with
              | Engine.Success a -> Problems.valid_answer Problems.Bfs g a
              | _ -> false)
        in
        let ok1, count1 = go () in
        let ok2, count2 = go () in
        check "ok stable" true (ok1 = ok2);
        Alcotest.(check int) "count stable" count1 count2;
        check "valid" true ok1);
    Alcotest.test_case "interleaving two protocols does not corrupt the shared digest" `Quick
      (fun () ->
        let g = G.Gen.random_eob (Prng.create 4) 10 0.4 in
        let r1 () = Engine.run_packed Wb_protocols.Eob_bfs_async.protocol g Adversary.min_id in
        let r2 () = Engine.run_packed Wb_protocols.Bfs_sync.protocol g Adversary.min_id in
        let a = r1 () in
        let _ = r2 () in
        let b = r1 () in
        check "same outcome" true (a.Engine.outcome = b.Engine.outcome);
        check "same order" true (a.Engine.writes = b.Engine.writes));
    Alcotest.test_case "the adversary genuinely changes MIS answers" `Quick (fun () ->
        (* On P4 the greedy MIS depends on write order: schedules must be
           able to produce at least two distinct (both valid) answers. *)
        let g = G.Gen.path 4 in
        let answers = Hashtbl.create 4 in
        let _ =
          Exhaustive.every_schedule (Wb_protocols.Mis_simsync.protocol ~root:0) g (fun r ->
              (match r.Engine.outcome with
              | Engine.Success (Answer.Node_set s) -> Hashtbl.replace answers (List.sort compare s) ()
              | _ -> ());
              true)
        in
        check "several distinct MIS" true (Hashtbl.length answers >= 2));
    Alcotest.test_case "max_rounds guard reports deadlock instead of hanging" `Quick (fun () ->
        let g = G.Gen.path 4 in
        let run = Engine.run_packed ~max_rounds:2 Wb_protocols.Bfs_sync.protocol g Adversary.min_id in
        check "deadlock" true (run.Engine.outcome = Engine.Deadlock));
    Alcotest.test_case "message_bits matches stats" `Quick (fun () ->
        let g = G.Gen.random_tree (Prng.create 9) 12 in
        let run = Engine.run_packed Wb_protocols.Build_forest.protocol g Adversary.max_id in
        let bits = Array.to_list run.Engine.message_bits in
        Alcotest.(check int) "max" run.Engine.stats.max_message_bits (List.fold_left max 0 bits);
        Alcotest.(check int) "total" run.Engine.stats.total_bits (List.fold_left ( + ) 0 bits)) ]

(* --- session fault paths: disconnect at round k ------------------------- *)

(* The networked referee's fault path under a surgical fault: node 0's
   connection hangs up at round k, across all four model classes and a
   spread of rounds.  Every such session must (a) end in a typed outcome
   with the hangup recorded as a session fault and a death at a recorded
   site — never an exception — and (b) stay engine-reachable: the crash
   replay at the recorded death sites reproduces the faulted run
   exactly. *)
let disconnect_tests =
  let module C = Wb_chaos in
  let module R = Wb_protocols.Registry in
  let instance key graph =
    match R.find key with
    | None -> Alcotest.failf "protocol %s not registered" key
    | Some e ->
      { C.Campaign.key;
        protocol = e.R.protocol;
        graph;
        graph_desc = "test";
        adversary_name = "random";
        make_adversary = (fun ~seed -> Adversary.random (Prng.create seed));
        max_rounds = None }
  in
  let four_models =
    [ instance "bfs" (G.Gen.random_connected (Prng.create 17) 9 0.3);
      instance "mis" (G.Gen.cycle 8);
      instance "build-naive" (G.Gen.random_gnp (Prng.create 13) 8 0.3);
      instance "eob-bfs" (G.Gen.random_eob (Prng.create 11) 10 0.3) ]
  in
  let is_disconnect (_, (e : C.Inject.entry)) =
    match e.C.Inject.action with C.Inject.Disconnect -> true | C.Inject.Fault _ -> false
  in
  [ Alcotest.test_case "disconnect at round k: typed death + replay, all models" `Quick
      (fun () ->
        List.iter
          (fun inst ->
            let fired = ref 0 in
            List.iter
              (fun k ->
                let plan =
                  { (C.Plan.disconnect ~round:k) with C.Plan.targets = C.Plan.Nodes [ 0 ] }
                in
                let report = C.Campaign.run ~seed:(100 + k) ~runs:2 ~plan inst in
                List.iter
                  (fun (r : C.Campaign.run_record) ->
                    (match r.C.Campaign.mismatches with
                    | [] -> ()
                    | issues ->
                      Alcotest.failf "%s disconnect@%d run %d: replay diverged:\n  %s"
                        inst.C.Campaign.key k r.C.Campaign.index
                        (String.concat "\n  " issues));
                    if List.exists is_disconnect r.C.Campaign.injected then begin
                      incr fired;
                      check
                        (Printf.sprintf "%s disconnect@%d run %d: node 0 died"
                           inst.C.Campaign.key k r.C.Campaign.index)
                        true
                        (List.exists
                           (fun (d : Wb_net.Session.death) -> d.Wb_net.Session.node = 0)
                           r.C.Campaign.deaths);
                      check
                        (Printf.sprintf "%s disconnect@%d run %d: hangup is a typed fault"
                           inst.C.Campaign.key k r.C.Campaign.index)
                        true
                        (List.exists (fun (v, _) -> v = 0) r.C.Campaign.faults)
                    end)
                  report.C.Campaign.records)
              [ 1; 2; 3; 4 ];
            (* the fault path must actually run: runs are long enough that
               some round in 1..4 falls inside every session *)
            check (inst.C.Campaign.key ^ ": disconnect fired at least once") true (!fired > 0))
          four_models) ]

let suites =
  [ ("robust.semantics-regressions", semantics_regression_tests);
    ("robust.corrupted-boards", corrupted_board_tests);
    ("robust.determinism", determinism_tests);
    ("robust.report", report_tests);
    ("robust.codec", codec_tests);
    ("robust.registry-explore", registry_explore_tests);
    ("robust.disconnect", disconnect_tests) ]
