(* Wb_obs.Cost: the per-round bit ledger the kernel feeds, the theorem
   certificates the registry declares, and the cross-checks tying the
   accounting layers together — trace events, cost.* counters, engine
   stats and the networked session must all report the same bit totals.

   The ledger instruments are process-global, so every test enables the
   ledger around its own runs and leaves it disabled on exit. *)

module Obs = Wb_obs
module Cost = Wb_obs.Cost
module Engine = Wb_model.Engine
module Adversary = Wb_model.Adversary
module G = Wb_graph
module Reg = Wb_protocols.Registry
module Net = Wb_net
module Prng = Wb_support.Prng
module Counting = Wb_reductions.Counting

let check msg = Alcotest.(check bool) msg true

let qtest t = QCheck_alcotest.to_alcotest t

let with_cost f =
  Cost.enable ();
  Fun.protect ~finally:Cost.disable f

(* --- the ledger itself ------------------------------------------------- *)

let ledger_tests =
  [ Alcotest.test_case "a disabled process allocates no ledger" `Quick (fun () ->
        Cost.disable ();
        check "create is None when off" (Cost.create () = None);
        check "is_enabled reflects the default" (not (Cost.is_enabled ())));
    Alcotest.test_case "record / flush_round round-trips the summary" `Quick (fun () ->
        with_cost (fun () ->
            let l = Option.get (Cost.create ()) in
            Cost.record l ~round:0 ~bits:5 ~board_bits:5;
            Cost.record l ~round:0 ~bits:7 ~board_bits:12;
            (match Cost.flush_round l with
            | Some { Cost.round = 0; writes = 2; bits = 12 } -> ()
            | Some s ->
              Alcotest.failf "wrong summary: round %d, %d writes, %d bits" s.Cost.round
                s.Cost.writes s.Cost.bits
            | None -> Alcotest.fail "flush returned None after two writes");
            check "a round with no writes flushes to None" (Cost.flush_round l = None);
            Alcotest.(check int) "total bits" 12 (Cost.total_bits l);
            Alcotest.(check int) "total writes" 2 (Cost.total_writes l)));
    Alcotest.test_case "discard_round drops the open round, totals stand" `Quick (fun () ->
        with_cost (fun () ->
            let l = Option.get (Cost.create ()) in
            Cost.record l ~round:3 ~bits:9 ~board_bits:9;
            Cost.discard_round l;
            check "nothing left to flush" (Cost.flush_round l = None);
            Alcotest.(check int) "replayed bits still counted" 9 (Cost.total_bits l))) ]

(* --- certificates ------------------------------------------------------ *)

let toy_cert =
  { Cost.form = "2n (toy)";
    envelope = (fun ~n -> 2 * n);
    floor = Some (fun ~n -> n);
    floor_class = Some "toy" }

let certificate_tests =
  [ Alcotest.test_case "check compares measured against envelope and floor" `Quick (fun () ->
        check "between floor and envelope" (Cost.verdict_ok (Cost.check toy_cert ~n:8 ~measured:10));
        check "over the envelope fails"
          (not (Cost.verdict_ok (Cost.check toy_cert ~n:8 ~measured:17)));
        check "under the floor fails" (not (Cost.verdict_ok (Cost.check toy_cert ~n:8 ~measured:3)));
        let v = Cost.check { toy_cert with Cost.floor = None } ~n:8 ~measured:3 in
        check "no floor means the floor check is vacuous" (Cost.verdict_ok v));
    Alcotest.test_case "every registry certificate holds at n=16" `Quick (fun () ->
        List.iter
          (fun (e : Reg.entry) ->
            let r = Wb_bench.Cost.measure e ~seed:2012 ~n:16 in
            check (e.Reg.key ^ " verdict") (Cost.verdict_ok r.Wb_bench.Cost.verdict))
          (Reg.all ()));
    Alcotest.test_case "registry floors match Wb_reductions.Counting" `Quick (fun () ->
        (* The registry duplicates the Lemma 3 arithmetic with Wb_bignum to
           stay out of a dependency cycle with wb_reductions; this is the
           cross-check that the two computations agree. *)
        let sqrt_cutoff n = int_of_float (sqrt (float_of_int n)) in
        List.iter
          (fun (e : Reg.entry) ->
            match (e.Reg.certificate.Cost.floor, e.Reg.certificate.Cost.floor_class) with
            | None, None -> ()
            | Some floor, Some cls ->
              let reference =
                if cls = Counting.labelled_trees.Counting.name then Counting.labelled_trees
                else if cls = Counting.all_graphs.Counting.name then Counting.all_graphs
                else if cls = (Counting.isolated_tail ~f:sqrt_cutoff).Counting.name then
                  Counting.isolated_tail ~f:sqrt_cutoff
                else Alcotest.failf "%s: unknown floor class %S" e.Reg.key cls
              in
              List.iter
                (fun n ->
                  Alcotest.(check int)
                    (Printf.sprintf "%s floor at n=%d" e.Reg.key n)
                    (Counting.min_message_bits reference n)
                    (floor ~n))
                [ 2; 4; 16; 64; 256 ]
            | _ -> Alcotest.failf "%s: floor and floor_class must come together" e.Reg.key)
          (Reg.all ())) ]

(* --- ledger == engine stats == trace events, all four models ----------- *)

let cost_round_bits events =
  List.fold_left
    (fun acc ev -> match ev with Obs.Event.Cost_round { bits; _ } -> acc + bits | _ -> acc)
    0 events

let engine_cross_check key g =
  let entry = Option.get (Reg.find key) in
  let c_bits = Obs.Metrics.counter "cost.total_bits" in
  let c_writes = Obs.Metrics.counter "cost.writes" in
  let b0 = Obs.Metrics.counter_value c_bits in
  let w0 = Obs.Metrics.counter_value c_writes in
  let sink, events = Obs.Trace.collector () in
  let run = Engine.run_packed ~trace:sink entry.Reg.protocol g Adversary.min_id in
  check (key ^ ": succeeded") (Engine.succeeded run);
  let total = run.Engine.stats.Engine.total_bits in
  Alcotest.(check int)
    (key ^ ": cost_round events sum to the engine total")
    total
    (cost_round_bits (events ()));
  Alcotest.(check int)
    (key ^ ": cost.total_bits counter advanced by the engine total")
    total
    (Obs.Metrics.counter_value c_bits - b0);
  Alcotest.(check int)
    (key ^ ": one accounted write per board append")
    (Array.length run.Engine.writes)
    (Obs.Metrics.counter_value c_writes - w0)

let reconciliation_tests =
  [ qtest
      (QCheck.Test.make ~count:15
         ~name:"ledger equals engine stats across all four models"
         (QCheck.make
            ~print:(fun (n, seed) -> Printf.sprintf "n=%d seed=%d" n seed)
            QCheck.Gen.(pair (5 -- 10) (0 -- 9999)))
         (fun (n, seed) ->
           with_cost (fun () ->
               let g = G.Gen.random_gnp (Prng.create seed) n 0.4 in
               (* one Any_graph protocol per model: SIMASYNC, SIMSYNC, ASYNC, SYNC *)
               List.iter
                 (fun key -> engine_cross_check key g)
                 [ "build-naive"; "mis"; "eob-bfs"; "bfs" ];
               true)));
    Alcotest.test_case "loopback sessions reconcile board bits with wire bytes" `Quick (fun () ->
        with_cost (fun () ->
            let entry = Option.get (Reg.find "bfs") in
            let g = G.Gen.random_connected (Prng.create 2) 8 0.3 in
            let board = Obs.Metrics.counter "net.session.board_bits" in
            let wire = Obs.Metrics.counter "net.session.wire_bytes" in
            let c_bits = Obs.Metrics.counter "cost.total_bits" in
            let b0 = Obs.Metrics.counter_value board in
            let w0 = Obs.Metrics.counter_value wire in
            let l0 = Obs.Metrics.counter_value c_bits in
            let r = Net.Remote.run_loopback ~protocol:entry.Reg.protocol g Adversary.min_id in
            check "succeeded" (Engine.succeeded r.Net.Session.run);
            let total = r.Net.Session.run.Engine.stats.Engine.total_bits in
            Alcotest.(check int) "session board-bit counter advanced by the run total" total
              (Obs.Metrics.counter_value board - b0);
            Alcotest.(check int) "the referee's ledger saw the same bits over the wire" total
              (Obs.Metrics.counter_value c_bits - l0);
            let wire_bits = 8 * (Obs.Metrics.counter_value wire - w0) in
            check "framing makes the wire strictly wider than the board" (wire_bits > total);
            check "the overhead gauge is set"
              (Obs.Metrics.gauge_value (Obs.Metrics.gauge "net.session.wire_overhead_pct") > 100))) ]

let suites =
  [ ("cost.ledger", ledger_tests);
    ("cost.certificates", certificate_tests);
    ("cost.reconciliation", reconciliation_tests) ]
