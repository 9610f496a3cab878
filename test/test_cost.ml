(* Communication cost: the theorem certificates of Wb_bench.Cost, and the
   reconciliation of the kernel's one bit count with everything that reads
   it — Write trace events, the engine.message_bits histogram, engine stats
   and the networked session must all report the same bits.

   The engine.* instruments are process-global, so every check reads them
   as deltas around its own runs. *)

module Obs = Wb_obs
module Cost = Wb_bench.Cost
module Engine = Wb_model.Engine
module Adversary = Wb_model.Adversary
module Protocol = Wb_model.Protocol
module G = Wb_graph
module Reg = Wb_protocols.Registry
module Net = Wb_net
module Prng = Wb_support.Prng
module Counting = Wb_reductions.Counting
module Nat = Wb_bignum.Nat

let check msg = Alcotest.(check bool) msg true

(* --- certificates ------------------------------------------------------ *)

(* 2^(n^2) members, so the Lemma 3 floor is exactly n bits. *)
let toy_cert =
  { Cost.form = "2n (toy)";
    envelope = (fun ~n -> 2 * n);
    floor = Some { Counting.name = "toy"; count = (fun n -> Nat.shift_left Nat.one (n * n)) } }

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
            let r = Cost.measure e ~seed:2012 ~n:16 in
            check (e.Reg.key ^ " verdict") (Cost.verdict_ok r.Cost.verdict))
          (Reg.all ());
        check "an unknown key has no certificate"
          (match Cost.certificate "no-such" with
          | exception Invalid_argument _ -> true
          | _ -> false));
    Alcotest.test_case "a sweep measures each instance size once" `Quick (fun () ->
        (* two-cliques entries round 3 and 5 down to 2 and 4 *)
        let rep, _ = Cost.sweep ~seed:2012 ~fast:false ~ns:[ 2; 3; 4; 5 ] () in
        let names =
          List.filter_map
            (fun r -> Option.bind (Obs.Json.member "name" r) Obs.Json.to_str)
            (Option.value ~default:[]
               (Option.bind (Obs.Json.member "rows" (Wb_bench.Report.to_json rep)) Obs.Json.to_list))
        in
        check "the sweep wrote rows" (names <> []);
        Alcotest.(check int)
          "distinct row names" (List.length names)
          (List.length (List.sort_uniq String.compare names))) ]

(* --- Write events == engine.message_bits == engine stats --------------- *)

let message_bits = Obs.Metrics.histogram "engine.message_bits"
let engine_writes = Obs.Metrics.counter "engine.writes"

let write_bits events =
  List.fold_left
    (fun acc ev -> match ev with Obs.Event.Write { bits; _ } -> acc + bits | _ -> acc)
    0 events

(* One traced run of [key] on [g]: the Write events and the histogram must
   both account the run's [total_bits], the histogram once per append. *)
let reconciles g key =
  let entry = Option.get (Reg.find key) in
  let c0 = Obs.Metrics.histogram_count message_bits in
  let s0 = Obs.Metrics.histogram_sum message_bits in
  let sink, events = Obs.Trace.collector () in
  let run = Engine.run_packed ~trace:sink entry.Reg.protocol g Adversary.min_id in
  let total = run.Engine.stats.Engine.total_bits in
  let writes = Array.length run.Engine.writes in
  let counted = Obs.Metrics.histogram_count message_bits - c0 in
  let summed = Obs.Metrics.histogram_sum message_bits - s0 in
  let traced = write_bits (events ()) in
  if not (Engine.succeeded run) then QCheck.Test.fail_reportf "%s: run failed" key
  else if traced <> total || counted <> writes || summed <> total then
    QCheck.Test.fail_reportf
      "%s: total_bits %d over %d writes; Write events carry %d bits; engine.message_bits \
       observed %d values summing to %d"
      key total writes traced counted summed
  else true

let reconciliation_tests =
  [ QCheck_alcotest.to_alcotest ~speed_level:`Quick
      ~rand:(Random.State.make [| 2012 |])
      (QCheck.Test.make ~count:15 ~name:"Write events and engine.message_bits equal engine stats"
         (QCheck.make
            ~print:(fun (n, seed) -> Printf.sprintf "n=%d seed=%d" n seed)
            QCheck.Gen.(pair (5 -- 10) (0 -- 9999)))
         (fun (n, seed) ->
           let g = G.Gen.random_gnp (Prng.create seed) n 0.4 in
           (* one Any_graph protocol per model: SIMASYNC, SIMSYNC, ASYNC, SYNC *)
           List.for_all (reconciles g) [ "build-naive"; "mis"; "eob-bfs"; "bfs" ]));
    Alcotest.test_case "verify observes every write, replays included" `Quick (fun () ->
        let g = G.Gen.random_tree (Prng.create 4) 6 in
        let w0 = Obs.Metrics.counter_value engine_writes in
        let c0 = Obs.Metrics.histogram_count message_bits in
        (match
           Engine.verify_packed ~jobs:2
             (Protocol.opaque Wb_protocols.Build_forest.protocol)
             g Engine.succeeded
         with
        | Ok v -> check "every schedule succeeds" v.Engine.valid
        | Error (`Limit k) -> Alcotest.failf "verify hit its limit at %d" k);
        let writes = Obs.Metrics.counter_value engine_writes - w0 in
        check "backtracking replays writes" (writes > 6);
        Alcotest.(check int) "one observation per write" writes
          (Obs.Metrics.histogram_count message_bits - c0));
    Alcotest.test_case "loopback sessions reconcile board bits with wire bytes" `Quick (fun () ->
        let entry = Option.get (Reg.find "bfs") in
        let g = G.Gen.random_connected (Prng.create 2) 8 0.3 in
        let board = Obs.Metrics.counter "net.session.board_bits" in
        let wire = Obs.Metrics.counter "net.session.wire_bytes" in
        let b0 = Obs.Metrics.counter_value board in
        let w0 = Obs.Metrics.counter_value wire in
        let s0 = Obs.Metrics.histogram_sum message_bits in
        let r = Net.Remote.run_loopback ~protocol:entry.Reg.protocol g Adversary.min_id in
        check "succeeded" (Engine.succeeded r.Net.Session.run);
        let total = r.Net.Session.run.Engine.stats.Engine.total_bits in
        Alcotest.(check int) "session board-bit counter advanced by the run total" total
          (Obs.Metrics.counter_value board - b0);
        Alcotest.(check int) "the referee's kernel observed the same bits" total
          (Obs.Metrics.histogram_sum message_bits - s0);
        let wire_bits = 8 * (Obs.Metrics.counter_value wire - w0) in
        check "framing makes the wire strictly wider than the board" (wire_bits > total);
        check "the overhead gauge is set"
          (Obs.Metrics.gauge_value (Obs.Metrics.gauge "net.session.wire_overhead_pct") > 100)) ]

let suites =
  [ ("cost.certificates", certificate_tests); ("cost.reconciliation", reconciliation_tests) ]
