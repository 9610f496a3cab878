(* Tests for the extension features: the Section 3 closing-remark class
   (split degeneracy), derived problems (SQUARE, DIAMETER, SPANNING-FOREST),
   sketch-based randomized connectivity, and the preferential-attachment
   workload. *)

open Wb_model
module G = Wb_graph
module Prng = Wb_support.Prng

let qtest = QCheck_alcotest.to_alcotest

let check = Alcotest.(check bool)

let seeded = QCheck.small_int

let split_degeneracy_tests =
  [ Alcotest.test_case "known values" `Quick (fun () ->
        Alcotest.(check int) "K6" 0 (G.Algo.split_degeneracy (G.Gen.complete 6));
        Alcotest.(check int) "empty graph" 0 (G.Algo.split_degeneracy (G.Graph.empty 6));
        Alcotest.(check int) "path" 1 (G.Algo.split_degeneracy (G.Gen.path 8));
        Alcotest.(check int) "C5" 2 (G.Algo.split_degeneracy (G.Gen.cycle 5)));
    qtest
      (QCheck.Test.make ~name:"at most ordinary degeneracy" ~count:150 seeded (fun seed ->
           let g = G.Gen.random_gnp (Prng.create seed) 16 0.4 in
           G.Algo.split_degeneracy g <= fst (G.Algo.degeneracy g)));
    qtest
      (QCheck.Test.make ~name:"complement-invariant-ish: complement of k-degenerate is small"
         ~count:80 seeded (fun seed ->
           (* the complement of a k-degenerate graph is in the class with
              the same k: dense prunes mirror sparse ones *)
           let g = G.Gen.random_kdegenerate (Prng.create seed) 14 ~k:2 in
           G.Algo.split_degeneracy (G.Graph.complement g) <= 2));
    qtest
      (QCheck.Test.make ~name:"generator respects the bound" ~count:100
         QCheck.(pair seeded (int_range 0 3))
         (fun (seed, k) ->
           let g = G.Gen.random_split_degenerate (Prng.create seed) 18 ~k in
           G.Algo.split_degeneracy g <= k)) ]

let build_split_tests =
  let protocol k = Wb_protocols.Build_split_degenerate.protocol ~k in
  let build_ok p g seed =
    let run = Engine.run_packed p g (Adversary.random (Prng.create seed)) in
    run.Engine.outcome = Engine.Success (Answer.Graph g)
  in
  [ qtest
      (QCheck.Test.make ~name:"reconstructs the generated class" ~count:80
         QCheck.(pair seeded (int_range 1 3))
         (fun (seed, k) ->
           let g = G.Gen.random_split_degenerate (Prng.create seed) 20 ~k in
           build_ok (protocol k) g (seed + 1)));
    Alcotest.test_case "complete graphs (beyond plain degeneracy!)" `Quick (fun () ->
        List.iter
          (fun n -> check (Printf.sprintf "K%d" n) true (build_ok (protocol 1) (G.Gen.complete n) n))
          [ 2; 5; 9; 17 ]);
    qtest
      (QCheck.Test.make ~name:"complements of k-degenerate graphs" ~count:50 seeded (fun seed ->
           let g = G.Graph.complement (G.Gen.random_kdegenerate (Prng.create seed) 16 ~k:2) in
           build_ok (protocol 2) g (seed + 1)));
    qtest
      (QCheck.Test.make ~name:"also covers plain k-degenerate inputs" ~count:50 seeded
         (fun seed ->
           let g = G.Gen.random_kdegenerate (Prng.create seed) 16 ~k:2 in
           build_ok (protocol 2) g (seed + 1)));
    Alcotest.test_case "rejects outside the class" `Quick (fun () ->
        (* C8 has split-degeneracy 2 > 1 *)
        let run = Engine.run_packed (protocol 1) (G.Gen.cycle 8) Adversary.min_id in
        check "reject" true (run.Engine.outcome = Engine.Success Answer.Reject));
    Alcotest.test_case "exhaustive schedules on K4" `Quick (fun () ->
        let g = G.Gen.complete 4 in
        let ok, count =
          Exhaustive.every_schedule (protocol 1) g (fun r ->
              r.Engine.outcome = Engine.Success (Answer.Graph g))
        in
        check "all" true ok;
        Alcotest.(check int) "4!" 24 count) ]

let derived_problem_tests =
  [ qtest
      (QCheck.Test.make ~name:"has_square agrees with brute force" ~count:150 seeded (fun seed ->
           let g = G.Gen.random_gnp (Prng.create seed) 9 0.3 in
           let m = G.Graph.adjacency_matrix g in
           let naive = ref false in
           (* ordered 4-tuples forming a cycle a-b-c-d-a *)
           for a = 0 to 8 do
             for b = 0 to 8 do
               for c = 0 to 8 do
                 for d = 0 to 8 do
                   if a <> b && a <> c && a <> d && b <> c && b <> d && c <> d then
                     if m.(a).(b) && m.(b).(c) && m.(c).(d) && m.(d).(a) then naive := true
                 done
               done
             done
           done;
           G.Algo.has_square g = !naive));
    Alcotest.test_case "square family facts" `Quick (fun () ->
        check "C4" true (G.Algo.has_square (G.Gen.cycle 4));
        check "K4" true (G.Algo.has_square (G.Gen.complete 4));
        check "triangle" false (G.Algo.has_square (G.Gen.cycle 3));
        check "tree" false (G.Algo.has_square (G.Gen.random_tree (Prng.create 3) 20));
        check "petersen (girth 5)" false (G.Algo.has_square (G.Gen.petersen ())));
    qtest
      (QCheck.Test.make ~name:"SQUARE via BUILD on Apollonian promise" ~count:30 seeded
         (fun seed ->
           let g = G.Gen.apollonian (Prng.create seed) 18 in
           let p = Wb_protocols.Via_build.protocol ~k:3 Problems.Square in
           let run = Engine.run_packed p g (Adversary.random (Prng.create (seed + 1))) in
           run.Engine.outcome = Engine.Success (Answer.Bool (G.Algo.has_square g))));
    qtest
      (QCheck.Test.make ~name:"DIAMETER<=3 via BUILD on trees" ~count:40 seeded (fun seed ->
           let g = G.Gen.random_tree (Prng.create seed) 14 in
           let p = Wb_protocols.Via_build.protocol ~k:1 (Problems.Diameter_at_most 3) in
           let run = Engine.run_packed p g (Adversary.random (Prng.create (seed + 1))) in
           match (run.Engine.outcome, Problems.reference (Problems.Diameter_at_most 3) g) with
           | Engine.Success a, expected -> Answer.equal a expected
           | _ -> false));
    Alcotest.test_case "diameter problem semantics" `Quick (fun () ->
        check "disconnected is false" true
          (Problems.reference (Problems.Diameter_at_most 10) (G.Graph.empty 3) = Answer.Bool false);
        check "star is <=2" true
          (Problems.reference (Problems.Diameter_at_most 2) (G.Gen.star 9) = Answer.Bool true)) ]

let spanning_forest_tests =
  [ qtest
      (QCheck.Test.make ~name:"SYNC spanning forest valid on gnp" ~count:80
         QCheck.(pair seeded (int_range 1 30))
         (fun (seed, n) ->
           let g = G.Gen.random_gnp (Prng.create seed) n 0.15 in
           let run =
             Engine.run_packed Wb_protocols.Spanning_forest_sync.protocol g
               (Adversary.random (Prng.create (seed + 1)))
           in
           match run.Engine.outcome with
           | Engine.Success a -> Problems.valid_answer Problems.Spanning_forest g a
           | _ -> false));
    Alcotest.test_case "spanning forest checker rejects junk" `Quick (fun () ->
        let g = G.Gen.cycle 4 in
        check "good" true
          (Problems.valid_answer Problems.Spanning_forest g (Answer.Edge_set [ (0, 1); (1, 2); (2, 3) ]));
        check "cycle is not a forest" false
          (Problems.valid_answer Problems.Spanning_forest g
             (Answer.Edge_set [ (0, 1); (1, 2); (2, 3); (0, 3) ]));
        check "non-edge rejected" false
          (Problems.valid_answer Problems.Spanning_forest g (Answer.Edge_set [ (0, 2); (0, 1); (1, 2) ]));
        check "too few edges" false
          (Problems.valid_answer Problems.Spanning_forest g (Answer.Edge_set [ (0, 1) ]))) ]

let sketch_tests =
  [ qtest
      (QCheck.Test.make ~name:"sketch connectivity correct (fixed public coins)" ~count:60
         QCheck.(pair seeded (int_range 2 30))
         (fun (seed, n) ->
           let g = G.Gen.random_gnp (Prng.create seed) n 0.15 in
           let p = Wb_protocols.Sketch_connectivity.connectivity ~seed:271828 in
           let run = Engine.run_packed p g (Adversary.random (Prng.create (seed + 1))) in
           run.Engine.outcome = Engine.Success (Answer.Bool (G.Algo.is_connected g))));
    qtest
      (QCheck.Test.make ~name:"sketch spanning forest valid" ~count:40
         QCheck.(pair seeded (int_range 2 24))
         (fun (seed, n) ->
           let g = G.Gen.random_gnp (Prng.create seed) n 0.2 in
           let p = Wb_protocols.Sketch_connectivity.spanning_forest ~seed:314159 in
           let run = Engine.run_packed p g (Adversary.random (Prng.create (seed + 1))) in
           match run.Engine.outcome with
           | Engine.Success a -> Problems.valid_answer Problems.Spanning_forest g a
           | _ -> false));
    Alcotest.test_case "message size grows polylog, not linearly" `Quick (fun () ->
        let bits n =
          let g = G.Gen.random_connected (Prng.create 4) n 0.1 in
          let p = Wb_protocols.Sketch_connectivity.connectivity ~seed:5 in
          let run = Engine.run_packed p g Adversary.min_id in
          check "success" true (Engine.succeeded run);
          run.Engine.stats.max_message_bits
        in
        let b64 = bits 64 and b256 = bits 256 in
        (* n grew 4x; log^3 n grows (8/6)^3 ~ 2.4x.  (The constant is large:
           at small n the sketch is bigger than a full row — the asymptotic
           o(n) claim is about growth, which is what we check.) *)
        check "sub-linear growth" true (float_of_int b256 /. float_of_int b64 < 3.0));
    Alcotest.test_case "empty and singleton graphs" `Quick (fun () ->
        let p = Wb_protocols.Sketch_connectivity.connectivity ~seed:1 in
        let run1 = Engine.run_packed p (G.Graph.empty 1) Adversary.min_id in
        check "n=1 connected" true (run1.Engine.outcome = Engine.Success (Answer.Bool true));
        let run2 = Engine.run_packed p (G.Graph.empty 2) Adversary.min_id in
        check "n=2 isolated" true (run2.Engine.outcome = Engine.Success (Answer.Bool false))) ]

let workload_tests =
  [ qtest
      (QCheck.Test.make ~name:"preferential attachment: connected, degeneracy <= m" ~count:60
         QCheck.(pair seeded (int_range 1 4))
         (fun (seed, m) ->
           let g = G.Gen.preferential_attachment (Prng.create seed) 40 ~m in
           G.Algo.is_connected g && fst (G.Algo.degeneracy g) <= m));
    Alcotest.test_case "preferential attachment grows hubs" `Quick (fun () ->
        let g = G.Gen.preferential_attachment (Prng.create 11) 300 ~m:2 in
        check "max degree well above m" true (G.Graph.max_degree g > 10)) ]

let suites =
  [ ("ext.split-degeneracy", split_degeneracy_tests);
    ("ext.build-split", build_split_tests);
    ("ext.derived-problems", derived_problem_tests);
    ("ext.spanning-forest", spanning_forest_tests);
    ("ext.sketch", sketch_tests);
    ("ext.workloads", workload_tests) ]
