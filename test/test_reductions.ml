open Wb_reductions
module P = Wb_model
module G = Wb_graph
module Prng = Wb_support.Prng
module Nat = Wb_bignum.Nat

let qtest = QCheck_alcotest.to_alcotest

let check = Alcotest.(check bool)

let seeded = QCheck.small_int

let counting_tests =
  [ Alcotest.test_case "class counts at tiny n are exact" `Quick (fun () ->
        Alcotest.(check string) "all n=4" "64" (Nat.to_string (Counting.all_graphs.count 4));
        Alcotest.(check string) "bipartite n=4" "16" (Nat.to_string (Counting.balanced_bipartite.count 4));
        Alcotest.(check string) "eob n=5" "64" (Nat.to_string (Counting.even_odd_bipartite.count 5));
        Alcotest.(check string) "trees n=4" "16" (Nat.to_string (Counting.labelled_trees.count 4));
        Alcotest.(check string) "trees n=2" "1" (Nat.to_string (Counting.labelled_trees.count 2)));
    Alcotest.test_case "trees count matches exhaustive enumeration at n=4" `Quick (fun () ->
        let trees =
          List.filter
            (fun g -> G.Graph.num_edges g = 3 && G.Algo.is_connected g)
            (G.Gen.all_labelled_graphs 4)
        in
        Alcotest.(check int) "cayley 4^2" 16 (List.length trees));
    Alcotest.test_case "lemma 3: bipartite reconstruction needs Omega(n) bits" `Quick (fun () ->
        (* log2 g(n) = (n/2)^2, so per-node messages need >= n/4 bits. *)
        List.iter
          (fun n ->
            let b = Counting.min_message_bits Counting.balanced_bipartite n in
            check (Printf.sprintf "n=%d" n) true (b >= n / 4))
          [ 16; 64; 256; 1024; 4096 ]);
    Alcotest.test_case "lemma 3: trees need Theta(log n) bits" `Quick (fun () ->
        List.iter
          (fun (n, lo, hi) ->
            let b = Counting.min_message_bits Counting.labelled_trees n in
            check (Printf.sprintf "n=%d got %d" n b) true (b >= lo && b <= hi))
          [ (256, 6, 9); (1024, 8, 11); (16384, 12, 15) ]);
    Alcotest.test_case "feasible is monotone in f_bits" `Quick (fun () ->
        let cls = Counting.even_odd_bipartite in
        let b = Counting.min_message_bits cls 100 in
        check "at floor" true (Counting.feasible cls ~n:100 ~f_bits:b);
        check "below floor" false (Counting.feasible cls ~n:100 ~f_bits:(b - 1))) ]

let fig1_tests =
  [ qtest
      (QCheck.Test.make ~name:"gadget faithful on random bipartite" ~count:40 seeded (fun seed ->
           let rng = Prng.create seed in
           Triangle_reduction.gadget_faithful (G.Gen.random_bipartite rng 5 5 0.4)));
    qtest
      (QCheck.Test.make ~name:"gadget faithful on triangle-free gnp" ~count:60 seeded (fun seed ->
           let rng = Prng.create seed in
           let g = G.Gen.random_gnp rng 8 0.2 in
           QCheck.assume (not (G.Algo.has_triangle g));
           Triangle_reduction.gadget_faithful g));
    Alcotest.test_case "gadget adds exactly one apex of degree 2" `Quick (fun () ->
        let g = G.Gen.cycle 6 in
        let h = Triangle_reduction.gadget g ~s:1 ~t:4 in
        Alcotest.(check int) "n" 7 (G.Graph.n h);
        Alcotest.(check int) "apex degree" 2 (G.Graph.degree h 6)) ]

let thm3_tests =
  [ qtest
      (QCheck.Test.make ~name:"transformed oracle BUILDs bipartite graphs" ~count:20 seeded
         (fun seed ->
           let rng = Prng.create seed in
           let g = G.Gen.random_bipartite rng 4 4 0.45 in
           let protocol = Triangle_reduction.transform Oracles.triangle_simasync in
           let run = P.Engine.run_packed protocol g (P.Adversary.random rng) in
           run.P.Engine.outcome = P.Engine.Success (P.Answer.Graph g)));
    Alcotest.test_case "transformed protocol works under every schedule (n=4)" `Quick (fun () ->
        let g = G.Gen.complete_bipartite 2 2 in
        let protocol = Triangle_reduction.transform Oracles.triangle_simasync in
        let ok, count =
          Exhaustive.every_schedule protocol g (fun r ->
              r.P.Engine.outcome = P.Engine.Success (P.Answer.Graph g))
        in
        check "all schedules" true ok;
        Alcotest.(check int) "4!" 24 count);
    Alcotest.test_case "rejects non-SIMASYNC inner protocols" `Quick (fun () ->
        Alcotest.check_raises "model check"
          (Invalid_argument "Triangle_reduction.transform: inner protocol must be SIMASYNC")
          (fun () -> ignore (Triangle_reduction.transform Wb_protocols.Bfs_sync.protocol)));
    Alcotest.test_case "contradiction arithmetic: o(n) triangle messages break Lemma 3" `Quick
      (fun () ->
        (* If TRIANGLE had f(n)-bit SIMASYNC messages, BUILD on bipartite
           graphs would cost 2 f(n+1) + O(log n) bits/node; compare to the
           Lemma 3 floor. *)
        let floor n = Counting.min_message_bits Counting.balanced_bipartite n in
        List.iter
          (fun n ->
            let hypothetical_f = 10 * Wb_support.Bitbuf.width_of n (* 10 log n = o(n) *) in
            let derived = (2 * hypothetical_f) + (3 * Wb_support.Bitbuf.width_of n) in
            check (Printf.sprintf "n=%d" n) true (derived < floor n))
          [ 1024; 4096; 16384 ]) ]

let thm6_tests =
  [ qtest
      (QCheck.Test.make ~name:"MIS gadget characterises edges" ~count:40 seeded (fun seed ->
           Mis_reduction.gadget_faithful (G.Gen.random_gnp (Prng.create seed) 7 0.4)));
    qtest
      (QCheck.Test.make ~name:"transformed oracle BUILDs arbitrary graphs" ~count:20 seeded
         (fun seed ->
           let rng = Prng.create seed in
           let g = G.Gen.random_gnp rng 7 0.35 in
           let protocol = Mis_reduction.transform ~make_inner:(fun ~root -> Oracles.mis_simasync ~root) in
           let run = P.Engine.run_packed protocol g (P.Adversary.random rng) in
           run.P.Engine.outcome = P.Engine.Success (P.Answer.Graph g))) ]

let fig2_tests =
  [ qtest
      (QCheck.Test.make ~name:"gadget layer-3 characterisation, all odd targets" ~count:30 seeded
         (fun seed ->
           let g = G.Gen.random_eob (Prng.create seed) 8 0.4 in
           let ok = ref true in
           let t = ref 1 in
           while !t < 8 do
             if not (Eob_bfs_reduction.gadget_faithful g ~target:!t) then ok := false;
             t := !t + 2
           done;
           !ok));
    qtest
      (QCheck.Test.make ~name:"gadget preserves even-odd bipartiteness" ~count:30 seeded
         (fun seed ->
           let g = G.Gen.random_eob (Prng.create seed) 10 0.4 in
           G.Algo.is_even_odd_bipartite (Eob_bfs_reduction.gadget g ~target:3)));
    Alcotest.test_case "input_ok filters" `Quick (fun () ->
        check "eob even" true (Eob_bfs_reduction.input_ok (G.Gen.random_eob (Prng.create 1) 6 0.5));
        check "odd order" false (Eob_bfs_reduction.input_ok (G.Gen.random_eob (Prng.create 1) 7 0.5));
        check "non-eob" false
          (Eob_bfs_reduction.input_ok (G.Graph.of_edges 6 [ (0, 1); (1, 2); (0, 2) ]))) ]

let thm8_tests =
  [ qtest
      (QCheck.Test.make ~name:"transformed oracle BUILDs EOB graphs" ~count:15 seeded (fun seed ->
           let rng = Prng.create seed in
           let g = G.Gen.random_eob rng 8 0.4 in
           let protocol = Eob_bfs_reduction.transform Oracles.eob_bfs_simsync in
           let run = P.Engine.run_packed protocol g (P.Adversary.random rng) in
           run.P.Engine.outcome = P.Engine.Success (P.Answer.Graph g)));
    Alcotest.test_case "transformed protocol under every schedule (n=4)" `Quick (fun () ->
        let g = G.Graph.of_edges 4 [ (0, 1); (1, 2); (2, 3) ] in
        check "eob" true (G.Algo.is_even_odd_bipartite g);
        let protocol = Eob_bfs_reduction.transform Oracles.eob_bfs_simsync in
        let ok, _ =
          Exhaustive.every_schedule protocol g (fun r ->
              r.P.Engine.outcome = P.Engine.Success (P.Answer.Graph g))
        in
        check "all schedules" true ok) ]

let thm9_tests =
  [ Alcotest.test_case "protocol bits ~ f(n), floor ~ f(n)^2 / n, both respected" `Quick
      (fun () ->
        let rows = Subgraph_bound.evaluate ~cutoff:(fun n -> n / 2) ~ns:[ 32; 64; 128 ] in
        List.iter
          (fun (r : Subgraph_bound.row) ->
            check (Printf.sprintf "n=%d coherent" r.n) true (r.sim_async_bits >= r.lower_bound_bits);
            check "protocol is Theta(f)" true
              (r.sim_async_bits >= r.f && r.sim_async_bits <= r.f + 40))
          rows);
    Alcotest.test_case "o(f) messages are infeasible even for SYNC" `Quick (fun () ->
        (* g = log n bits against f = n/2: the counting bound must refuse. *)
        List.iter
          (fun n ->
            check (Printf.sprintf "n=%d" n) true
              (Subgraph_bound.sync_infeasible ~n ~f:(n / 2) ~g_bits:(Wb_support.Bitbuf.width_of n)))
          [ 64; 256; 1024 ]);
    Alcotest.test_case "f-bit messages are feasible" `Quick (fun () ->
        check "n=64" false (Subgraph_bound.sync_infeasible ~n:64 ~f:32 ~g_bits:32)) ]

let suites =
  [ ("reductions.counting", counting_tests);
    ("reductions.fig1", fig1_tests);
    ("reductions.thm3", thm3_tests);
    ("reductions.thm6", thm6_tests);
    ("reductions.fig2", fig2_tests);
    ("reductions.thm8", thm8_tests);
    ("reductions.thm9", thm9_tests) ]
