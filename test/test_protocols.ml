open Wb_model
module G = Wb_graph
module Prng = Wb_support.Prng

let qtest = QCheck_alcotest.to_alcotest

let check = Alcotest.(check bool)

let seeded = QCheck.small_int

(* Run [protocol] on [g] under one seeded adversary and validate against the
   problem's checker. *)
let run_valid protocol problem g seed =
  let rng = Prng.create seed in
  let run = Engine.run_packed protocol g (Adversary.random rng) in
  match run.Engine.outcome with
  | Engine.Success a -> Problems.valid_answer problem g a
  | Engine.Deadlock | Engine.Size_violation _ | Engine.Output_error _ -> false

(* Validate under EVERY adversarial schedule (small n only). *)
let explore_valid protocol problem g =
  let ok, _count =
    Exhaustive.every_schedule protocol g (fun r ->
        match r.Engine.outcome with
        | Engine.Success a -> Problems.valid_answer problem g a
        | Engine.Deadlock | Engine.Size_violation _ | Engine.Output_error _ -> false)
  in
  ok

let stress_adversaries protocol problem g =
  let strategies =
    [ Adversary.min_id;
      Adversary.max_id;
      Adversary.alternating_extremes;
      Adversary.last_writer_neighbor_avoider g;
      Adversary.random (Prng.create 99) ]
  in
  List.for_all
    (fun adv ->
      match (Engine.run_packed protocol g adv).Engine.outcome with
      | Engine.Success a -> Problems.valid_answer problem g a
      | _ -> false)
    strategies

let decode_tests =
  [ qtest
      (QCheck.Test.make ~name:"Wright: power sums determine the subset (backtracking)" ~count:300
         QCheck.(triple seeded (int_range 1 5) (int_range 10 60))
         (fun (seed, k, n) ->
           let rng = Prng.create seed in
           let d = Prng.int rng (k + 1) in
           let ids =
             Array.to_list (Array.map (fun v -> v + 1) (Prng.sample_without_replacement rng d n))
           in
           let sums = Wb_protocols.Decode.power_sums ~k ids in
           Wb_protocols.Decode.decode_backtracking ~n ~d sums = Some ids));
    qtest
      (QCheck.Test.make ~name:"lookup table decoder agrees" ~count:100
         QCheck.(pair seeded (int_range 1 3))
         (fun (seed, k) ->
           let n = 14 in
           let rng = Prng.create seed in
           let d = Prng.int rng (k + 1) in
           let ids =
             Array.to_list (Array.map (fun v -> v + 1) (Prng.sample_without_replacement rng d n))
           in
           let sums = Wb_protocols.Decode.power_sums ~k ids in
           let table = Wb_protocols.Decode.Table.build ~n ~k in
           Wb_protocols.Decode.Table.decode table ~d sums = Some ids));
    Alcotest.test_case "inconsistent sums decode to None" `Quick (fun () ->
        let sums = Wb_protocols.Decode.power_sums ~k:2 [ 3; 5 ] in
        (* d = 1 cannot realise the two-element sums *)
        check "none" true (Wb_protocols.Decode.decode_backtracking ~n:10 ~d:1 sums = None));
    Alcotest.test_case "subtract_member prunes" `Quick (fun () ->
        let sums = Wb_protocols.Decode.power_sums ~k:3 [ 2; 4; 9 ] in
        let sums = Wb_protocols.Decode.subtract_member sums 4 in
        check "decodes the rest" true
          (Wb_protocols.Decode.decode_backtracking ~n:10 ~d:2 sums = Some [ 2; 9 ]));
    Alcotest.test_case "subtract_member detects underflow" `Quick (fun () ->
        let sums = Wb_protocols.Decode.power_sums ~k:2 [ 1 ] in
        Alcotest.check_raises "underflow"
          (Invalid_argument "Decode.subtract_member: inconsistent sums") (fun () ->
            ignore (Wb_protocols.Decode.subtract_member sums 5))) ]

let build_forest_tests =
  [ qtest
      (QCheck.Test.make ~name:"reconstructs random trees" ~count:100
         QCheck.(pair seeded (int_range 1 80))
         (fun (seed, n) ->
           let g = G.Gen.random_tree (Prng.create seed) n in
           run_valid Wb_protocols.Build_forest.protocol Problems.Build g (seed + 1)));
    qtest
      (QCheck.Test.make ~name:"reconstructs random forests" ~count:100
         QCheck.(pair seeded (int_range 1 60))
         (fun (seed, n) ->
           let g = G.Gen.random_forest (Prng.create seed) n ~keep:0.5 in
           run_valid Wb_protocols.Build_forest.protocol Problems.Build g (seed + 1)));
    Alcotest.test_case "exhaustive schedules on a small forest" `Quick (fun () ->
        let g = G.Graph.of_edges 5 [ (0, 3); (3, 1) ] in
        check "all schedules" true (explore_valid Wb_protocols.Build_forest.protocol Problems.Build g));
    qtest
      (QCheck.Test.make ~name:"rejects graphs with cycles" ~count:100
         QCheck.(pair seeded (int_range 3 40))
         (fun (seed, n) ->
           let rng = Prng.create seed in
           (* a tree plus one extra edge always has a cycle *)
           let t = G.Gen.random_tree rng n in
           let rec extra () =
             let u = Prng.int rng n and v = Prng.int rng n in
             if u <> v && not (G.Graph.mem_edge t u v) then (u, v) else extra ()
           in
           let g = if n >= 3 then G.Graph.extend t ~extra:0 ~new_edges:[ extra () ] else t in
           let run = Engine.run_packed Wb_protocols.Build_forest.protocol g (Adversary.random rng) in
           run.Engine.outcome = Engine.Success Answer.Reject));
    Alcotest.test_case "message size is O(log n): within bound and small" `Quick (fun () ->
        let g = G.Gen.random_tree (Prng.create 5) 500 in
        let run = Engine.run_packed Wb_protocols.Build_forest.protocol g Adversary.min_id in
        check "success" true (Engine.succeeded run);
        check "small messages" true (run.Engine.stats.max_message_bits <= 4 * 10 (* 4 log n *))) ]

let build_degenerate_tests =
  let protocol k = Wb_protocols.Build_degenerate.protocol ~k ~decoder:`Backtracking in
  [ qtest
      (QCheck.Test.make ~name:"reconstructs k-trees (k=1..4)" ~count:60
         QCheck.(pair seeded (int_range 1 4))
         (fun (seed, k) ->
           let g = G.Gen.random_ktree (Prng.create seed) (k + 12) ~k in
           run_valid (protocol k) Problems.Build g (seed + 1)));
    qtest
      (QCheck.Test.make ~name:"reconstructs random k-degenerate graphs" ~count:60
         QCheck.(pair seeded (int_range 1 5))
         (fun (seed, k) ->
           let g = G.Gen.random_kdegenerate (Prng.create seed) 25 ~k in
           run_valid (protocol k) Problems.Build g (seed + 1)));
    qtest
      (QCheck.Test.make ~name:"planar Apollonian graphs via k=3" ~count:40 seeded (fun seed ->
           let g = G.Gen.apollonian (Prng.create seed) 24 in
           run_valid (protocol 3) Problems.Build g (seed + 1)));
    qtest
      (QCheck.Test.make ~name:"table decoder gives identical runs" ~count:30 seeded (fun seed ->
           let g = G.Gen.random_ktree (Prng.create seed) 12 ~k:2 in
           run_valid (Wb_protocols.Build_degenerate.protocol ~k:2 ~decoder:`Table) Problems.Build g
             (seed + 1)));
    Alcotest.test_case "rejects too-dense graphs (K6 with k=3)" `Quick (fun () ->
        let run = Engine.run_packed (protocol 3) (G.Gen.complete 6) Adversary.min_id in
        check "reject" true (run.Engine.outcome = Engine.Success Answer.Reject));
    qtest
      (QCheck.Test.make ~name:"robust recognition: accepts iff degeneracy <= k" ~count:80
         QCheck.(pair seeded (int_range 1 3))
         (fun (seed, k) ->
           let g = G.Gen.random_gnp (Prng.create seed) 14 0.3 in
           let actual, _ = G.Algo.degeneracy g in
           let run = Engine.run_packed (protocol k) g (Adversary.random (Prng.create (seed + 1))) in
           match run.Engine.outcome with
           | Engine.Success (Answer.Graph h) -> actual <= k && G.Graph.equal g h
           | Engine.Success Answer.Reject -> actual > k
           | _ -> false));
    Alcotest.test_case "exhaustive schedules on a small 2-tree" `Quick (fun () ->
        let g = G.Gen.random_ktree (Prng.create 7) 5 ~k:2 in
        check "all schedules" true (explore_valid (protocol 2) Problems.Build g));
    Alcotest.test_case "messages respect the declared O(k^2 log n) bound" `Quick (fun () ->
        List.iter
          (fun k ->
            let g = G.Gen.random_ktree (Prng.create k) 200 ~k in
            let p = protocol k in
            let run = Engine.run_packed p g Adversary.max_id in
            check (Printf.sprintf "k=%d success" k) true (Engine.succeeded run))
          [ 1; 2; 3; 4; 5 ]) ]

let mis_tests =
  let protocol root = Wb_protocols.Mis_simsync.protocol ~root in
  [ qtest
      (QCheck.Test.make ~name:"valid rooted MIS on gnp under random schedules" ~count:150
         QCheck.(triple seeded (int_range 0 19) (int_range 0 100))
         (fun (seed, root, p100) ->
           let g = G.Gen.random_gnp (Prng.create seed) 20 (float_of_int p100 /. 100.0) in
           run_valid (protocol root) (Problems.Rooted_mis root) g (seed + 1)));
    Alcotest.test_case "exhaustive schedules, several graphs" `Quick (fun () ->
        List.iter
          (fun g ->
            check "all schedules" true (explore_valid (protocol 0) (Problems.Rooted_mis 0) g))
          [ G.Gen.cycle 5; G.Gen.path 5; G.Gen.complete 4; G.Gen.star 5 ]);
    Alcotest.test_case "adversary stress on petersen" `Quick (fun () ->
        check "stress" true
          (stress_adversaries (protocol 3) (Problems.Rooted_mis 3) (G.Gen.petersen ())));
    Alcotest.test_case "root always in the set; clique yields singleton+root" `Quick (fun () ->
        let g = G.Gen.complete 6 in
        let run = Engine.run_packed (protocol 2) g Adversary.max_id in
        (match run.Engine.outcome with
        | Engine.Success (Answer.Node_set s) -> Alcotest.(check (list int)) "just the root" [ 2 ] s
        | _ -> Alcotest.fail "failed")) ]

let two_cliques_tests =
  let protocol = Wb_protocols.Two_cliques_simsync.protocol in
  [ qtest
      (QCheck.Test.make ~name:"yes on shuffled two-cliques" ~count:80
         QCheck.(pair seeded (int_range 2 12))
         (fun (seed, half) ->
           let g = G.Gen.two_cliques_shuffled (Prng.create seed) half in
           run_valid protocol Problems.Two_cliques g (seed + 1)));
    qtest
      (QCheck.Test.make ~name:"no on K_{h,h} minus matching" ~count:40
         QCheck.(pair seeded (int_range 2 12))
         (fun (seed, half) ->
           run_valid protocol Problems.Two_cliques (G.Gen.near_two_cliques half) seed));
    Alcotest.test_case "exhaustive schedules both ways" `Quick (fun () ->
        check "yes instance" true (explore_valid protocol Problems.Two_cliques (G.Gen.two_cliques 3));
        check "no instance" true
          (explore_valid protocol Problems.Two_cliques (G.Gen.near_two_cliques 3)));
    Alcotest.test_case "the all-R-then-L schedule does not fool the protocol" `Quick (fun () ->
        (* This is the adversarial order that defeats the paper's prose
           version (every node labels 0); the size check catches it. *)
        let half = 5 in
        let g = G.Gen.near_two_cliques half in
        let priorities = Array.init (2 * half) (fun v -> if v >= half then 100 + v else v) in
        let run = Engine.run_packed protocol g (Adversary.by_priority priorities) in
        check "answers no" true (run.Engine.outcome = Engine.Success (Answer.Bool false))) ]

let bfs_layer_tests =
  let bfs = Wb_protocols.Bfs_sync.protocol in
  [ qtest
      (QCheck.Test.make ~name:"SYNC BFS valid on connected gnp" ~count:100
         QCheck.(pair seeded (int_range 2 40))
         (fun (seed, n) ->
           let g = G.Gen.random_connected (Prng.create seed) n 0.1 in
           run_valid bfs Problems.Bfs g (seed + 1)));
    qtest
      (QCheck.Test.make ~name:"SYNC BFS valid on disconnected gnp" ~count:100
         QCheck.(pair seeded (int_range 2 30))
         (fun (seed, n) ->
           let g = G.Gen.random_gnp (Prng.create seed) n 0.08 in
           run_valid bfs Problems.Bfs g (seed + 1)));
    Alcotest.test_case "exhaustive schedules: odd cycles, cliques, paths, isolated" `Quick
      (fun () ->
        List.iter
          (fun g -> check "all schedules" true (explore_valid bfs Problems.Bfs g))
          [ G.Gen.cycle 5;
            G.Gen.complete 4;
            G.Gen.path 6;
            G.Graph.empty 4;
            G.Graph.of_edges 6 [ (0, 1); (0, 2); (1, 2); (1, 3); (3, 4) ] ]);
    Alcotest.test_case "adversary stress on petersen and grid" `Quick (fun () ->
        check "petersen" true (stress_adversaries bfs Problems.Bfs (G.Gen.petersen ()));
        check "grid" true (stress_adversaries bfs Problems.Bfs (G.Gen.grid 4 5)));
    Alcotest.test_case "nodes write in layer order" `Quick (fun () ->
        let g = G.Gen.grid 3 4 in
        let dist = G.Algo.bfs_dist g 0 in
        let run = Engine.run_packed bfs g (Adversary.random (Prng.create 3)) in
        check "success" true (Engine.succeeded run);
        let last_layer = ref (-1) in
        Array.iter
          (fun author ->
            check "monotone layers" true (dist.(author) >= !last_layer);
            last_layer := dist.(author))
          run.Engine.writes) ]

let eob_bfs_tests =
  let eob = Wb_protocols.Eob_bfs_async.protocol in
  [ qtest
      (QCheck.Test.make ~name:"valid on random EOB graphs" ~count:100
         QCheck.(pair seeded (int_range 2 40))
         (fun (seed, n) ->
           let g = G.Gen.random_eob (Prng.create seed) n 0.3 in
           run_valid eob Problems.Eob_bfs g (seed + 1)));
    qtest
      (QCheck.Test.make ~name:"rejects non-EOB graphs without deadlock" ~count:100 seeded
         (fun seed ->
           let rng = Prng.create seed in
           let g = G.Gen.random_connected rng 12 0.2 in
           if G.Algo.is_even_odd_bipartite g then true
           else run_valid eob Problems.Eob_bfs g (seed + 1)));
    Alcotest.test_case "exhaustive schedules: EOB path and non-EOB triangle" `Quick (fun () ->
        check "path" true (explore_valid eob Problems.Eob_bfs (G.Gen.path 5));
        check "triangle" true (explore_valid eob Problems.Eob_bfs (G.Gen.cycle 3));
        check "two components" true
          (explore_valid eob Problems.Eob_bfs (G.Graph.of_edges 5 [ (0, 1); (2, 3) ])));
    Alcotest.test_case "adversary stress on multi-component EOB" `Quick (fun () ->
        let g = G.Graph.of_edges 9 [ (0, 1); (1, 2); (4, 5); (7, 8) ] in
        check "stress" true (stress_adversaries eob Problems.Eob_bfs g)) ]

let bipartite_async_tests =
  let bip = Wb_protocols.Bfs_bipartite_async.protocol in
  [ qtest
      (QCheck.Test.make ~name:"valid BFS forests on random bipartite graphs" ~count:100
         QCheck.(pair seeded (int_range 1 15))
         (fun (seed, half) ->
           let g = G.Gen.random_bipartite (Prng.create seed) half half 0.3 in
           run_valid bip Problems.Bfs g (seed + 1)));
    Alcotest.test_case "deadlocks on the odd-cycle-plus-tail witness" `Quick (fun () ->
        (* triangle 0-1-2, 1-3, 3-4: node 4 waits on a layer-completion
           certificate that within-layer edges make unreachable — the
           corrupted configurations of Section 6. *)
        let g = G.Graph.of_edges 5 [ (0, 1); (0, 2); (1, 2); (1, 3); (3, 4) ] in
        let ok, _ =
          Exhaustive.every_schedule bip g (fun r -> r.Engine.outcome = Engine.Deadlock)
        in
        check "every schedule deadlocks" true ok);
    Alcotest.test_case "exhaustive schedules on even cycles" `Quick (fun () ->
        check "C6" true (explore_valid bip Problems.Bfs (G.Gen.cycle 6))) ]

let connectivity_tests =
  let conn = Wb_protocols.Connectivity_sync.protocol in
  [ qtest
      (QCheck.Test.make ~name:"agrees with reference on gnp" ~count:150
         QCheck.(pair seeded (int_range 1 25))
         (fun (seed, n) ->
           let g = G.Gen.random_gnp (Prng.create seed) n 0.1 in
           run_valid conn Problems.Connectivity g (seed + 1)));
    Alcotest.test_case "exhaustive schedules" `Quick (fun () ->
        check "connected" true (explore_valid conn Problems.Connectivity (G.Gen.cycle 4));
        check "disconnected" true
          (explore_valid conn Problems.Connectivity (G.Graph.of_edges 4 [ (0, 1); (2, 3) ]))) ]

let subgraph_tests =
  [ qtest
      (QCheck.Test.make ~name:"extracts the prefix subgraph" ~count:100
         QCheck.(pair seeded (int_range 1 30))
         (fun (seed, n) ->
           let cutoff m = m / 2 in
           let g = G.Gen.random_gnp (Prng.create seed) n 0.4 in
           run_valid
             (Wb_protocols.Subgraph_simasync.protocol ~cutoff)
             (Problems.Subgraph (cutoff n))
             g (seed + 1)));
    Alcotest.test_case "message bound scales with f, not n" `Quick (fun () ->
        let cutoff _ = 8 in
        let p = Wb_protocols.Subgraph_simasync.protocol ~cutoff in
        let g = G.Gen.random_gnp (Prng.create 3) 200 0.02 in
        let run = Engine.run_packed p g Adversary.min_id in
        check "success" true (Engine.succeeded run);
        check "tiny messages" true (run.Engine.stats.max_message_bits <= 8 + 20)) ]

let randomized_tests =
  [ qtest
      (QCheck.Test.make ~name:"randomized two-cliques: correct w.h.p. both ways" ~count:60
         QCheck.(pair seeded (int_range 2 10))
         (fun (seed, half) ->
           let p = Wb_protocols.Two_cliques_randomized.protocol ~seed ~bits:24 in
           let yes = G.Gen.two_cliques_shuffled (Prng.create seed) half in
           let no = G.Gen.near_two_cliques half in
           run_valid p Problems.Two_cliques yes (seed + 1)
           && run_valid p Problems.Two_cliques no (seed + 2)));
    Alcotest.test_case "tiny fingerprints do collide eventually" `Quick (fun () ->
        (* With 1-bit fingerprints some seed must merge the two cliques'
           classes: demonstrates the error mechanism is real. *)
        let g = G.Gen.two_cliques 4 in
        let failures = ref 0 in
        for seed = 0 to 63 do
          let p = Wb_protocols.Two_cliques_randomized.protocol ~seed ~bits:1 in
          let run = Engine.run_packed p g Adversary.min_id in
          if run.Engine.outcome <> Engine.Success (Answer.Bool true) then incr failures
        done;
        check "some seed fails" true (!failures > 0)) ]

let triangle_degenerate_tests =
  [ qtest
      (QCheck.Test.make ~name:"triangle via BUILD on the promise class" ~count:60
         QCheck.(pair seeded (int_range 1 3))
         (fun (seed, k) ->
           let g = G.Gen.random_kdegenerate (Prng.create seed) 18 ~k in
           let p = Wb_protocols.Triangle_degenerate.protocol ~k in
           let run = Engine.run_packed p g (Adversary.random (Prng.create (seed + 1))) in
           run.Engine.outcome = Engine.Success (Answer.Bool (G.Algo.has_triangle g))));
    Alcotest.test_case "rejects off-promise inputs" `Quick (fun () ->
        let p = Wb_protocols.Triangle_degenerate.protocol ~k:2 in
        let run = Engine.run_packed p (G.Gen.complete 5) Adversary.min_id in
        check "reject" true (run.Engine.outcome = Engine.Success Answer.Reject)) ]

let registry_tests =
  [ Alcotest.test_case "every entry runs green on a promise-respecting instance" `Quick (fun () ->
        let rng = Prng.create 2024 in
        List.iter
          (fun (e : Wb_protocols.Registry.entry) ->
            let g =
              match e.promise with
              | Wb_protocols.Registry.Forest -> G.Gen.random_tree rng 16
              | Wb_protocols.Registry.Degeneracy_at_most k -> G.Gen.random_kdegenerate rng 16 ~k
              | Wb_protocols.Registry.Split_degeneracy_at_most k ->
                G.Gen.random_split_degenerate rng 16 ~k
              | Wb_protocols.Registry.Even_odd_bipartite -> G.Gen.random_eob rng 16 0.3
              | Wb_protocols.Registry.Bipartite -> G.Gen.random_bipartite rng 8 8 0.3
              | Wb_protocols.Registry.Regular_two_half -> G.Gen.two_cliques 8
              | Wb_protocols.Registry.Any_graph -> G.Gen.random_gnp rng 16 0.25
            in
            check (e.key ^ " promise sat") true (Wb_protocols.Registry.satisfies_promise e.promise g);
            let run = Engine.run_packed e.protocol g (Adversary.random rng) in
            match run.Engine.outcome with
            | Engine.Success a ->
              check (e.key ^ " valid") true (Problems.valid_answer (e.problem 16) g a)
            | _ -> Alcotest.failf "%s did not succeed" e.key)
          (Wb_protocols.Registry.all ()));
    Alcotest.test_case "find works" `Quick (fun () ->
        check "bfs" true (Wb_protocols.Registry.find "bfs" <> None);
        check "nope" true (Wb_protocols.Registry.find "no-such" = None)) ]

let message_bound_tests =
  [ Alcotest.test_case "all registry protocols stay within their declared bound" `Quick (fun () ->
        (* The engine turns violations into failures, so success here means
           the declared f(n) really covers the worst message composed. *)
        let rng = Prng.create 7 in
        List.iter
          (fun (e : Wb_protocols.Registry.entry) ->
            let g =
              match e.promise with
              | Wb_protocols.Registry.Forest -> G.Gen.random_tree rng 128
              | Wb_protocols.Registry.Degeneracy_at_most k -> G.Gen.random_ktree rng 128 ~k
              | Wb_protocols.Registry.Split_degeneracy_at_most k ->
                G.Gen.random_split_degenerate rng 128 ~k
              | Wb_protocols.Registry.Even_odd_bipartite -> G.Gen.random_eob rng 128 0.1
              | Wb_protocols.Registry.Bipartite -> G.Gen.random_bipartite rng 64 64 0.1
              | Wb_protocols.Registry.Regular_two_half -> G.Gen.two_cliques 64
              | Wb_protocols.Registry.Any_graph -> G.Gen.random_connected rng 128 0.05
            in
            let run = Engine.run_packed e.protocol g (Adversary.random rng) in
            check (e.key ^ " no size violation") true (Engine.succeeded run))
          (Wb_protocols.Registry.all ())) ]

let suites =
  [ ("protocols.decode", decode_tests);
    ("protocols.build-forest", build_forest_tests);
    ("protocols.build-degenerate", build_degenerate_tests);
    ("protocols.mis", mis_tests);
    ("protocols.two-cliques", two_cliques_tests);
    ("protocols.bfs-sync", bfs_layer_tests);
    ("protocols.eob-bfs", eob_bfs_tests);
    ("protocols.bfs-bipartite", bipartite_async_tests);
    ("protocols.connectivity", connectivity_tests);
    ("protocols.subgraph", subgraph_tests);
    ("protocols.randomized", randomized_tests);
    ("protocols.triangle-degenerate", triangle_degenerate_tests);
    ("protocols.registry", registry_tests);
    ("protocols.message-bounds", message_bound_tests) ]
