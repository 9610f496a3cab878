module P = Wb_model

type promise =
  | Any_graph
  | Degeneracy_at_most of int
  | Split_degeneracy_at_most of int
  | Forest
  | Even_odd_bipartite
  | Bipartite
  | Regular_two_half

type entry = {
  key : string;
  protocol : P.Protocol.t;
  problem : int -> P.Problems.t;
  promise : promise;
  randomized : bool;
}

let plain key protocol problem promise =
  { key; protocol; problem = (fun _ -> problem); promise; randomized = false }

let all () =
  [ plain "build-forest" Build_forest.protocol P.Problems.Build Forest;
    plain "build-2-degenerate" (Build_degenerate.protocol ~k:2 ~decoder:`Backtracking) P.Problems.Build
      (Degeneracy_at_most 2);
    plain "build-3-degenerate" (Build_degenerate.protocol ~k:3 ~decoder:`Backtracking) P.Problems.Build
      (Degeneracy_at_most 3);
    plain "build-5-degenerate" (Build_degenerate.protocol ~k:5 ~decoder:`Backtracking) P.Problems.Build
      (Degeneracy_at_most 5);
    plain "build-naive" Build_naive.protocol P.Problems.Build Any_graph;
    plain "mis" (Mis_simsync.protocol ~root:0) (P.Problems.Rooted_mis 0) Any_graph;
    plain "two-cliques" Two_cliques_simsync.protocol P.Problems.Two_cliques Regular_two_half;
    { key = "two-cliques-randomized";
      protocol = Two_cliques_randomized.protocol ~seed:42 ~bits:24;
      problem = (fun _ -> P.Problems.Two_cliques);
      promise = Regular_two_half;
      randomized = true };
    plain "eob-bfs" Eob_bfs_async.protocol P.Problems.Eob_bfs Any_graph;
    plain "bfs-bipartite" Bfs_bipartite_async.protocol P.Problems.Bfs Bipartite;
    plain "bfs" Bfs_sync.protocol P.Problems.Bfs Any_graph;
    plain "connectivity" Connectivity_sync.protocol P.Problems.Connectivity Any_graph;
    (let cutoff n = int_of_float (sqrt (float_of_int n)) in
     { key = "subgraph-sqrt";
       protocol = Subgraph_simasync.protocol ~cutoff;
       problem = (fun n -> P.Problems.Subgraph (cutoff n));
       promise = Any_graph;
       randomized = false });
    plain "triangle-3-degenerate" (Triangle_degenerate.protocol ~k:3) P.Problems.Triangle
      (Degeneracy_at_most 3);
    plain "square-3-degenerate" (Via_build.protocol ~k:3 P.Problems.Square) P.Problems.Square
      (Degeneracy_at_most 3);
    plain "diameter3-3-degenerate"
      (Via_build.protocol ~k:3 (P.Problems.Diameter_at_most 3))
      (P.Problems.Diameter_at_most 3) (Degeneracy_at_most 3);
    plain "build-split-2-degenerate" (Build_split_degenerate.protocol ~k:2) P.Problems.Build
      (Split_degeneracy_at_most 2);
    plain "spanning-forest" Spanning_forest_sync.protocol P.Problems.Spanning_forest Any_graph;
    { key = "connectivity-sketch";
      protocol = Sketch_connectivity.connectivity ~seed:271828;
      problem = (fun _ -> P.Problems.Connectivity);
      promise = Any_graph;
      randomized = true };
    { key = "spanning-forest-sketch";
      protocol = Sketch_connectivity.spanning_forest ~seed:271828;
      problem = (fun _ -> P.Problems.Spanning_forest);
      promise = Any_graph;
      randomized = true } ]

let find key = List.find_opt (fun e -> e.key = key) (all ())

let satisfies_promise promise g =
  match promise with
  | Any_graph -> true
  | Degeneracy_at_most k -> fst (Wb_graph.Algo.degeneracy g) <= k
  | Split_degeneracy_at_most k -> Wb_graph.Algo.split_degeneracy g <= k
  | Forest -> fst (Wb_graph.Algo.degeneracy g) <= 1
  | Even_odd_bipartite -> Wb_graph.Algo.is_even_odd_bipartite g
  | Bipartite -> Wb_graph.Algo.bipartition g <> None
  | Regular_two_half ->
    let n = Wb_graph.Graph.n g in
    n > 0 && n mod 2 = 0 && Wb_graph.Graph.is_regular g = Some ((n / 2) - 1)

let least_n e =
  match e.promise with
  | Degeneracy_at_most k -> k + 1 (* the smallest k-tree *)
  | Regular_two_half -> 2
  | Forest -> 1
  | Any_graph | Split_degeneracy_at_most _ | Even_odd_bipartite | Bipartite -> 0

let sweep_graph e ~seed ~n =
  let module Gen = Wb_graph.Gen in
  let rng () = Wb_support.Prng.create seed in
  match (e.problem n, e.promise) with
  (* EOB-BFS only answers on even-odd bipartite inputs, promise or not. *)
  | P.Problems.Eob_bfs, _ -> Gen.random_eob (rng ()) n 0.3
  | _, Forest -> Gen.random_tree (rng ()) n
  | _, Degeneracy_at_most k -> Gen.random_ktree (rng ()) n ~k
  | _, Split_degeneracy_at_most k -> Gen.random_split_degenerate (rng ()) n ~k
  | _, Regular_two_half -> Gen.two_cliques_shuffled (rng ()) (n / 2)
  | _, Bipartite -> Gen.random_bipartite (rng ()) (n / 2) (n - (n / 2)) 0.3
  | _, Even_odd_bipartite -> Gen.random_eob (rng ()) n 0.3
  | _, Any_graph -> Gen.random_connected (rng ()) n (10.0 /. float_of_int (max 1 n))
