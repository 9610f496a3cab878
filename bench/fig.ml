(* Regenerates Figures 1 and 2: the reduction gadgets, checked property by
   property, plus an end-to-end run of each protocol transformer. *)

module P = Wb_model
module G = Wb_graph
module R = Wb_reductions
module Prng = Wb_support.Prng

let fig1 () =
  Harness.section "Figure 1 — gadget G'_{s,t}: triangle <=> edge";
  let rng = Prng.create 41 in
  let sizes = [ (4, 4); (6, 6); (8, 8); (16, 16) ] in
  List.iter
    (fun (a, b) ->
      let g = G.Gen.random_bipartite rng a b 0.4 in
      let pairs = (a + b) * (a + b - 1) / 2 in
      let ok = R.Triangle_reduction.gadget_faithful g in
      Harness.check ok "bipartite %2d+%2d: %4d gadgets built and checked   " a b pairs)
    sizes;
  Harness.subsection "exhaustive: every triangle-free graph on 6 nodes";
  let all = List.filter (fun g -> not (G.Algo.has_triangle g)) (G.Gen.all_labelled_graphs 6) in
  let ok = List.for_all R.Triangle_reduction.gadget_faithful all in
  Harness.check ok "%d triangle-free graphs, all pairs                    " (List.length all);
  Harness.subsection "Theorem 3 transformer (oracle-driven) end to end";
  let protocol = R.Triangle_reduction.transform R.Oracles.triangle_simasync in
  let g = G.Gen.random_bipartite rng 5 5 0.5 in
  let run = P.Engine.run_packed protocol g (P.Adversary.random rng) in
  let ok = P.Engine.outcome_equal run.P.Engine.outcome (P.Engine.Success (P.Answer.Graph g)) in
  Harness.check ok "BUILD-from-TRIANGLE reconstructs bipartite n=10, %d bits/msg  "
    run.P.Engine.stats.max_message_bits

let fig2 () =
  Harness.section "Figure 2 — gadget G_i: BFS layer 3 of v_1 = N(v_i)";
  let rng = Prng.create 43 in
  List.iter
    (fun s ->
      let g = G.Gen.random_eob rng s 0.35 in
      let ok = ref true and count = ref 0 in
      let t = ref 1 in
      while !t < s do
        incr count;
        if not (R.Eob_bfs_reduction.gadget_faithful g ~target:!t) then ok := false;
        t := !t + 2
      done;
      Harness.check !ok "EOB input s=%2d: %2d gadgets (one per odd id), layers checked  " s !count)
    [ 4; 8; 12; 20; 32 ];
  Harness.subsection "gadgets remain even-odd-bipartite";
  let g = G.Gen.random_eob rng 12 0.4 in
  let ok =
    List.for_all
      (fun t -> G.Algo.is_even_odd_bipartite (R.Eob_bfs_reduction.gadget g ~target:t))
      [ 1; 3; 5; 7; 9; 11 ]
  in
  Harness.check ok "all 6 gadgets EOB                                            ";
  Harness.subsection "Theorem 8 transformer (oracle-driven) end to end";
  let protocol = R.Eob_bfs_reduction.transform R.Oracles.eob_bfs_simsync in
  let g = G.Gen.random_eob rng 10 0.4 in
  let run = P.Engine.run_packed protocol g (P.Adversary.random rng) in
  let ok = P.Engine.outcome_equal run.P.Engine.outcome (P.Engine.Success (P.Answer.Graph g)) in
  Harness.check ok "BUILD-from-EOB-BFS reconstructs EOB n=10                     "

let run ?(seed = 2012) ?(fast = false) ?out () =
  fig1 ();
  fig2 ();
  Report.write ?out (Report.create ~bench:"fig" ~seed ~fast ())
