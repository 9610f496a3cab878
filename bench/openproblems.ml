(* Regenerates the experiments around the paper's open problems:
   - Open Problem 2: CONNECTIVITY is solvable in SYNC (constructive side);
   - Open Problem 3: the ASYNC bipartite protocol really deadlocks on
     non-bipartite inputs (the obstruction behind the conjecture);
   - Open Problem 4: a randomized SIMASYNC protocol for 2-CLIQUES, with the
     measured error rate as a function of fingerprint width. *)

module P = Wb_model
module G = Wb_graph
module Prng = Wb_support.Prng

let connectivity ~seed =
  Harness.subsection "Open Problem 2 — CONNECTIVITY in SYNC[log n] (constructive side)";
  let rng = Prng.create 55 in
  let graphs =
    [ G.Gen.random_connected rng 48 0.07;
      G.Gen.random_gnp rng 48 0.02;
      G.Graph.of_edges 5 [ (0, 1); (2, 3) ];
      G.Gen.two_cliques 12 ]
  in
  let ok, runs, bits =
    Harness.verify ~seed Wb_protocols.Connectivity_sync.protocol
      (fun _ -> P.Problems.Connectivity)
      graphs ~exhaustive_below:6
  in
  Harness.check ok "BFS-root counting protocol: %d runs, <=%d bits        " runs bits

let deadlock () =
  Harness.subsection "Open Problem 3 — why ASYNC seems too weak for BFS";
  let odd = G.Graph.of_edges 5 [ (0, 1); (0, 2); (1, 2); (1, 3); (3, 4) ] in
  let protocol = P.Protocol.opaque Wb_protocols.Bfs_bipartite_async.protocol in
  let every_schedule g check =
    match P.Engine.verify_packed protocol g check with
    | Ok v -> (v.P.Engine.valid, v.P.Engine.finals)
    | Error (`Limit _) -> (false, 0)
  in
  let ok, schedules =
    every_schedule odd (fun r -> P.Engine.outcome_equal r.P.Engine.outcome P.Engine.Deadlock)
  in
  Harness.check ok "ASYNC layer protocol on triangle+tail: deadlocks under all %d schedules  "
    schedules;
  let even = G.Gen.cycle 6 in
  let ok2, _ =
    every_schedule even (fun r ->
        match r.P.Engine.outcome with
        | P.Engine.Success a -> P.Problems.valid_answer P.Problems.Bfs even a
        | _ -> false)
  in
  Harness.check ok2 "same protocol on C6 (bipartite): succeeds under all schedules       "

let randomized () =
  Harness.subsection "Open Problem 4 — randomized 2-CLIQUES in SIMASYNC";
  Printf.printf "%-8s %-18s %-18s\n" "bits" "err(yes), 400 runs" "err(no), 400 runs";
  List.iter
    (fun bits ->
      let errors_yes = ref 0 and errors_no = ref 0 in
      for seed = 1 to 400 do
        let p = Wb_protocols.Two_cliques_randomized.protocol ~seed ~bits in
        let yes = G.Gen.two_cliques_shuffled (Prng.create seed) 8 in
        (match (P.Engine.run_packed p yes P.Adversary.min_id).P.Engine.outcome with
        | P.Engine.Success (P.Answer.Bool true) -> ()
        | _ -> incr errors_yes);
        let no = G.Gen.near_two_cliques 8 in
        match (P.Engine.run_packed p no P.Adversary.min_id).P.Engine.outcome with
        | P.Engine.Success (P.Answer.Bool false) -> ()
        | _ -> incr errors_no
      done;
      Printf.printf "%-8d %-18s %-18s\n" bits
        (Printf.sprintf "%.3f" (float_of_int !errors_yes /. 400.0))
        (Printf.sprintf "%.3f" (float_of_int !errors_no /. 400.0)))
    [ 1; 2; 4; 8; 16 ];
  Printf.printf
    "(error decays ~2^-bits as fingerprints stop colliding; at log n-size fingerprints the\n\
     protocol is correct w.h.p. — the randomized protocol the paper alludes to.)\n"

let sketches ~fast =
  Harness.subsection "Open Problems 2+4 — randomized SIMASYNC connectivity by linear sketching";
  Printf.printf "%-8s %-10s %-12s %-16s %s\n" "n" "bits/msg" "naive bits" "err (100 graphs)" "spanning forest ok";
  List.iter
    (fun n ->
      let errors = ref 0 and forest_ok = ref 0 and bits = ref 0 in
      for seed = 1 to 100 do
        let rng = Prng.create (seed * 13) in
        let g =
          if seed mod 2 = 0 then G.Gen.random_connected rng n 0.08 else G.Gen.random_gnp rng n 0.04
        in
        let p = Wb_protocols.Sketch_connectivity.connectivity ~seed:(seed * 7) in
        let run = P.Engine.run_packed p g P.Adversary.min_id in
        bits := max !bits run.P.Engine.stats.max_message_bits;
        (match run.P.Engine.outcome with
        | P.Engine.Success (P.Answer.Bool b) when b = G.Algo.is_connected g -> ()
        | _ -> incr errors);
        let pf = Wb_protocols.Sketch_connectivity.spanning_forest ~seed:(seed * 7) in
        let run = P.Engine.run_packed pf g P.Adversary.min_id in
        match run.P.Engine.outcome with
        | P.Engine.Success a when P.Problems.valid_answer P.Problems.Spanning_forest g a ->
          incr forest_ok
        | _ -> ()
      done;
      Printf.printf "%-8d %-10d %-12d %-16s %d/100\n" n !bits n
        (Printf.sprintf "%d/100" !errors)
        !forest_ok)
    (if fast then [ 16; 32 ] else [ 16; 32; 64; 128 ]);
  Printf.printf
    "(AGM-style l0-sampling sketches with public coins: one SIMASYNC message per node, the\n\
     referee runs Boruvka on summed sketches.  Messages are Theta(log^3 n) bits - the growth\n\
     column is what matters; the constant crosses the naive n-bit row only at large n.\n\
     This post-paper technique answers the randomized side of Open Problems 2 and 4.)\n"

let run ?(seed = 2012) ?(fast = false) ?out () =
  Harness.section "Open problems — the constructive sides";
  connectivity ~seed;
  deadlock ();
  randomized ();
  sketches ~fast;
  Report.write ?out (Report.create ~bench:"open" ~seed ~fast ())
