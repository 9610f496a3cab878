(* A guided walk through the computing-power lattice (Theorem 4):

       SIMASYNC  <  SIMSYNC  <  ASYNC  <=  SYNC

   For each strict step this program runs the positive protocol on one side
   and executes the impossibility machinery on the other — the Figure 1 / 2
   gadgets and the Lemma 3 counting floors, with exact big-integer
   arithmetic.

     dune exec examples/separation.exe *)

module P = Wb_model
module G = Wb_graph
module R = Wb_reductions

let heading s = Printf.printf "\n=== %s ===\n" s

let () =
  let rng = Wb_support.Prng.create 7 in

  heading "Step 1: SIMASYNC < SIMSYNC, witnessed by rooted MIS";
  let g = G.Gen.random_gnp rng 18 0.25 in
  let run = P.Engine.run_packed (Wb_protocols.Mis_simsync.protocol ~root:0) g (P.Adversary.random rng) in
  (match run.P.Engine.outcome with
  | P.Engine.Success (P.Answer.Node_set s) ->
    Printf.printf "SIMSYNC greedy finds MIS %s (max message %d bits)\n"
      (String.concat "," (List.map (fun v -> string_of_int (v + 1)) s))
      run.P.Engine.stats.max_message_bits
  | _ -> print_endline "unexpected failure");
  Printf.printf "Theorem 6 gadget check on this graph: %b\n" (R.Mis_reduction.gadget_faithful g);
  Printf.printf
    "so a SIMASYNC MIS protocol with f bits/node yields BUILD with 2f + O(log n) bits/node;\n\
     but BUILD on all graphs needs >= %d bits/node at n = 4096 (exact count 2^%d graphs):\n\
     no o(n) SIMASYNC protocol can exist.\n"
    (R.Counting.min_message_bits R.Counting.all_graphs 4096)
    (Wb_bignum.Nat.log2_floor (R.Counting.all_graphs.R.Counting.count 4096));

  heading "Step 2: SIMSYNC < ASYNC, witnessed by EOB-BFS";
  let eob = G.Gen.random_eob rng 16 0.3 in
  let run = P.Engine.run_packed Wb_protocols.Eob_bfs_async.protocol eob (P.Adversary.random rng) in
  (match run.P.Engine.outcome with
  | P.Engine.Success (P.Answer.Forest parent) ->
    Printf.printf "ASYNC layer protocol outputs a BFS forest (valid: %b)\n"
      (G.Algo.is_valid_bfs_forest eob parent)
  | _ -> print_endline "unexpected failure");
  let faithful = ref true in
  let t = ref 1 in
  while !t < 16 do
    if not (R.Eob_bfs_reduction.gadget_faithful eob ~target:!t) then faithful := false;
    t := !t + 2
  done;
  Printf.printf "Figure 2 gadgets on this instance: all faithful = %b\n" !faithful;
  Printf.printf "EOB graphs at n = 4096 count 2^%d, floor %d bits/node: SIMSYNC is out.\n"
    (Wb_bignum.Nat.log2_floor (R.Counting.even_odd_bipartite.R.Counting.count 4096))
    (R.Counting.min_message_bits R.Counting.even_odd_bipartite 4096);

  heading "Step 3: ASYNC <= SYNC; strictness open (Open Problem 3)";
  let any = G.Gen.random_connected rng 16 0.25 in
  let run = P.Engine.run_packed Wb_protocols.Bfs_sync.protocol any (P.Adversary.random rng) in
  Printf.printf "SYNC solves BFS on an arbitrary graph: %b\n" (P.Engine.succeeded run);
  let odd = G.Graph.of_edges 5 [ (0, 1); (0, 2); (1, 2); (1, 3); (3, 4) ] in
  let all_deadlock =
    match
      P.Engine.verify_packed Wb_protocols.Bfs_bipartite_async.protocol odd (fun r ->
          P.Engine.outcome_equal r.P.Engine.outcome P.Engine.Deadlock)
    with
    | Ok v -> v.P.Engine.valid
    | Error (`Limit _) -> false
  in
  Printf.printf "the ASYNC certificate protocol deadlocks on a non-bipartite witness: %b\n"
    all_deadlock;

  heading "Orthogonal axis: message size (Theorem 9)";
  List.iter
    (fun (r : R.Subgraph_bound.row) ->
      Printf.printf "n=%-5d f=%-4d SIMASYNC does it with %d bits; every model needs >= %d\n" r.n
        r.f r.sim_async_bits r.lower_bound_bits)
    (R.Subgraph_bound.evaluate ~cutoff:(fun n -> n / 2) ~ns:[ 64; 256 ])
