(* Regenerates the Lemma 1 message-size claim: the k-degenerate BUILD
   protocol writes O(k^2 log n) bits per node.  Measured max message size
   across n and k, against the counting floor of Lemma 3 (trees) showing
   the log n factor is necessary. *)

module P = Wb_model
module G = Wb_graph
module R = Wb_reductions
module J = Wb_obs.Json
module Prng = Wb_support.Prng

let measure rep ~seed ~n ~k =
  let rng = Prng.create (seed + n + k) in
  let g = if k = 1 then G.Gen.random_tree rng n else G.Gen.random_ktree rng n ~k in
  let protocol = Wb_protocols.Build_degenerate.protocol ~k ~decoder:`Backtracking in
  let run = P.Engine.run_packed protocol g (P.Adversary.random rng) in
  Report.add_row rep
    ~name:(Printf.sprintf "build-degenerate n=%d k=%d" n k)
    (("n", J.Int n) :: ("k", J.Int k) :: Harness.run_fields run);
  match run.P.Engine.outcome with
  | P.Engine.Success (P.Answer.Graph h) when G.Graph.equal g h ->
    run.P.Engine.stats.max_message_bits
  | _ -> -1

let run ?(seed = 2012) ?(fast = false) ?out () =
  let ns = if fast then [ 16; 64; 256 ] else [ 16; 32; 64; 128; 256; 512; 1024 ] in
  let split_ns = if fast then [ 16; 64 ] else [ 16; 64; 256 ] in
  let naive_ns = if fast then [ 64; 256 ] else [ 64; 256; 1024 ] in
  let rep =
    Report.create ~bench:"msgsize" ~seed ~fast
      ~params:[ ("ns", J.List (List.map (fun n -> J.Int n) ns)) ]
      ()
  in
  print_endline "Lemma 1 — BUILD message size is O(k^2 log n) bits";
  Printf.printf "%-8s" "n";
  List.iter (fun k -> Printf.printf "k=%-8d" k) [ 1; 2; 3; 4; 5 ];
  Printf.printf "%-14s %s\n" "k2*log2(n)@5" "Lemma3 floor (trees)";
  List.iter
    (fun n ->
      Printf.printf "%-8d" n;
      List.iter (fun k -> Printf.printf "%-10d" (measure rep ~seed ~n ~k)) [ 1; 2; 3; 4; 5 ];
      let log2n = Wb_support.Bitbuf.width_of n in
      Printf.printf "%-14d %d\n" (25 * log2n)
        (R.Counting.min_message_bits R.Counting.labelled_trees n))
    ns;
  Printf.printf
    "\n(measured bits grow ~ k^2 log n and stay under the k^2 log2 n line; the Lemma 3 floor\n\
     for trees shows Omega(log n) is unavoidable even at k = 1.  -1 would flag a failed run.)\n";
  Printf.printf "\n-- extended class: degree <= k OR >= remaining-k-1 (Section 3, closing remark) --\n";
  Printf.printf "%-8s" "n";
  List.iter (fun k -> Printf.printf "k=%-8d" k) [ 1; 2; 3 ];
  Printf.printf "(about twice the plain-degeneracy size: both sum families)\n";
  List.iter
    (fun n ->
      Printf.printf "%-8d" n;
      List.iter
        (fun k ->
          let rng = Prng.create (seed + (3 * (n + k))) in
          let g = G.Gen.random_split_degenerate rng n ~k in
          let protocol = Wb_protocols.Build_split_degenerate.protocol ~k in
          let run = P.Engine.run_packed protocol g (P.Adversary.random rng) in
          Report.add_row rep
            ~name:(Printf.sprintf "build-split-degenerate n=%d k=%d" n k)
            (("n", J.Int n) :: ("k", J.Int k) :: Harness.run_fields run);
          let bits =
            match run.P.Engine.outcome with
            | P.Engine.Success (P.Answer.Graph h) when G.Graph.equal g h ->
              run.P.Engine.stats.max_message_bits
            | _ -> -1
          in
          Printf.printf "%-10d" bits)
        [ 1; 2; 3 ];
      print_newline ())
    split_ns;
  Printf.printf "\n-- naive baseline (whole rows, Theta(n) bits) --\n";
  List.iter
    (fun n ->
      let g = G.Gen.random_tree (Prng.create (seed + n)) n in
      let run = P.Engine.run_packed Wb_protocols.Build_naive.protocol g P.Adversary.min_id in
      Report.add_row rep
        ~name:(Printf.sprintf "build-naive n=%d" n)
        (("n", J.Int n) :: Harness.run_fields run);
      Printf.printf "n=%-6d naive %5d bits vs forest-protocol %3d bits\n" n
        run.P.Engine.stats.max_message_bits
        (measure rep ~seed ~n ~k:1))
    naive_ns;
  Report.write ?out rep
