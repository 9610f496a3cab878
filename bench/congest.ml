(* Extension experiment: the paper's motivation quantified.  Total
   communication (bits) of whiteboard SYNC BFS (one short message per node,
   ever) vs the classical CONGEST flooding BFS (one message per edge), and
   whiteboard MIS vs Luby. *)

module P = Wb_model
module G = Wb_graph
module J = Wb_obs.Json
module Prng = Wb_support.Prng

let bfs_row rep g label =
  let congest = (Wb_congest.Bfs_flood.run g).Wb_congest.Bfs_flood.stats in
  let run = P.Engine.run_packed Wb_protocols.Bfs_sync.protocol g P.Adversary.min_id in
  assert (P.Engine.succeeded run);
  let wb = run.P.Engine.stats in
  Report.add_row rep ~name:label
    (("n", J.Int (G.Graph.n g))
    :: ("m", J.Int (G.Graph.num_edges g))
    :: ("congest_bits", J.Int congest.Wb_congest.Congest.total_bits)
    :: Harness.run_fields run);
  Printf.printf "%-22s %-8d %-8d %-14d %-14d %5.1fx\n" label (G.Graph.n g) (G.Graph.num_edges g)
    wb.P.Engine.total_bits congest.Wb_congest.Congest.total_bits
    (float_of_int congest.Wb_congest.Congest.total_bits
    /. float_of_int (max 1 wb.P.Engine.total_bits))

let mis_row rep ~seed g label =
  let rng2 = Prng.create (seed + 5) in
  let run =
    P.Engine.run_packed (Wb_protocols.Mis_simsync.protocol ~root:0) g (P.Adversary.random rng2)
  in
  assert (P.Engine.succeeded run);
  let luby = Wb_congest.Luby_mis.run ~seed:11 g in
  Report.add_row rep ~name:("mis " ^ label)
    (("n", J.Int (G.Graph.n g))
    :: ("luby_bits", J.Int luby.Wb_congest.Luby_mis.stats.Wb_congest.Congest.total_bits)
    :: Harness.run_fields run);
  Printf.printf "%-22s %-8d %-14d %-7d (%d)      %5.1fx\n" label (G.Graph.n g)
    run.P.Engine.stats.total_bits luby.Wb_congest.Luby_mis.stats.Wb_congest.Congest.total_bits
    luby.Wb_congest.Luby_mis.stats.Wb_congest.Congest.rounds
    (float_of_int luby.Wb_congest.Luby_mis.stats.Wb_congest.Congest.total_bits
    /. float_of_int (max 1 run.P.Engine.stats.total_bits))

let run ?(seed = 77) ?(fast = false) ?out () =
  let rep = Report.create ~bench:"congest" ~seed ~fast () in
  print_endline "Extension — whiteboard vs CONGEST: total communication for BFS";
  Printf.printf "%-22s %-8s %-8s %-14s %-14s %s\n" "graph" "n" "m" "whiteboard b" "congest b"
    "ratio";
  let rng = Prng.create seed in
  bfs_row rep (G.Gen.random_tree rng 64) "tree n=64";
  if not fast then bfs_row rep (G.Gen.random_tree rng 256) "tree n=256";
  bfs_row rep (G.Gen.random_connected rng 64 0.1) "gnp n=64 p=.1";
  if not fast then begin
    bfs_row rep (G.Gen.random_connected rng 256 0.1) "gnp n=256 p=.1";
    bfs_row rep (G.Gen.random_connected rng 256 0.3) "gnp n=256 p=.3"
  end;
  bfs_row rep (G.Gen.grid 16 16) "grid 16x16";
  bfs_row rep (G.Gen.hypercube 8) "hypercube d=8";
  Printf.printf
    "\n(whiteboard BFS pays O(log n) bits per NODE; CONGEST flooding pays O(log n) per EDGE,\n\
     so the gap tracks average degree — the denser the relation graph, the stronger the\n\
     case for communication that is not routed along the links.)\n";
  Printf.printf "\n-- MIS: whiteboard SIMSYNC greedy vs CONGEST Luby --\n";
  Printf.printf "%-22s %-8s %-14s %-16s %s\n" "graph" "n" "whiteboard b" "luby b (rounds)" "ratio";
  mis_row rep ~seed (G.Gen.random_connected rng 128 0.05) "gnp n=128 p=.05";
  if not fast then mis_row rep ~seed (G.Gen.random_connected rng 128 0.3) "gnp n=128 p=.3";
  mis_row rep ~seed (G.Gen.grid 12 12) "grid 12x12";
  Printf.printf
    "(the whiteboard MIS writes n one-bit-plus-ID messages once; Luby pays per edge per\n\
     phase — the link-free medium is decisively cheaper here.)\n";
  Report.write ?out rep
