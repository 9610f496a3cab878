(* Regenerates the paper's Table 2: the yes/no classification of BUILD on
   k-degenerate graphs, rooted MIS, TRIANGLE, EOB-BFS and BFS across the
   four models.  Positive cells execute the real protocol over graph
   families and adversaries; negative cells execute the reduction gadget
   plus the Lemma 3 counting contradiction. *)

module P = Wb_model
module G = Wb_graph
module R = Wb_reductions
module J = Wb_obs.Json
module Prng = Wb_support.Prng

type verdict =
  | Yes of string  (** verified positively, with evidence summary *)
  | No of string  (** verified impossibility machinery *)
  | Claimed of string  (** paper asserts it; no protocol known to us *)
  | Open_question

let show = function
  | Yes e -> ("yes", e)
  | No e -> ("no", e)
  | Claimed e -> ("yes*", e)
  | Open_question -> ("?", "open problem in the paper")

(* --- positive cells ------------------------------------------------- *)

let verify_build ~seed =
  let rng = Prng.create 1 in
  let graphs =
    [ G.Gen.random_tree rng 64;
      G.Gen.random_ktree rng 48 ~k:3;
      G.Gen.apollonian rng 64;
      G.Gen.random_kdegenerate rng 40 ~k:5;
      G.Gen.random_ktree rng 5 ~k:2 (* exhaustively scheduled *) ]
  in
  let protocol = Wb_protocols.Build_degenerate.protocol ~k:5 ~decoder:`Backtracking in
  (* degeneracy <= 5 for all of the above (trees, 3-trees, planar) *)
  let ok, runs, bits =
    Harness.verify ~seed protocol (fun _ -> P.Problems.Build) graphs ~exhaustive_below:6
  in
  (ok, Printf.sprintf "SIMASYNC protocol, %d runs, <=%d bits" runs bits)

let verify_mis ~seed =
  let rng = Prng.create 2 in
  let graphs =
    [ G.Gen.random_gnp rng 48 0.1; G.Gen.petersen (); G.Gen.random_gnp rng 32 0.4; G.Gen.cycle 5 ]
  in
  let protocol = Wb_protocols.Mis_simsync.protocol ~root:0 in
  let ok, runs, bits =
    Harness.verify ~seed protocol (fun _ -> P.Problems.Rooted_mis 0) graphs ~exhaustive_below:6
  in
  (ok, Printf.sprintf "SIMSYNC greedy, %d runs, <=%d bits" runs bits)

let verify_eob_bfs ~seed =
  let rng = Prng.create 3 in
  let graphs =
    [ G.Gen.random_eob rng 48 0.15;
      G.Gen.random_eob rng 33 0.4;
      G.Gen.path 5;
      G.Gen.cycle 3 (* non-EOB: must reject under every schedule *);
      G.Gen.random_connected rng 14 0.3 ]
  in
  let ok, runs, bits =
    Harness.verify ~seed Wb_protocols.Eob_bfs_async.protocol (fun _ -> P.Problems.Eob_bfs) graphs
      ~exhaustive_below:6
  in
  (ok, Printf.sprintf "ASYNC layer protocol, %d runs, <=%d bits" runs bits)

let verify_bfs ~seed =
  let rng = Prng.create 4 in
  let graphs =
    [ G.Gen.random_connected rng 48 0.08;
      G.Gen.grid 5 6;
      G.Gen.random_gnp rng 40 0.05 (* disconnected *);
      G.Graph.of_edges 6 [ (0, 1); (0, 2); (1, 2); (1, 3); (3, 4) ] ]
  in
  let ok, runs, bits =
    Harness.verify ~seed Wb_protocols.Bfs_sync.protocol (fun _ -> P.Problems.Bfs) graphs
      ~exhaustive_below:6
  in
  (ok, Printf.sprintf "SYNC layer protocol with d0, %d runs, <=%d bits" runs bits)

(* --- negative cells -------------------------------------------------- *)

(* Theorem 3 / Figure 1: TRIANGLE not in SIMASYNC[o(n)]. *)
let refute_triangle_simasync () =
  let rng = Prng.create 5 in
  let gadget_ok =
    List.for_all
      (fun _ -> R.Triangle_reduction.gadget_faithful (G.Gen.random_bipartite rng 5 5 0.4))
      (List.init 5 Fun.id)
  in
  let transformed = R.Triangle_reduction.transform R.Oracles.triangle_simasync in
  let g = G.Gen.random_bipartite rng 4 4 0.5 in
  let sim_ok =
    P.Engine.outcome_equal
      (P.Engine.run_packed transformed g (P.Adversary.random rng)).P.Engine.outcome
      (P.Engine.Success (P.Answer.Graph g))
  in
  let n = 4096 in
  let floor = R.Counting.min_message_bits R.Counting.balanced_bipartite n in
  let hyp = 10 * Wb_support.Bitbuf.width_of n in
  let counting_ok = (2 * hyp) + (3 * Wb_support.Bitbuf.width_of n) < floor in
  ( gadget_ok && sim_ok && counting_ok,
    Printf.sprintf "Thm 3: gadget+transformer verified; at n=%d BUILD(bipartite) needs %d b/node" n
      floor )

(* Theorem 6: MIS not in SIMASYNC[o(n)]. *)
let refute_mis_simasync () =
  let rng = Prng.create 6 in
  let gadget_ok = R.Mis_reduction.gadget_faithful (G.Gen.random_gnp rng 7 0.4) in
  let transformed =
    R.Mis_reduction.transform ~make_inner:(fun ~root -> R.Oracles.mis_simasync ~root)
  in
  let g = G.Gen.random_gnp rng 7 0.35 in
  let sim_ok =
    P.Engine.outcome_equal
      (P.Engine.run_packed transformed g (P.Adversary.random rng)).P.Engine.outcome
      (P.Engine.Success (P.Answer.Graph g))
  in
  let n = 4096 in
  let floor = R.Counting.min_message_bits R.Counting.all_graphs n in
  ( gadget_ok && sim_ok,
    Printf.sprintf "Thm 6: gadget+transformer verified; BUILD(all) needs %d b/node at n=%d" floor n )

(* Theorem 8 / Figure 2: EOB-BFS not in SIMSYNC[o(n)] (hence not SIMASYNC). *)
let refute_eob_bfs_simsync () =
  let rng = Prng.create 7 in
  let g = G.Gen.random_eob rng 8 0.4 in
  let gadget_ok =
    List.for_all (fun t -> R.Eob_bfs_reduction.gadget_faithful g ~target:t) [ 1; 3; 5; 7 ]
  in
  let transformed = R.Eob_bfs_reduction.transform R.Oracles.eob_bfs_simsync in
  let sim_ok =
    P.Engine.outcome_equal
      (P.Engine.run_packed transformed g (P.Adversary.random rng)).P.Engine.outcome
      (P.Engine.Success (P.Answer.Graph g))
  in
  let n = 4096 in
  let floor = R.Counting.min_message_bits R.Counting.even_odd_bipartite n in
  ( gadget_ok && sim_ok,
    Printf.sprintf "Thm 8: gadget+transformer verified; BUILD(EOB) needs %d b/node at n=%d" floor n )

let triangle_claim () =
  (* TRIANGLE in SIMSYNC: the paper claims it without a protocol.  We verify
     the promise-class protocol and quote the n=4 synthesis evidence. *)
  let rng = Prng.create 8 in
  let p = Wb_protocols.Triangle_degenerate.protocol ~k:3 in
  let g = G.Gen.random_kdegenerate rng 24 ~k:3 in
  let run = P.Engine.run_packed p g (P.Adversary.random rng) in
  let ok =
    P.Engine.outcome_equal run.P.Engine.outcome
      (P.Engine.Success (P.Answer.Bool (G.Algo.has_triangle g)))
  in
  ( ok,
    "paper asserts a protocol exists (none given); verified on the bounded-degeneracy promise \
     class, and SIMSYNC synthesis at n=4 finds a 2-letter protocol where SIMASYNC needs 3" )

let run ?(seed = 2012) ?(fast = false) ?out () =
  let rep = Report.create ~bench:"table2" ~seed ~fast () in
  Harness.section "Table 2 — problem classification across the four models";
  let build_ok, build_e = verify_build ~seed in
  let mis_ok, mis_e = verify_mis ~seed in
  let mis_no_ok, mis_no_e = refute_mis_simasync () in
  let tri_no_ok, tri_no_e = refute_triangle_simasync () in
  let tri_claim_ok, tri_claim_e = triangle_claim () in
  let eob_ok, eob_e = verify_eob_bfs ~seed in
  let eob_no_ok, eob_no_e = refute_eob_bfs_simsync () in
  let bfs_ok, bfs_e = verify_bfs ~seed in
  let rows =
    [ ( "BUILD k-degenerate",
        [| Yes build_e; Yes "inherited (Lemma 4)"; Yes "inherited"; Yes "inherited" |],
        build_ok );
      ( "rooted MIS",
        [| No mis_no_e; Yes mis_e; Yes "inherited (Lemma 4)"; Yes "inherited" |],
        mis_ok && mis_no_ok );
      ( "TRIANGLE",
        [| No tri_no_e; Claimed tri_claim_e; Claimed "inherited from SIMSYNC"; Claimed "inherited" |],
        tri_no_ok && tri_claim_ok );
      ( "EOB-BFS",
        [| No "inherited from SIMSYNC 'no'"; No eob_no_e; Yes eob_e; Yes "inherited (Lemma 4)" |],
        eob_ok && eob_no_ok );
      ("BFS", [| Open_question; Open_question; Open_question; Yes bfs_e |], bfs_ok) ]
  in
  Printf.printf "%-20s %-10s %-10s %-10s %-10s  %s\n" "problem" "SIMASYNC" "SIMSYNC" "ASYNC" "SYNC"
    "verification";
  List.iter
    (fun (name, cells, checked) ->
      let labels = Array.map (fun c -> fst (show c)) cells in
      Harness.check checked "%-20s %-10s %-10s %-10s %-10s  " name labels.(0) labels.(1)
        labels.(2) labels.(3))
    rows;
  Printf.printf "\nevidence:\n";
  List.iter
    (fun (name, cells, _) ->
      Array.iteri
        (fun i c ->
          let label, evidence = show c in
          if String.length evidence > 0 && evidence <> "inherited" then
            Printf.printf "  %-18s %-8s [%s] %s\n" name
              (P.Model.name (List.nth P.Model.all i))
              label evidence)
        cells)
    rows;
  Printf.printf
    "\nlegend: yes* = asserted by the paper without an explicit protocol; 'inherited' cells\n\
     follow from the Lemma 4 inclusions SIMASYNC <= SIMSYNC <= ASYNC <= SYNC.\n";
  List.iter
    (fun (name, cells, _) ->
      Report.add_row rep ~name
        [ ( "cells",
            J.Obj
              (List.mapi
                 (fun i model ->
                   let label, evidence = show cells.(i) in
                   ( P.Model.name model,
                     J.Obj [ ("verdict", J.String label); ("evidence", J.String evidence) ] ))
                 P.Model.all) ) ])
    rows;
  Report.write ?out rep
