(* Regenerates the Theorem 4 lattice picture and the Theorem 9
   orthogonality of message size: which strict separations hold, and the
   two-sided SUBGRAPH_f table (real protocol cost vs counting floor). *)

module R = Wb_reductions

let run ?(seed = 2012) ?(fast = false) ?out () =
  Harness.section "Theorem 4 — the computing-power lattice";
  Printf.printf
    "PSIMASYNC[f] < PSIMSYNC[f] < PASYNC[f] <= PSYNC[f]   (f = Omega(log n), o(n))\n\n\
     separation witnesses exercised by this harness:\n\
    \  SIMASYNC  < SIMSYNC : rooted MIS  (yes in SIMSYNC: Table 2; no in SIMASYNC: Thm 6)\n\
    \  SIMSYNC   < ASYNC   : EOB-BFS    (yes in ASYNC:  Table 2; no in SIMSYNC:  Thm 8)\n\
    \  ASYNC    <= SYNC    : BFS solvable in SYNC; strictness is Open Problem 3\n";
  Harness.section "Theorem 9 — message size is orthogonal to synchronisation";
  Printf.printf "SUBGRAPH_f with f(n) = n/2: SIMASYNC[f] contains it, SYNC[o(f)] does not.\n\n";
  let rows = R.Subgraph_bound.evaluate ~cutoff:(fun n -> n / 2) ~ns:[ 32; 64; 128; 256; 512 ] in
  Printf.printf "%-8s %-8s %-22s %-22s %s\n" "n" "f(n)" "SIMASYNC protocol b/msg" "Lemma3 floor b/msg"
    "log n bits feasible?";
  List.iter
    (fun (r : R.Subgraph_bound.row) ->
      Printf.printf "%-8d %-8d %-22d %-22d %s\n" r.n r.f r.sim_async_bits r.lower_bound_bits
        (if R.Subgraph_bound.sync_infeasible ~n:r.n ~f:r.f ~g_bits:(Wb_support.Bitbuf.width_of r.n)
         then "no (counting bound)"
         else "yes"))
    rows;
  Printf.printf
    "\n(the protocol column tracks f(n) = n/2 while the floor grows ~ f^2/n; O(log n)-bit\n\
     messages are information-theoretically refused at every size: no synchronisation\n\
     mechanism can compensate for message size.)\n";
  Report.write ?out (Report.create ~bench:"lattice" ~seed ~fast ())
