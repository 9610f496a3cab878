(* Sequential vs parallel exhaustive exploration, as a machine-readable
   perf record: every instance is explored with [Engine.explore] and, with
   its traits forced opaque, with [Engine.verify] at several worker counts;
   the verdicts and execution counts are asserted identical (the
   determinism contract — the process aborts on any divergence), and the
   timings land in the report.  Speedups are whatever the host provides: on
   a single core the parallel walker pays its coordination overhead and
   reports <= 1x; the counts still must match exactly.

   The core is a library function so bench/explorebench.exe and
   `wbctl bench` drive the same instances; [fast] trims the suite (fewer
   repetitions, fewer worker counts, no K7) for CI gates. *)

module P = Wb_model
module G = Wb_graph
module J = Wb_obs.Json

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* Best of [k] — exploration is deterministic, so the minimum wall time is
   the least-noisy estimate. *)
let best_of k f =
  let rec go k acc =
    if k <= 0 then acc
    else
      let r, dt = time f in
      let _, best = acc in
      go (k - 1) (if dt < best then (r, dt) else acc)
  in
  go (k - 1) (time f)

let verify_fields (v : P.Engine.verification) =
  [ ("states", J.Int v.P.Engine.states);
    ("finals", J.Int v.P.Engine.finals);
    ("dedup_hits", J.Int v.P.Engine.dedup_hits);
    ("orbit_collapses", J.Int v.P.Engine.orbit_collapses);
    ("steals", J.Int v.P.Engine.steals);
    ("group_order", J.Int v.P.Engine.group_order);
    ("dedup", J.Bool v.P.Engine.dedup) ]

(* [min_ratio] asserts the canonical explorer's superlinear win: visited
   configurations (interior + final) must undercut the enumerator's
   execution count by at least that factor — the ISSUE 9 acceptance bar. *)
let instance rep ~reps ~jobs_list ?min_ratio ~name ~protocol ~graph ~check () =
  let seq, seq_s = best_of reps (fun () -> P.Engine.explore_packed protocol graph check) in
  let seq_ok, seq_count =
    match seq with
    | Ok r -> r
    | Error (`Limit _) -> failwith (name ^ ": sequential exploration hit the limit")
  in
  let enumerated = P.Protocol.opaque protocol in
  let par_rows =
    List.map
      (fun jobs ->
        let par, par_s =
          best_of reps (fun () -> P.Engine.verify_packed ~jobs enumerated graph check)
        in
        (match par with
        | Error (`Limit _) -> failwith (name ^ ": parallel exploration hit the limit")
        | Ok v ->
          if v.P.Engine.valid <> seq_ok then failwith (name ^ ": parallel verdict diverged");
          if seq_ok && v.P.Engine.finals <> seq_count then
            failwith
              (Printf.sprintf "%s: parallel execution count diverged (%d vs %d)" name
                 v.P.Engine.finals seq_count));
        (jobs, par_s))
      jobs_list
  in
  let ver, ver_s = best_of reps (fun () -> P.Engine.verify_packed protocol graph check) in
  let v =
    match ver with
    | Ok v -> v
    | Error (`Limit _) -> failwith (name ^ ": canonical exploration hit the limit")
  in
  if v.P.Engine.valid <> seq_ok then failwith (name ^ ": canonical verdict diverged");
  (match min_ratio with
  | Some r when v.P.Engine.dedup ->
    let visited = v.P.Engine.states + v.P.Engine.finals in
    if visited * r > seq_count then
      failwith
        (Printf.sprintf "%s: dedup visited %d configurations, more than 1/%d of %d executions"
           name visited r seq_count)
  | Some _ -> failwith (name ^ ": min_ratio set but the traits forced enumerative fallback")
  | None -> ());
  Printf.printf "%-24s %7d execs  seq %8.4fs" name seq_count seq_s;
  List.iter (fun (jobs, s) -> Printf.printf "  j%d %8.4fs (x%.2f)" jobs s (seq_s /. s)) par_rows;
  if v.P.Engine.dedup then
    Printf.printf "  canon %d+%d cfgs %8.4fs" v.P.Engine.states v.P.Engine.finals ver_s;
  print_newline ();
  Report.add_row rep ~name
    ([ ("executions", J.Int seq_count);
       ("all_valid", J.Bool seq_ok);
       ("seq_s", J.Float seq_s) ]
    @ List.concat_map
        (fun (jobs, s) ->
          [ (Printf.sprintf "par%d_s" jobs, J.Float s);
            (Printf.sprintf "speedup%d" jobs, J.Float (seq_s /. s)) ])
        par_rows
    @ (("verify_s", J.Float ver_s) :: verify_fields v))

let succeeds_validly problem g =
  fun (r : P.Engine.run) ->
  match r.P.Engine.outcome with
  | P.Engine.Success a -> P.Problems.valid_answer problem g a
  | _ -> false

let all_deadlock (r : P.Engine.run) = P.Engine.outcome_equal r.P.Engine.outcome P.Engine.Deadlock

(* [seed] has no effect on the fixed instance graphs; it is recorded in the
   report so the uniform bench CLI contract holds across every bench. *)
let run ?(seed = 2012) ?(fast = false) ?out () =
  let jobs_list = if fast then [ 1; 2 ] else [ 1; 2; 4 ] in
  let reps = if fast then 1 else 3 in
  print_endline "Exhaustive exploration: sequential vs parallel (counts must match)";
  let rep =
    Report.create ~bench:"explore" ~seed
      ~params:
        [ ("jobs", J.List (List.map (fun j -> J.Int j) jobs_list));
          ("reps", J.Int reps);
          ("fast", J.Bool fast) ]
      ()
  in
  let instance = instance rep ~reps ~jobs_list in
  (* The bench/openproblems.ml acceptance pair: the odd witness where the
     ASYNC layer protocol deadlocks under every schedule, and C6 where it
     succeeds under every schedule. *)
  let odd = G.Graph.of_edges 5 [ (0, 1); (0, 2); (1, 2); (1, 3); (3, 4) ] in
  instance ~name:"bfs-bipartite/odd-witness" ~protocol:Wb_protocols.Bfs_bipartite_async.protocol
    ~graph:odd ~check:all_deadlock ();
  let c6 = G.Gen.cycle 6 in
  instance ~name:"bfs-bipartite/C6" ~protocol:Wb_protocols.Bfs_bipartite_async.protocol ~graph:c6
    ~check:(succeeds_validly P.Problems.Bfs c6) ();
  let k6 = G.Gen.complete 6 in
  instance ~name:"mis/K6" ~protocol:(Wb_protocols.Mis_simsync.protocol ~root:0) ~graph:k6
    ~check:(succeeds_validly (P.Problems.Rooted_mis 0) k6) ();
  (* The ISSUE 9 acceptance cell: 6! = 720 write orders collapse to the 64
     board subsets plus symmetry — the >= 10x bar aborts the bench if the
     canonical explorer regresses. *)
  instance ~name:"build-naive/K6" ~min_ratio:10 ~protocol:Wb_protocols.Build_naive.protocol
    ~graph:k6
    ~check:(succeeds_validly P.Problems.Build k6) ();
  if not fast then begin
    let k7 = G.Gen.complete 7 in
    instance ~name:"build-naive/K7" ~protocol:Wb_protocols.Build_naive.protocol ~graph:k7
      ~check:(succeeds_validly P.Problems.Build k7) ()
  end;
  (* Headline: exhaustive K8 is out of reach for the enumerator (8! = 40320
     schedules per subset ordering) but instant canonically — Aut(K8) = S_8
     collapses the tree to one canonical schedule.  Verify-only cell. *)
  let k8 = G.Gen.complete 8 in
  let t0 = Unix.gettimeofday () in
  (match
     P.Engine.verify_packed Wb_protocols.Build_naive.protocol k8
       (succeeds_validly P.Problems.Build k8)
   with
  | Error (`Limit _) -> failwith "build-naive/K8: canonical exploration hit the limit"
  | Ok v ->
    let ver_s = Unix.gettimeofday () -. t0 in
    if not v.P.Engine.valid then failwith "build-naive/K8: verdict is invalid";
    if not v.P.Engine.dedup then failwith "build-naive/K8: expected the canonical path";
    Printf.printf "%-24s verify-only  canon %d+%d cfgs %8.4fs  (|Aut| = %d)\n" "build-naive/K8"
      v.P.Engine.states v.P.Engine.finals ver_s v.P.Engine.group_order;
    Report.add_row rep ~name:"build-naive/K8"
      ([ ("all_valid", J.Bool v.P.Engine.valid); ("verify_s", J.Float ver_s) ] @ verify_fields v));
  Report.write ?out rep
