(* Exhaustive exploration as a deterministic record: every instance is
   enumerated by [Engine.verify] with its traits forced opaque, at several
   worker counts; the verdicts and execution counts must agree with one
   worker's (the determinism contract — the suite aborts on any
   divergence).  The canonical [Engine.verify] then records the
   configurations it visited.  Every column is a count, independent of
   the worker count and the host; wall-clock timing is perfbench's job.
   [fast] drops K7 and the four-worker enumeration. *)

module P = Wb_model
module G = Wb_graph
module J = Wb_obs.Json

let verify_fields (v : P.Engine.verification) =
  [ ("states", J.Int v.P.Engine.states);
    ("finals", J.Int v.P.Engine.finals);
    ("dedup_hits", J.Int v.P.Engine.dedup_hits);
    ("orbit_collapses", J.Int v.P.Engine.orbit_collapses);
    ("group_order", J.Int v.P.Engine.group_order);
    ("dedup", J.Bool v.P.Engine.dedup) ]

(* [min_ratio] asserts the canonical explorer's superlinear win: visited
   configurations (interior + final) must undercut the enumerator's
   execution count by at least that factor. *)
let instance rep ~jobs_list ?min_ratio ~name ~protocol ~graph ~check () =
  let enumerate jobs =
    match P.Engine.verify_packed ~jobs (P.Protocol.opaque protocol) graph check with
    | Ok v -> (v.P.Engine.valid, v.P.Engine.finals)
    | Error (`Limit _) ->
      failwith (Printf.sprintf "%s: enumeration hit the limit at jobs %d" name jobs)
  in
  let seq_ok, seq_count = enumerate 1 in
  List.iter
    (fun jobs ->
      let ok, count = enumerate jobs in
      if ok <> seq_ok then failwith (name ^ ": parallel verdict diverged");
      if count <> seq_count then
        failwith
          (Printf.sprintf "%s: parallel execution count diverged at jobs %d (%d vs %d)" name jobs
             count seq_count))
    (List.filter (fun jobs -> jobs > 1) jobs_list);
  let v =
    match P.Engine.verify_packed protocol graph check with
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
  Printf.printf "%-24s %7d execs" name seq_count;
  if v.P.Engine.dedup then Printf.printf "  canon %d+%d cfgs" v.P.Engine.states v.P.Engine.finals;
  print_newline ();
  Report.add_row rep ~name
    (("executions", J.Int seq_count) :: ("all_valid", J.Bool seq_ok) :: verify_fields v)

let succeeds_validly problem g =
  fun (r : P.Engine.run) ->
  match r.P.Engine.outcome with
  | P.Engine.Success a -> P.Problems.valid_answer problem g a
  | _ -> false

let all_deadlock (r : P.Engine.run) = P.Engine.outcome_equal r.P.Engine.outcome P.Engine.Deadlock

(* [seed] has no effect on the fixed instance graphs; it is recorded in the
   report so every suite's envelope has one. *)
let run ?(seed = 2012) ?(fast = false) ?out () =
  let jobs_list = if fast then [ 1; 2 ] else [ 1; 2; 4 ] in
  print_endline "Exhaustive exploration: enumeration at every worker count vs canonical verify";
  let rep =
    Report.create ~bench:"explore" ~seed ~fast
      ~params:[ ("jobs", J.List (List.map (fun j -> J.Int j) jobs_list)) ]
      ()
  in
  let instance = instance rep ~jobs_list in
  (* The Open Problem 3 pair: the odd witness where the ASYNC layer
     protocol deadlocks under every schedule, and C6 where it succeeds
     under every schedule. *)
  let odd = G.Graph.of_edges 5 [ (0, 1); (0, 2); (1, 2); (1, 3); (3, 4) ] in
  instance ~name:"bfs-bipartite/odd-witness" ~protocol:Wb_protocols.Bfs_bipartite_async.protocol
    ~graph:odd ~check:all_deadlock ();
  let c6 = G.Gen.cycle 6 in
  instance ~name:"bfs-bipartite/C6" ~protocol:Wb_protocols.Bfs_bipartite_async.protocol ~graph:c6
    ~check:(succeeds_validly P.Problems.Bfs c6) ();
  let k6 = G.Gen.complete 6 in
  instance ~name:"mis/K6" ~protocol:(Wb_protocols.Mis_simsync.protocol ~root:0) ~graph:k6
    ~check:(succeeds_validly (P.Problems.Rooted_mis 0) k6) ();
  (* 6! = 720 write orders collapse to the 64 board subsets plus symmetry;
     the >= 10x bar aborts the suite if the canonical explorer regresses. *)
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
  (match
     P.Engine.verify_packed Wb_protocols.Build_naive.protocol k8
       (succeeds_validly P.Problems.Build k8)
   with
  | Error (`Limit _) -> failwith "build-naive/K8: canonical exploration hit the limit"
  | Ok v ->
    if not v.P.Engine.valid then failwith "build-naive/K8: verdict is invalid";
    if not v.P.Engine.dedup then failwith "build-naive/K8: expected the canonical path";
    Printf.printf "%-24s verify-only  canon %d+%d cfgs  (|Aut| = %d)\n" "build-naive/K8"
      v.P.Engine.states v.P.Engine.finals v.P.Engine.group_order;
    Report.add_row rep ~name:"build-naive/K8" (("all_valid", J.Bool v.P.Engine.valid) :: verify_fields v));
  Report.write ?out rep
