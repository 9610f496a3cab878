open Wb_model
module G = Wb_graph
module W = Wb_support.Bitbuf.Writer

let check = Alcotest.(check bool)

(* A probe protocol: every node writes the board length it saw when its
   message was composed.  Under the four models this one definition yields
   observably different boards, which is exactly what the semantics tests
   need. *)
module type PROBE_CONFIG = sig
  val model : Model.t
  val activate_when : View.t -> Board.t -> bool
end

module Probe (C : PROBE_CONFIG) : Protocol.S = struct
  let name = "probe"

  let model = C.model

  let traits = Protocol.Traits.opaque

  let message_bound ~n = 64 + n

  type local = unit

  let init _ = ()

  let wants_to_activate view board () = C.activate_when view board

  let compose _view board () =
    let w = W.create () in
    W.nat w (Board.length board);
    (w, ())

  let output ~n:_ board =
    Answer.Node_set
      (Board.fold (fun acc m -> Wb_support.Bitbuf.Reader.nat (Message.reader m) :: acc) [] board)
end

let seen_lengths model =
  let module P = Probe (struct
    let model = model

    let activate_when _ _ = true
  end) in
  let module E = Engine.Make (P) in
  let run = E.run (G.Gen.complete 5) Adversary.min_id in
  match run.Engine.outcome with
  | Engine.Success (Answer.Node_set lengths) -> List.sort compare lengths
  | _ -> Alcotest.fail "probe failed"

let message_timing_tests =
  [ Alcotest.test_case "SIMASYNC composes everything from the empty board" `Quick (fun () ->
        Alcotest.(check (list int)) "lengths" [ 0; 0; 0; 0; 0 ] (seen_lengths Model.Sim_async));
    Alcotest.test_case "SIMSYNC recomposes: node sees the board at its write round" `Quick
      (fun () -> Alcotest.(check (list int)) "lengths" [ 0; 1; 2; 3; 4 ] (seen_lengths Model.Sim_sync));
    Alcotest.test_case "SYNC with always-activate behaves like SIMSYNC" `Quick (fun () ->
        Alcotest.(check (list int)) "lengths" [ 0; 1; 2; 3; 4 ] (seen_lengths Model.Sync));
    Alcotest.test_case "ASYNC freezes at activation" `Quick (fun () ->
        (* Activation gate: node v activates once v-1 messages are on the
           board; frozen composition must then record exactly that length
           even though the write happens later. *)
        let module P = Probe (struct
          let model = Model.Async

          let activate_when view board = Board.length board >= View.id view
        end) in
        let module E = Engine.Make (P) in
        let run = E.run (G.Gen.complete 5) Adversary.max_id in
        (match run.Engine.outcome with
        | Engine.Success (Answer.Node_set lengths) ->
          Alcotest.(check (list int)) "lengths" [ 0; 1; 2; 3; 4 ] (List.sort compare lengths)
        | _ -> Alcotest.fail "async probe failed")) ]

let lifecycle_tests =
  [ Alcotest.test_case "every node writes exactly once on success" `Quick (fun () ->
        let module P = Probe (struct
          let model = Model.Sim_sync

          let activate_when _ _ = true
        end) in
        let module E = Engine.Make (P) in
        let run = E.run (G.Gen.cycle 7) Adversary.max_id in
        check "success" true (Engine.succeeded run);
        check "writes is a permutation" true (Wb_support.Perm.is_permutation run.Engine.writes);
        Array.iteri
          (fun v r ->
            check (Printf.sprintf "node %d wrote" v) true (r >= 1);
            check "activated before writing" true (run.Engine.activation_round.(v) < r))
          run.Engine.write_round);
    Alcotest.test_case "a node never writes in its activation round" `Quick (fun () ->
        let module P = Probe (struct
          let model = Model.Async

          let activate_when _ _ = true
        end) in
        let module E = Engine.Make (P) in
        let run = E.run (G.Gen.path 6) Adversary.min_id in
        Array.iteri
          (fun v a -> check (Printf.sprintf "node %d" v) true (run.Engine.write_round.(v) > a))
          run.Engine.activation_round);
    Alcotest.test_case "refusing to activate deadlocks" `Quick (fun () ->
        let module P = Probe (struct
          let model = Model.Async

          let activate_when view _ = View.id view <> 2
        end) in
        let module E = Engine.Make (P) in
        let run = E.run (G.Gen.path 4) Adversary.min_id in
        check "deadlock" true (run.Engine.outcome = Engine.Deadlock));
    Alcotest.test_case "n=1 succeeds" `Quick (fun () ->
        let module P = Probe (struct
          let model = Model.Sim_async

          let activate_when _ _ = true
        end) in
        let module E = Engine.Make (P) in
        check "ok" true (Engine.succeeded (E.run (G.Graph.empty 1) Adversary.min_id)));
    Alcotest.test_case "n=0 succeeds vacuously" `Quick (fun () ->
        let module P = Probe (struct
          let model = Model.Sim_async

          let activate_when _ _ = true
        end) in
        let module E = Engine.Make (P) in
        check "ok" true (Engine.succeeded (E.run (G.Graph.empty 0) Adversary.min_id)));
    Alcotest.test_case "oversized message is a violation" `Quick (fun () ->
        let module P : Protocol.S = struct
          let name = "chatty"

          let model = Model.Sim_async

          let traits = Protocol.Traits.opaque

          let message_bound ~n:_ = 4

          type local = unit

          let init _ = ()

          let wants_to_activate _ _ () = true

          let compose _ _ () =
            let w = W.create () in
            W.fixed w ~width:10 777;
            (w, ())

          let output ~n:_ _ = Answer.Reject
        end in
        let module E = Engine.Make (P) in
        let run = E.run (G.Gen.path 3) Adversary.min_id in
        (match run.Engine.outcome with
        | Engine.Size_violation { bits; bound; _ } ->
          Alcotest.(check int) "bits" 10 bits;
          Alcotest.(check int) "bound" 4 bound
        | _ -> Alcotest.fail "expected size violation"));
    Alcotest.test_case "output exceptions are captured" `Quick (fun () ->
        let module P : Protocol.S = struct
          let name = "crasher"

          let model = Model.Sim_async

          let traits = Protocol.Traits.opaque

          let message_bound ~n:_ = 8

          type local = unit

          let init _ = ()

          let wants_to_activate _ _ () = true

          let compose _ _ () = (W.create (), ())

          let output ~n:_ _ = failwith "boom"

          let _ = name
        end in
        let module E = Engine.Make (P) in
        let run = E.run (G.Gen.path 3) Adversary.min_id in
        (match run.Engine.outcome with
        | Engine.Output_error msg -> check "mentions boom" true (String.length msg > 0)
        | _ -> Alcotest.fail "expected output error")) ]

let explore_tests =
  [ Alcotest.test_case "SIMASYNC explore visits n! schedules" `Quick (fun () ->
        let module P = Probe (struct
          let model = Model.Sim_async

          let activate_when _ _ = true
        end) in
        let count g = snd (Exhaustive.every_schedule (module P : Protocol.S) g (fun _ -> true)) in
        Alcotest.(check int) "4!" 24 (count (G.Gen.cycle 4));
        Alcotest.(check int) "5!" 120 (count (G.Gen.complete 5)));
    Alcotest.test_case "explore agrees with run on every schedule" `Quick (fun () ->
        (* SIMSYNC probe boards always read 0,1,2,...  regardless of order. *)
        let module P = Probe (struct
          let model = Model.Sim_sync

          let activate_when _ _ = true
        end) in
        let ok, count =
          Exhaustive.every_schedule (module P : Protocol.S) (G.Gen.path 4) (fun r ->
              match r.Engine.outcome with
              | Engine.Success (Answer.Node_set l) -> List.sort compare l = [ 0; 1; 2; 3 ]
              | _ -> false)
        in
        check "all ok" true ok;
        Alcotest.(check int) "24 schedules" 24 count);
    Alcotest.test_case "explore limit is a typed error" `Quick (fun () ->
        let module P = Probe (struct
          let model = Model.Sim_async

          let activate_when _ _ = true
        end) in
        let module E = Engine.Make (P) in
        List.iter
          (fun jobs ->
            match E.verify ~limit:10 ~jobs (G.Gen.complete 5) (fun _ -> true) with
            | Error (`Limit 10) -> ()
            | Error (`Limit l) -> Alcotest.failf "jobs %d: wrong limit payload: %d" jobs l
            | Ok _ -> Alcotest.failf "jobs %d: expected Error (`Limit _)" jobs)
          [ 1; 2 ]) ]

let board_tests =
  [ Alcotest.test_case "append/find/truncate/generation" `Quick (fun () ->
        let b = Board.create 4 in
        let m author = Message.make ~author ~payload:[| true; false |] in
        Board.append b (m 2);
        Board.append b (m 0);
        check "has 2" true (Board.has_author b 2);
        check "no 1" false (Board.has_author b 1);
        Alcotest.(check int) "len" 2 (Board.length b);
        Alcotest.(check int) "total bits" 4 (Board.total_bits b);
        let g0 = Board.generation b in
        Board.truncate b 1;
        check "gen bumped" true (Board.generation b > g0);
        check "2 still there" true (Board.has_author b 2);
        check "0 gone" false (Board.has_author b 0);
        Alcotest.check_raises "double write" (Invalid_argument "Board.append: author already wrote")
          (fun () ->
            Board.append b (m 2)));
    Alcotest.test_case "running total_bits follows appends and truncates" `Quick (fun () ->
        let b = Board.create 6 in
        let fold () = Board.fold (fun acc m -> acc + Message.size_bits m) 0 b in
        let m author bits = Message.make ~author ~payload:(Array.make bits true) in
        let agrees what = Alcotest.(check int) what (fold ()) (Board.total_bits b) in
        List.iter (fun (a, k) -> Board.append b (m a k); agrees "append") [ (3, 5); (0, 0); (5, 9) ];
        Board.truncate b 1;
        agrees "truncate";
        Alcotest.(check int) "one message left" 5 (Board.total_bits b);
        List.iter (fun (a, k) -> Board.append b (m a k); agrees "append again") [ (0, 2); (1, 7); (4, 1) ];
        Board.truncate b 0;
        agrees "empty";
        Alcotest.(check int) "zero" 0 (Board.total_bits b));
    Alcotest.test_case "authors_in_order" `Quick (fun () ->
        let b = Board.create 3 in
        List.iter
          (fun a -> Board.append b (Message.make ~author:a ~payload:[||]))
          [ 1; 2; 0 ];
        Alcotest.(check (list int)) "order" [ 1; 2; 0 ] (Array.to_list (Board.authors_in_order b))) ]

(* A candidate view over universe [n] holding [l]. *)
let cands n l = Wb_support.Rankset.(view (of_list n l))

let adversary_tests =
  [ Alcotest.test_case "strategies pick as documented" `Quick (fun () ->
        let b = Board.create 5 in
        Alcotest.(check int) "min" 1 (Adversary.choose Adversary.min_id b (cands 5 [ 1; 3; 4 ]));
        Alcotest.(check int) "max" 4 (Adversary.choose Adversary.max_id b (cands 5 [ 1; 3; 4 ]));
        Alcotest.(check int) "priority" 3
          (Adversary.choose (Adversary.by_priority [| 0; 1; 9; 10; 2 |]) b (cands 5 [ 1; 3; 4 ]));
        Alcotest.(check int) "alt even board" 1
          (Adversary.choose Adversary.alternating_extremes b (cands 5 [ 1; 3; 4 ])));
    Alcotest.test_case "random adversary stays in candidates" `Quick (fun () ->
        let adv = Adversary.random (Wb_support.Prng.create 4) in
        let b = Board.create 9 in
        for _ = 1 to 100 do
          check "member" true (List.mem (Adversary.choose adv b (cands 9 [ 2; 5; 8 ])) [ 2; 5; 8 ])
        done);
    Alcotest.test_case "avoider dodges neighbors of last writer" `Quick (fun () ->
        let g = G.Gen.star 5 in
        let adv = Adversary.last_writer_neighbor_avoider g in
        let b = Board.create 5 in
        Board.append b (Message.make ~author:0 ~payload:[||]);
        (* all of 1..4 neighbor the center 0: falls back to head *)
        Alcotest.(check int) "fallback" 1 (Adversary.choose adv b (cands 5 [ 1; 2; 3; 4 ]))) ]

let model_meta_tests =
  [ Alcotest.test_case "axes" `Quick (fun () ->
        check "simasync simult" true (Model.simultaneous Model.Sim_async);
        check "sync free" false (Model.simultaneous Model.Sync);
        check "async frozen" true (Model.frozen_at_activation Model.Async);
        check "simsync live" false (Model.frozen_at_activation Model.Sim_sync));
    Alcotest.test_case "lattice order (Lemma 4)" `Quick (fun () ->
        let leq = Model.weaker_or_equal in
        check "sa<=ss" true (leq Model.Sim_async Model.Sim_sync);
        check "sa<=a" true (leq Model.Sim_async Model.Async);
        check "ss<=a" true (leq Model.Sim_sync Model.Async);
        check "a<=s" true (leq Model.Async Model.Sync);
        check "s not<= a" false (leq Model.Sync Model.Async);
        check "a not<= ss" false (leq Model.Async Model.Sim_sync);
        List.iter (fun m -> check "refl" true (leq m m)) Model.all);
    Alcotest.test_case "table1 renders" `Quick (fun () ->
        let t = Model.table1 () in
        let contains needle =
          let nl = String.length needle and tl = String.length t in
          let rec go i = i + nl <= tl && (String.sub t i nl = needle || go (i + 1)) in
          go 0
        in
        List.iter (fun needle -> check needle true (contains needle))
          [ "SIMASYNC"; "SIMSYNC"; "ASYNC"; "SYNC" ]) ]

let problems_tests =
  [ Alcotest.test_case "valid_answer accepts any legal MIS" `Quick (fun () ->
        let g = G.Gen.cycle 6 in
        check "031 not independent? 0-3 ok" true
          (Problems.valid_answer (Problems.Rooted_mis 0) g (Answer.Node_set [ 0; 2; 4 ]));
        check "other valid MIS" true
          (Problems.valid_answer (Problems.Rooted_mis 0) g (Answer.Node_set [ 0; 3 ]));
        check "missing root" false
          (Problems.valid_answer (Problems.Rooted_mis 0) g (Answer.Node_set [ 1; 4 ]));
        check "not maximal" false
          (Problems.valid_answer (Problems.Rooted_mis 0) g (Answer.Node_set [ 0 ])));
    Alcotest.test_case "valid_answer for EOB-BFS" `Quick (fun () ->
        let eob = G.Graph.of_edges 4 [ (0, 1); (1, 2); (2, 3) ] in
        check "forest ok" true
          (Problems.valid_answer Problems.Eob_bfs eob (Answer.Forest [| -1; 0; 1; 2 |]));
        check "reject wrong" false (Problems.valid_answer Problems.Eob_bfs eob Answer.Reject);
        let bad = G.Gen.cycle 4 |> fun g -> G.Graph.extend g ~extra:0 ~new_edges:[ (0, 2) ] in
        check "reject right" true (Problems.valid_answer Problems.Eob_bfs bad Answer.Reject));
    Alcotest.test_case "reference answers" `Quick (fun () ->
        let g = G.Gen.two_cliques 3 in
        check "2cl" true (Problems.reference Problems.Two_cliques g = Answer.Bool true);
        check "conn" true (Problems.reference Problems.Connectivity g = Answer.Bool false);
        check "tri" true (Problems.reference Problems.Triangle g = Answer.Bool true));
    Alcotest.test_case "subgraph reference" `Quick (fun () ->
        let g = G.Gen.complete 5 in
        (match Problems.reference (Problems.Subgraph 3) g with
        | Answer.Edge_set es -> Alcotest.(check int) "C(3,2)" 3 (List.length es)
        | _ -> Alcotest.fail "expected edge set")) ]

(* A machine over the simplest confluent protocol shape: every node writes
   its own id, frozen at activation, so the board content is a pure multiset
   of ids — exactly the setting the canonical digest is specified for. *)
module Id_node = struct
  let model = Model.Sim_async

  let message_bound ~n:_ = 64

  type local = unit

  let init _ = ()

  let wants_to_activate ~round:_ _ _ () = true

  let compose ~round:_ view _board () =
    let w = W.create () in
    W.nat w (View.id view);
    Some (Message.of_writer ~author:(View.id view) w, ())

  let output ~n:_ _ = Answer.Node_set []
end

module IdM = Machine.Make (Id_node)

(* Drive [m] through [picks], returning the digest at the configuration the
   prefix leads to (a choice point or completion). *)
let digest_after m picks =
  let rec go picks =
    match (IdM.step m, picks) with
    | `Write _, _ -> go picks
    | `Choices _, v :: rest ->
      IdM.pick m v;
      go rest
    | `Choices _, [] -> IdM.digest m
    | `Done _, [] -> IdM.digest m
    | `Done _, _ :: _ -> Alcotest.fail "prefix ran past the end"
  in
  go picks

let digest_tests =
  [ Alcotest.test_case "stable across snapshot/restore" `Quick (fun () ->
        let m = IdM.init (G.Gen.complete 4) in
        let d0 = digest_after m [ 2 ] in
        let saved = IdM.snapshot m in
        let d_deep = digest_after m [ 0; 1 ] in
        check "mutation moved the digest" true (d_deep <> d0);
        IdM.restore m saved;
        Alcotest.(check int) "restored digest" d0 (IdM.digest m);
        (* And the restored machine re-derives the same downstream digest
           incrementally, not just the restored one. *)
        Alcotest.(check int) "replay digest" d_deep (digest_after m [ 0; 1 ]));
    Alcotest.test_case "board-order-insensitive, content-sensitive" `Quick (fun () ->
        let g = G.Gen.complete 4 in
        let a = IdM.init g in
        let b = IdM.init g in
        (* Same write multiset {0,1} in opposite orders: same configuration. *)
        let da = digest_after a [ 0; 1 ] in
        let db = digest_after b [ 1; 0 ] in
        Alcotest.(check int) "orders merge" da db;
        (* Different multisets at the same depth must not merge. *)
        let c = IdM.init g in
        check "content still distinguishes" true (digest_after c [ 2; 3 ] <> da));
    Alcotest.test_case "final digests merge by configuration, not by schedule" `Quick (fun () ->
        (* The machine stops the moment the board fills, so the final
           configuration still records who wrote last (that node was never
           swept into Terminated).  Schedules sharing the last writer reach
           the same configuration and must merge; schedules ending on a
           different node genuinely differ. *)
        let g = G.Gen.complete 3 in
        let d1 = digest_after (IdM.init g) [ 0; 1; 2 ] in
        let d2 = digest_after (IdM.init g) [ 1; 0; 2 ] in
        let d3 = digest_after (IdM.init g) [ 2; 1; 0 ] in
        Alcotest.(check int) "same last writer merges" d1 d2;
        check "different last writer does not" true (d3 <> d1)) ]

(* Free activation with one late node: node 0 activates in round 1, every
   other node in round 2. *)
module Late_node = struct
  include Id_node

  let model = Model.Async

  let wants_to_activate ~round view _ () = View.id view = 0 || round >= 2
end

module LateM = Machine.Make (Late_node)

let choices step m =
  match step m with
  | `Choices cs -> Wb_support.Rankset.to_list cs
  | `Write v -> Alcotest.failf "expected a choice, node %d wrote" v
  | `Done _ -> Alcotest.fail "expected a choice, the run ended"

(* [kill] on an open choice: a dead node "never activates, composes or
   writes again" (machine.mli), so it leaves the candidates at once. *)
let kill_tests =
  [ Alcotest.test_case "a killed candidate cannot be picked" `Quick (fun () ->
        let m = IdM.init (G.Gen.complete 3) in
        Alcotest.(check (list int)) "first choice" [ 0; 1; 2 ] (choices IdM.step m);
        IdM.kill m 1;
        Alcotest.check_raises "pick the dead node" (Invalid_argument "Machine.pick: not a candidate")
          (fun () -> IdM.pick m 1);
        Alcotest.(check (list int)) "choice without it" [ 0; 2 ] (choices IdM.step m);
        let rec drive () =
          match IdM.step m with
          | `Choices cs ->
            IdM.pick m (Wb_support.Rankset.nth cs 0);
            drive ()
          | `Write v ->
            check "the dead node never writes" true (v <> 1);
            drive ()
          | `Done run -> run
        in
        let run = drive () in
        check "deadlock" true (Machine.outcome_equal run.Machine.outcome Machine.Deadlock);
        Alcotest.(check (list int)) "writes" [ 0; 2 ] (Array.to_list run.Machine.writes));
    Alcotest.test_case "killing the picked node reopens the choice" `Quick (fun () ->
        let m = IdM.init (G.Gen.complete 3) in
        ignore (choices IdM.step m);
        IdM.pick m 1;
        IdM.kill m 1;
        Alcotest.(check (list int)) "reopened" [ 0; 2 ] (choices IdM.step m));
    Alcotest.test_case "a kill that empties the choice ends the round" `Quick (fun () ->
        (* Node 1 activated in the emptied round, so the run goes on. *)
        let m = LateM.init (G.Gen.complete 2) in
        Alcotest.(check (list int)) "round 2" [ 0 ] (choices LateM.step m);
        Alcotest.(check int) "round" 2 (LateM.round m);
        LateM.kill m 0;
        Alcotest.(check (list int)) "round 3" [ 1 ] (choices LateM.step m);
        Alcotest.(check int) "next round" 3 (LateM.round m);
        LateM.pick m 1;
        (match LateM.step m with `Write 1 -> () | _ -> Alcotest.fail "expected node 2's write");
        (match LateM.step m with
        | `Done run ->
          check "deadlock" true (Machine.outcome_equal run.Machine.outcome Machine.Deadlock);
          Alcotest.(check int) "rounds" 4 run.Machine.stats.rounds
        | _ -> Alcotest.fail "expected the end");
        (* Nobody activated in the emptied round: deadlock at once. *)
        let m = IdM.init (G.Gen.complete 2) in
        ignore (choices IdM.step m);
        IdM.kill m 0;
        IdM.kill m 1;
        match IdM.step m with
        | `Done run ->
          check "deadlock" true (Machine.outcome_equal run.Machine.outcome Machine.Deadlock);
          Alcotest.(check int) "same round" 2 run.Machine.stats.rounds
        | _ -> Alcotest.fail "expected deadlock") ]

(* The canonical explorer against plain enumeration: the Traits
   declarations are promises the type system cannot check, so this
   differential is what actually pins them (the same contract shape as
   SPIN's scalarsets).  Verdicts must agree on every instance; in canonical
   mode the visited-configuration count can only shrink.  Enumeration
   itself is checked against the list specification (Spec_kernel). *)
let verify_seed = 2012

let trait_count = 15

let spec_count = 20

let verify_tests =
  let protocols =
    [ ("bfs-sync", Wb_protocols.Bfs_sync.protocol, Problems.Bfs);
      ("bfs-bipartite", Wb_protocols.Bfs_bipartite_async.protocol, Problems.Bfs);
      ("mis", Wb_protocols.Mis_simsync.protocol ~root:0, Problems.Rooted_mis 0);
      ("build-naive", Wb_protocols.Build_naive.protocol, Problems.Build) ]
  in
  let arb_instance =
    QCheck.make
      ~print:(fun (n, seed) -> Printf.sprintf "n=%d seed=%d" n seed)
      QCheck.Gen.(pair (2 -- 5) (0 -- 9999))
  in
  [ QCheck_alcotest.to_alcotest
      ~rand:(Random.State.make [| verify_seed |])
      (QCheck.Test.make ~name:"verify agrees with enumeration on random graphs" ~count:trait_count
         arb_instance (fun (n, seed) ->
           let g = G.Gen.random_gnp (Wb_support.Prng.create seed) n 0.5 in
           List.for_all
             (fun (name, protocol, problem) ->
               let chk (r : Engine.run) =
                 match r.Engine.outcome with
                 | Engine.Success a -> Problems.valid_answer problem g a
                 | _ -> false
               in
               match
                 ( Engine.verify_packed (Protocol.opaque protocol) g chk,
                   Engine.verify_packed protocol g chk )
               with
               | Ok e, Ok v ->
                 let verdicts = e.Engine.valid = v.Engine.valid in
                 let shrinks = (not v.Engine.dedup) || v.Engine.finals <= e.Engine.finals in
                 if not (verdicts && shrinks) then
                   QCheck.Test.fail_reportf
                     "%s: enumeration (%b, %d) vs verify (%b, %d+%d dedup=%b)" name e.Engine.valid
                     e.Engine.finals v.Engine.valid v.Engine.states v.Engine.finals v.Engine.dedup;
                 true
               | Error (`Limit _), Error (`Limit _) -> true
               | Ok _, Error _ | Error _, Ok _ ->
                 QCheck.Test.fail_reportf "%s: limit behaviour diverged" name)
             protocols));
    Alcotest.test_case "verify is jobs-independent (steals aside)" `Quick (fun () ->
        let g = G.Gen.complete 6 in
        let chk (r : Engine.run) =
          match r.Engine.outcome with
          | Engine.Success a -> Problems.valid_answer Problems.Build g a
          | _ -> false
        in
        let strip (v : Engine.verification) = { v with Engine.steals = 0 } in
        match Engine.verify_packed ~jobs:1 Wb_protocols.Build_naive.protocol g chk with
        | Error (`Limit _) -> Alcotest.fail "unexpected limit"
        | Ok v1 ->
          check "dedup ran" true v1.Engine.dedup;
          check "nonzero symmetry" true (v1.Engine.group_order > 1);
          List.iter
            (fun jobs ->
              match Engine.verify_packed ~jobs Wb_protocols.Build_naive.protocol g chk with
              | Error (`Limit _) -> Alcotest.fail "unexpected limit"
              | Ok v -> check (Printf.sprintf "jobs=%d" jobs) true (strip v = strip v1))
            [ 2; 3 ]);
    Alcotest.test_case "verify limit is a typed error" `Quick (fun () ->
        let g = G.Gen.complete 6 in
        match Engine.verify_packed ~limit:3 Wb_protocols.Build_naive.protocol g (fun _ -> true)
        with
        | Error (`Limit _) -> ()
        | Ok _ -> Alcotest.fail "expected Error (`Limit _)");
    Alcotest.test_case "opaque protocols fall back to enumeration" `Quick (fun () ->
        let module P = Probe (struct
          let model = Model.Sim_async

          let activate_when _ _ = true
        end) in
        match Engine.verify_packed (module P : Protocol.S) (G.Gen.complete 4) (fun _ -> true) with
        | Ok v ->
          check "fallback flagged" false v.Engine.dedup;
          check "verdict" true v.Engine.valid;
          Alcotest.(check int) "execution count" 24 v.Engine.finals
        | Error _ -> Alcotest.fail "unexpected limit");
    (* Enumeration on the parallel walker against the list specification's
       every-schedule enumeration (Test_kernel.enumeration_mismatch): the
       same multiset of runs and the same verdict at one job and at three,
       in every model. *)
    QCheck_alcotest.to_alcotest
      ~rand:(Random.State.make [| verify_seed |])
      (QCheck.Test.make ~name:"enumeration agrees with the spec across all four models"
         ~count:spec_count arb_instance (fun (n, seed) ->
           List.for_all
             (fun model ->
               let module P = Probe (struct
                 let model = model

                 let activate_when view board = Board.length board * 2 >= View.id view
               end) in
               let g = G.Gen.random_gnp (Wb_support.Prng.create seed) n 0.5 in
               let p = (module P : Protocol.S) in
               match Test_kernel.(enumeration_mismatch ~spec:(spec_runs p g) p g) with
               | None -> true
               | Some m -> QCheck.Test.fail_reportf "%s: %s" (Model.name model) m)
             [ Model.Sim_async; Model.Sim_sync; Model.Async; Model.Sync ]));
    Alcotest.test_case "enumeration count and verdict are independent of jobs" `Quick (fun () ->
        let module Clique = Probe (struct
          let model = Model.Sim_async

          let activate_when _ _ = true
        end) in
        (* One candidate per choice point: a single execution, whose last
           pick completes it. *)
        let module Chain = Probe (struct
          let model = Model.Async

          let activate_when view board = Board.length board >= View.id view
        end) in
        let eob = G.Gen.random_eob (Wb_support.Prng.create 3) 8 0.4 in
        let valid_eob (r : Engine.run) =
          match r.Engine.outcome with
          | Engine.Success a -> Problems.valid_answer Problems.Eob_bfs eob a
          | _ -> false
        in
        List.iter
          (fun (name, protocol, g, chk, executions) ->
            List.iter
              (fun jobs ->
                match Engine.verify_packed ~jobs protocol g chk with
                | Error (`Limit _) -> Alcotest.fail "unexpected limit"
                | Ok v ->
                  let label = Printf.sprintf "%s jobs=%d" name jobs in
                  check (label ^ " valid") true v.Engine.valid;
                  check (label ^ " enumerated") false v.Engine.dedup;
                  Alcotest.(check int) (label ^ " finals") executions v.Engine.finals)
              [ 1; 2; 4 ])
          [ ("probe/K5", (module Clique : Protocol.S), G.Gen.complete 5, (fun _ -> true), 120);
            ("chain/K8", (module Chain : Protocol.S), G.Gen.complete 8, (fun _ -> true), 1);
            ("eob-bfs", Wb_protocols.Eob_bfs_async.protocol, eob, valid_eob, 2) ]);
    Alcotest.test_case "a raising check stops every worker" `Quick (fun () ->
        (* The sixth check raises inside a worker; the call must re-raise it
           once every domain has stopped, not spin on the unfinished item. *)
        let raising () =
          let calls = Atomic.make 0 in
          fun (_ : Engine.run) -> if Atomic.fetch_and_add calls 1 = 5 then raise Exit else true
        in
        let module Clique = Probe (struct
          let model = Model.Sim_async

          let activate_when _ _ = true
        end) in
        List.iter
          (fun (name, protocol, g) ->
            Alcotest.check_raises name Exit (fun () ->
                ignore (Engine.verify_packed ~jobs:4 protocol g (raising ()))))
          [ ("opaque", (module Clique : Protocol.S), G.Gen.complete 5);
            ("canonical", Wb_protocols.Bfs_sync.protocol, G.Gen.complete 6) ]) ]

let suites =
  [ ("model.message-timing", message_timing_tests);
    ("model.lifecycle", lifecycle_tests);
    ("model.explore", explore_tests);
    ("model.digest", digest_tests);
    ("model.kill", kill_tests);
    ("model.verify", verify_tests);
    ("model.board", board_tests);
    ("model.adversary", adversary_tests);
    ("model.meta", model_meta_tests);
    ("model.problems", problems_tests) ]
