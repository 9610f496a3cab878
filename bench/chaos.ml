(* Chaos campaigns as a deterministic record: each instance runs a full
   fault-injection campaign — seeded faulted loopback sessions, each
   crash-replayed and differentially checked — and its row reports fault
   totals and the survivor rate.  A differential mismatch aborts the
   suite.  [seed] is the campaign master seed (default 7), so two
   same-seed runs inject the identical fault schedule and write identical
   rows; [fast] trims the plan matrix to the default plan. *)

module M = Wb_model
module G = Wb_graph
module C = Wb_chaos
module J = Wb_obs.Json
module R = Wb_protocols.Registry
module Prng = Wb_support.Prng

let instance ~key ~graph ~graph_desc =
  match R.find key with
  | None -> failwith ("unknown protocol " ^ key)
  | Some e ->
    { C.Campaign.key;
      protocol = e.R.protocol;
      graph;
      graph_desc;
      adversary_name = "random";
      make_adversary = (fun ~seed -> M.Adversary.random (Prng.create seed));
      max_rounds = None }

let campaign rep ~seed ~runs ~plan inst =
  let report = C.Campaign.run ~seed ~runs ~plan inst in
  let s = C.Campaign.summarize report in
  let name = Printf.sprintf "%s/%s" inst.C.Campaign.key plan.C.Plan.name in
  if s.C.Campaign.mismatched > 0 then
    failwith (Printf.sprintf "%s: %d differential mismatch(es)" name s.C.Campaign.mismatched);
  Printf.printf "%-28s %3d runs  %4d faults  %3d survived  %3d dead\n" name s.C.Campaign.total
    s.C.Campaign.injected_total s.C.Campaign.survived s.C.Campaign.dead_nodes;
  Report.add_row rep ~name
    [ ("n", J.Int (G.Graph.n inst.C.Campaign.graph));
      ("runs", J.Int s.C.Campaign.total);
      ("faulted", J.Int s.C.Campaign.faulted);
      ("injected", J.Int s.C.Campaign.injected_total);
      ("survived", J.Int s.C.Campaign.survived);
      ("dead_nodes", J.Int s.C.Campaign.dead_nodes);
      ("survivor_rate", J.Float (C.Campaign.survivor_rate report)) ]

let run ?(seed = 7) ?(fast = false) ?out () =
  print_endline "Chaos campaigns (faulted loopback runs, crash-replay differential per run)";
  let rep = Report.create ~bench:"chaos" ~seed ~fast () in
  let runs = if fast then 8 else 32 in
  let rng = Prng.create seed in
  let four =
    [ instance ~key:"bfs" ~graph:(G.Gen.grid 4 4) ~graph_desc:"grid";
      instance ~key:"mis" ~graph:(G.Gen.cycle 12) ~graph_desc:"cycle";
      instance ~key:"build-naive" ~graph:(G.Gen.random_gnp (Prng.split rng) 10 0.3)
        ~graph_desc:"gnp";
      instance ~key:"eob-bfs" ~graph:(G.Gen.random_eob (Prng.split rng) 12 0.3) ~graph_desc:"eob" ]
  in
  List.iter (fun inst -> campaign rep ~seed ~runs ~plan:C.Plan.default inst) four;
  if not fast then begin
    let bfs = List.hd four in
    campaign rep ~seed ~runs ~plan:C.Plan.drop_heavy bfs;
    campaign rep ~seed ~runs ~plan:C.Plan.wire_garbage bfs;
    campaign rep ~seed ~runs ~plan:(C.Plan.disconnect ~round:2) bfs
  end;
  Report.write ?out rep
