(* The three workloads.  Each is built from the workload seed alone (graph
   generation and protocol lookup happen here, in set-up) and exposes one
   operation, numbered from 0.  Op [i] draws its adversary from
   [(seed, i)], so two runs with the same seed perform identical ops. *)

module M = Wb_model
module G = Wb_graph
module S = Wb_support
module Registry = Wb_protocols.Registry
module Metrics = Wb_obs.Metrics

type result = {
  work : int;  (** units of work this op completed (see [work_unit]). *)
  check : unit -> bool;  (** the op's output check, run outside its timing. *)
  counts : unit -> (string * int) list;
      (** deterministic counts of this op, read outside its timing. *)
  codec_ns : unit -> int;  (** codec replay on the op's frames (traced session only). *)
}

type t = {
  work_unit : string;
  op : int -> result;
  graphs : (G.Graph.t * M.Protocol.t) list;
      (** the instances, for the fixed per-call layer costs. *)
}

let entry key =
  match Registry.find key with
  | Some e -> e
  | None -> failwith ("protocol not in the registry: " ^ key)

let op_prng ~seed i = S.Prng.create ((seed * 1_000_003) + i + 1)
let adversary ~seed i = M.Adversary.random (op_prng ~seed i)
let protocol_of ~traced (e : Registry.entry) =
  if traced then Layers.timed_protocol e.protocol else e.protocol

let valid problem g (r : M.Engine.run) =
  match r.outcome with
  | M.Engine.Success a -> M.Problems.valid_answer problem g a
  | _ -> false

let no_codec () = 0

(* ---- run: one SIMASYNC execution of BUILD on a 2000-node tree ---------- *)

let run_n = 2000

let run_on ~traced ~seed n =
  let e = entry "build-forest" in
  let protocol = protocol_of ~traced e in
  let g = G.Gen.random_tree (S.Prng.create seed) n in
  let problem = e.problem n in
  let op i =
    let r = M.Engine.run_packed protocol g (adversary ~seed i) in
    { work = Array.length r.writes;
      check = (fun () -> valid problem g r);
      counts =
        (fun () ->
          [ ("core.writes", Array.length r.writes);
            ("core.rounds", r.stats.rounds);
            ("protocols.compose_calls", Array.fold_left ( + ) 0 r.compose_count) ]);
      codec_ns = no_codec }
  in
  { work_unit = "node writes"; op; graphs = [ (g, protocol) ] }

let run ~traced ~seed = run_on ~traced ~seed run_n

(* ---- verify: exhaustive Engine.verify, cycling three instances --------- *)

type instance = {
  key : string;
  graph : G.Graph.t;
  expect : int * int;  (** pinned (states, finals); finals = executions in fallback. *)
  dedup : bool;  (** canonical mode expected ([false]: enumerative fallback). *)
}

(* The 13-node tree is one fixed shape under a seeded relabelling: random
   13-node trees range from 2975 to 8191 states depending on shape, which
   would swamp any code change across seeds, while BUILD for forests
   declares full symmetry, so the counts are invariant under relabelling.
   C11 is fixed; the fallback always enumerates 7! schedules of a seeded
   2-tree.  NOTES.md gives the op times. *)
let verify_instances ~seed =
  let prng = S.Prng.create seed in
  let shape = G.Gen.random_tree (S.Prng.create 5) 13 in
  let tree = G.Graph.relabel shape (S.Perm.random prng (G.Graph.n shape)) in
  let ktree = G.Gen.random_ktree prng 7 ~k:2 in
  [| { key = "build-forest"; graph = tree; expect = (4991, 12); dedup = true };
     { key = "mis"; graph = G.Gen.cycle 11; expect = (5173, 79); dedup = true };
     { key = "build-2-degenerate"; graph = ktree; expect = (0, 5040); dedup = false } |]

let verify ~traced ~seed =
  let instances = verify_instances ~seed in
  let prepared =
    Array.map
      (fun inst ->
        let e = entry inst.key in
        let n = G.Graph.n inst.graph in
        (inst, protocol_of ~traced e, e.problem n))
      instances
  in
  let op i =
    let inst, protocol, problem = prepared.(i mod Array.length prepared) in
    let g = inst.graph in
    let outcome = M.Engine.verify_packed ~jobs:1 protocol g (valid problem g) in
    match outcome with
    | Error (`Limit l) ->
      { work = 0;
        check = (fun () -> false);
        counts = (fun () -> [ ("verify.limit", l) ]);
        codec_ns = no_codec }
    | Ok v ->
      let fallback = if v.dedup then 0 else v.finals in
      { work = v.states + v.finals;
        check =
          (fun () ->
            v.valid && v.dedup = inst.dedup && (v.states, v.finals) = inst.expect);
        counts =
          (fun () ->
            [ ("core.states", v.states);
              ("core.finals", if v.dedup then v.finals else 0);
              ("core.dedup_hits", v.dedup_hits);
              ("core.orbit_collapses", v.orbit_collapses);
              ("core.fallback_executions", fallback) ]);
        codec_ns = no_codec }
  in
  { work_unit = "configurations (states + finals) or fallback executions";
    op;
    graphs = Array.to_list (Array.map (fun (inst, p, _) -> (inst.graph, p)) prepared) }

(* ---- session: one loopback referee session of SYNC BFS on a 10x10 grid - *)

let frames_sent = Wb_net.Conn.Metrics.frames_sent
let frames_received = Wb_net.Conn.Metrics.frames_received
let rpc_activate = Metrics.histogram "net.rpc.activate_us"
let rpc_compose = Metrics.histogram "net.rpc.compose_us"
let session_wire_bytes = Metrics.counter "net.session.wire_bytes"

let session ~traced ~seed =
  let e = entry "bfs" in
  let plain = e.protocol in
  let protocol = protocol_of ~traced e in
  let g = G.Gen.grid 10 10 in
  let n = G.Graph.n g in
  let problem = e.problem n in
  let op i =
    let before =
      ( Metrics.counter_value frames_sent + Metrics.counter_value frames_received,
        Metrics.histogram_count rpc_activate + Metrics.histogram_count rpc_compose,
        Metrics.counter_value session_wire_bytes )
    in
    let cap = Layers.fresh_capture () in
    let wrap = if traced then Some (Layers.timed_conn cap) else None in
    let res = Wb_net.Remote.run_loopback ?wrap ~protocol g (adversary ~seed i) in
    let after =
      ( Metrics.counter_value frames_sent + Metrics.counter_value frames_received,
        Metrics.histogram_count rpc_activate + Metrics.histogram_count rpc_compose,
        Metrics.counter_value session_wire_bytes )
    in
    let r = res.run in
    let (f0, r0, b0), (f1, r1, b1) = (before, after) in
    { work = r1 - r0;
      check =
        (fun () ->
          res.faults = []
          && valid problem g r
          && Wb_net.Remote.diff_runs r (M.Engine.run_packed plain g (adversary ~seed i)) = []);
      counts =
        (fun () ->
          let common = [ ("core.writes", Array.length r.writes); ("core.rounds", r.stats.rounds) ] in
          if traced then
            common
            @ [ ("net.frames", cap.frames);
                ("net.rpcs", cap.rpcs);
                ("net.wire_bytes", Layers.wire_bytes cap);
                ("net.delta_msgs", cap.delta_msgs);
                ("net.board_bits", M.Board.total_bits r.board) ]
          else
            (* The untraced connections also carry the n handshake frames,
               which a wrapper installed after the handshake never sees. *)
            common
            @ [ ("net.frames", f1 - f0 - n);
                ("net.rpcs", r1 - r0);
                ("net.wire_bytes", b1 - b0);
                ("net.board_bits", M.Board.total_bits r.board) ]);
      codec_ns = (fun () -> if traced then Layers.replay_codec cap else 0) }
  in
  { work_unit = "activate + compose RPC round trips"; op; graphs = [ (g, protocol) ] }

let names = [ "run"; "verify"; "session" ]

let make name ~traced ~seed =
  match name with
  | "run" -> run ~traced ~seed
  | "verify" -> verify ~traced ~seed
  | "session" -> session ~traced ~seed
  | other -> invalid_arg ("unknown workload: " ^ other)
