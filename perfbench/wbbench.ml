(* The repository benchmark: one closed-loop client, one domain, one
   workload per invocation.

     wbbench.exe --workload run|verify|session --seed N --seconds T --trace 0|1

   With [--trace 0] it prints the end-to-end metrics of an untraced run;
   with [--trace 1] the per-layer metrics of a traced run (see NOTES.md).
   The last line of standard output is one JSON object
   {"correct", "attempted", "failed", "metrics"}; a human summary goes to
   standard error. *)

open Perfbench
module W = Workloads
module T = Tracer

let warmup_ops = 3
let setup_reps = 9
let blocks = 24
let min_ops = 216
let pool_ops = 72 (* p75 then has 18 samples beyond it. *)

(* ---- statistics -------------------------------------------------------- *)

(* Linear interpolation between order statistics (numpy's default). *)
let quantile q xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float pos in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((pos -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile 0.5 xs
let ms ns = float_of_int ns /. 1e6
let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* ---- output ------------------------------------------------------------ *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else failwith "non-finite metric value"

let print_result ~correct ~attempted ~failed metrics =
  let fields =
    List.map
      (fun { name; value; unit_ } ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number value) unit_)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (String.concat ", " fields)

let summary metrics =
  List.iter (fun { name; value; unit_ } -> Printf.eprintf "  %-34s %14.4f %s\n" name value unit_) metrics

(* ---- ops ---------------------------------------------------------------- *)

type tally = { mutable attempted : int; mutable failed : int }

(* Run one op through [f] (which times it), then its output check, outside
   the timing.  An op that raises or fails its check counts as failed and
   the run carries on. *)
let checked tally f =
  tally.attempted <- tally.attempted + 1;
  match f () with
  | (r : W.result) ->
    if not (try r.check () with _ -> false) then tally.failed <- tally.failed + 1;
    Some r
  | exception e ->
    Printf.eprintf "op raised: %s\n%!" (Printexc.to_string e);
    tally.failed <- tally.failed + 1;
    None

let timed_op (w : W.t) i =
  let t0 = T.now_ns () in
  let r = w.op i in
  (r, T.now_ns () - t0)

(* Counts summed over the warm-up ops, which every run performs
   identically for a given seed. *)
let add_counts acc (r : W.result) =
  List.fold_left
    (fun acc (k, v) ->
      let prev = try List.assoc k acc with Not_found -> 0 in
      (k, prev + v) :: List.remove_assoc k acc)
    acc (r.counts ())

(* ---- untraced run: end-to-end metrics ----------------------------------- *)

let setup tally ~name ~seed =
  let t0 = T.now_ns () in
  let w = W.make name ~traced:false ~seed in
  let counts = ref [] in
  for i = 0 to warmup_ops - 1 do
    Option.iter (fun r -> counts := add_counts !counts r) (checked tally (fun () -> w.op i))
  done;
  (w, !counts, T.now_ns () - t0)

let heap_peak_mb () =
  float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8)) /. 1e6

type block = {
  mutable attempts : int;
  mutable lat : float list;
  mutable ops : int;
  mutable op_ns : int;
  mutable work : int;
}

(* One block of consecutive ops: they run until [seconds] have passed and
   the block holds a whole number of warm-up cycles, so that blocks of
   [verify] carry the same instance mix. *)
let run_block tally (w : W.t) next ~seconds =
  let b = { attempts = 0; lat = []; ops = 0; op_ns = 0; work = 0 } in
  let deadline = T.now_ns () + int_of_float (seconds *. 1e9) in
  while T.now_ns () < deadline || b.attempts = 0 || b.attempts mod warmup_ops <> 0 do
    let i = !next in
    incr next;
    b.attempts <- b.attempts + 1;
    ignore
      (checked tally (fun () ->
           let r, ns = timed_op w i in
           b.lat <- ms ns :: b.lat;
           b.ops <- b.ops + 1;
           b.op_ns <- b.op_ns + ns;
           b.work <- b.work + r.work;
           r))
  done;
  b

let mean_ms b = if b.ops = 0 then infinity else ms b.op_ns /. float_of_int b.ops

(* The timed window is cut into blocks of about a second, and every
   end-to-end timing is computed over the quietest blocks, those with the
   lowest mean op time, pooled until they hold [pool_ops] samples.  Other
   tenants of a shared machine slow a run by up to 1.8x in bursts from a
   second to a minute long (NOTES.md).  Interference only ever adds time,
   so the quietest seconds of a run are the steadiest estimate of the
   program's own speed, while a slower program is slower in every block.
   The window extends past [seconds] until [min_ops] ops have run, so the
   pool is at most about a third of the run. *)
let untraced ~name ~seed ~seconds =
  let tally = { attempted = 0; failed = 0 } in
  let setups = List.init setup_reps (fun _ -> setup tally ~name ~seed) in
  let w, counts, _ = List.nth setups (setup_reps - 1) in
  (* Set-up time is the median of the quieter half of the set-ups, for the
     same reason the op timings use the quietest blocks. *)
  let setup_s =
    let times = List.sort compare (List.map (fun (_, _, ns) -> float_of_int ns /. 1e9) setups) in
    median (List.filteri (fun k _ -> k <= setup_reps / 2) times)
  in
  let next = ref warmup_ops in
  let bs = ref [] and attempts = ref 0 in
  while List.length !bs < blocks || !attempts < min_ops do
    let b = run_block tally w next ~seconds:(seconds /. float_of_int blocks) in
    bs := b :: !bs;
    attempts := !attempts + b.attempts
  done;
  let bs = List.rev !bs in
  let rec pool acc n = function
    | b :: rest when n < pool_ops -> pool (b :: acc) (n + b.ops) rest
    | _ -> acc
  in
  let quiet = pool [] 0 (List.sort (fun a b -> compare (mean_ms a) (mean_ms b)) bs) in
  let sum f = List.fold_left (fun acc b -> acc + f b) 0 quiet in
  let lat = List.concat_map (fun b -> b.lat) quiet in
  let window_s = float_of_int (sum (fun b -> b.op_ns)) /. 1e9 in
  let metrics =
    [ m "setup_s" "s" setup_s;
      m "ops_per_s" "1/s" (float_of_int (sum (fun b -> b.ops)) /. window_s);
      m "op_p50_ms" "ms" (median lat);
      m "op_p75_ms" "ms" (quantile 0.75 lat);
      m "work_per_s" "1/s" (float_of_int (sum (fun b -> b.work)) /. window_s);
      m "heap_peak_mb" "MB" (heap_peak_mb ()) ]
  in
  Printf.eprintf "%s seed %d: %d blocks, mean op ms %s; %d samples pooled from the %d quietest (%.2f s of op time); work = %s\n"
    name seed (List.length bs)
    (String.concat " " (List.map (fun b -> Printf.sprintf "%.1f" (mean_ms b)) bs))
    (List.length lat) (List.length quiet) window_s w.work_unit;
  Printf.eprintf "  op_fail_ratio %d/%d; counts over %d warm-up ops: %s\n" tally.failed
    tally.attempted warmup_ops
    (String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) (List.rev counts)));
  summary metrics;
  (tally, true, metrics)

(* ---- traced run: per-layer metrics -------------------------------------- *)

(* Median over [reps] calls of [f], in nanoseconds. *)
let median_ns reps f =
  median
    (List.init reps (fun _ ->
         let t0 = T.now_ns () in
         ignore (Sys.opaque_identity (f ()));
         float_of_int (T.now_ns () - t0)))

(* Kernel self time per write, in microseconds, on BUILD over an n-node
   tree: the per-write cost curve. *)
let us_per_write ~seed n =
  let w = W.run_on ~traced:true ~seed n in
  median
    (List.init 7 (fun i ->
         let (r : W.result), agg, _ = T.op (fun () -> w.op i) in
         float_of_int (T.self_ns agg Op) /. 1e3 /. float_of_int r.work))

let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  int_of_float (minor +. major -. promoted)

(* Fixed per-call costs the verifier pays inside its kernel share: the
   visited table, and the automorphism search on the symmetric instances. *)
let verify_fixed_costs (w : W.t) =
  let table_ms = median_ns 7 (fun () -> Wb_support.Cset.create ~limit:250_000 ()) /. 1e6 in
  let auto =
    List.filter_map
      (fun (g, (module P : Wb_model.Protocol.S)) ->
        if not (P.traits.confluent g) then None
        else
          Option.map
            (fun fixed_of ->
              median_ns 7 (fun () -> Wb_graph.Auto.automorphisms ~fixed:(fixed_of g) g) /. 1e6)
            P.traits.symmetry_fixed)
      w.graphs
  in
  (table_ms, if auto = [] then 0. else List.fold_left ( +. ) 0. auto /. float_of_int (List.length auto))

let traced ~name ~seed ~seconds =
  let tally = { attempted = 0; failed = 0 } in
  let w = W.make name ~traced:true ~seed in
  let plain = W.make name ~traced:false ~seed in
  (* Warm-up ops, traced: their counts are the run's count metrics. *)
  let counts = ref [] and warm = T.fresh_agg () in
  for i = 0 to warmup_ops - 1 do
    Option.iter
      (fun r -> counts := add_counts !counts r)
      (checked tally (fun () ->
           let r, agg, _ = T.op (fun () -> w.op i) in
           T.add_agg warm agg;
           r))
  done;
  let count k = float_of_int (try List.assoc k !counts with Not_found -> 0) in
  let total = T.fresh_agg () in
  let traced_ms = ref [] and plain_ms = ref [] in
  let ops = ref 0 and work = ref 0 and op_words = ref 0 and codec_ns = ref 0 in
  let worst_sum_err = ref 0. and layers_ok = ref true in
  let deadline = T.now_ns () + int_of_float (seconds *. 1e9) in
  let i = ref warmup_ops in
  while T.now_ns () < deadline || !i < warmup_ops + 10 do
    (* One traced op, then the same op untraced, so the tracing overhead is
       a paired comparison under the same conditions. *)
    ignore
      (checked tally (fun () ->
           let w0 = alloc_words () in
           let t0 = T.now_ns () in
           let r, agg, nested = T.op (fun () -> w.op !i) in
           let wall = T.now_ns () - t0 in
           op_words := !op_words + alloc_words () - w0;
           (* Layer-sum check: the layers' self times must add up to the
              op's wall time, measured from outside the recorder. *)
           let err = Float.abs (float_of_int (T.self_sum_ns agg - wall)) /. float_of_int wall in
           worst_sum_err := Float.max !worst_sum_err err;
           if err > 0.05 || not nested then layers_ok := false;
           traced_ms := ms wall :: !traced_ms;
           incr ops;
           work := !work + r.work;
           T.add_agg total agg;
           codec_ns := !codec_ns + r.codec_ns ();
           r));
    ignore
      (checked tally (fun () ->
           let r, ns = timed_op plain !i in
           plain_ms := ms ns :: !plain_ms;
           r));
    incr i
  done;
  let nops = float_of_int !ops and work = float_of_int !work in
  let per_op ns = ms ns /. nops in
  let op_total = T.total_ns total Op and core_self = T.self_ns total Op in
  let conn_total = T.total_ns total Conn in
  (* Allocation inside the op that no child span accounts for. *)
  let core_words =
    float_of_int (!op_words - (Array.fold_left ( + ) 0 total.self_words - T.self_words total Op))
  in
  let is = ( = ) name in
  let only cond v = if cond then v else 0. in
  let curve =
    List.map
      (fun n -> (n, if is "run" then us_per_write ~seed n else 0.))
      [ 250; 500; 1000; 2000 ]
  in
  let table_ms, auto_ms = if is "verify" then verify_fixed_costs w else (0., 0.) in
  let dedup_ratio =
    let hits = count "core.dedup_hits" in
    only (is "verify") (hits /. (hits +. count "core.states" +. count "core.finals"))
  in
  (* [work] is node writes (run), configurations (verify) or RPCs (session). *)
  let metrics =
    [ m "core.self_ms_per_op" "ms" (per_op core_self);
      m "core.share" "ratio" (ratio core_self op_total);
      m "net.share" "ratio" (ratio conn_total op_total);
      m "core.alloc_words_per_write" "words" (only (is "run") (core_words /. work));
      m "core.us_per_write.n250" "us" (List.assoc 250 curve);
      m "core.us_per_write.n500" "us" (List.assoc 500 curve);
      m "core.us_per_write.n1000" "us" (List.assoc 1000 curve);
      m "core.us_per_write.n2000" "us" (List.assoc 2000 curve);
      m "core.slope" "ratio" (only (is "run") (List.assoc 2000 curve /. List.assoc 250 curve));
      m "protocols.compose_ms_per_op" "ms" (per_op (T.total_ns total Compose));
      m "protocols.output_ms_per_op" "ms" (per_op (T.total_ns total Output));
      m "protocols.activate_ms_per_op" "ms" (per_op (T.total_ns total Activate));
      m "protocols.activate_calls" "count" (float_of_int (T.calls warm Activate));
      m "protocols.compose_calls" "count" (float_of_int (T.calls warm Compose));
      m "core.writes" "count" (count "core.writes");
      m "core.rounds" "count" (count "core.rounds");
      m "core.us_per_config" "us" (only (is "verify") (float_of_int core_self /. 1e3 /. work));
      m "core.alloc_words_per_config" "words" (only (is "verify") (core_words /. work));
      m "support.table_ms" "ms" table_ms;
      m "graph.auto_ms" "ms" auto_ms;
      m "core.dedup_ratio" "ratio" dedup_ratio;
      m "core.states" "count" (count "core.states");
      m "core.finals" "count" (count "core.finals");
      m "core.dedup_hits" "count" (count "core.dedup_hits");
      m "core.orbit_collapses" "count" (count "core.orbit_collapses");
      m "core.fallback_executions" "count" (count "core.fallback_executions");
      m "net.conn_ms_per_op" "ms" (per_op conn_total);
      m "net.client_self_ms_per_op" "ms" (per_op (T.self_ns total Conn));
      m "net.codec_ms_per_op" "ms" (per_op !codec_ns);
      m "core.referee_self_ms_per_op" "ms" (only (is "session") (per_op core_self));
      m "net.wire_bits_per_board_bit" "ratio"
        (only (is "session") (8. *. count "net.wire_bytes" /. count "net.board_bits"));
      m "net.frames" "count" (count "net.frames");
      m "net.rpcs" "count" (count "net.rpcs");
      m "net.wire_bytes" "count" (count "net.wire_bytes");
      m "net.delta_msgs" "count" (count "net.delta_msgs");
      m "net.alloc_words_per_rpc" "words"
        (only (is "session") (float_of_int (T.total_words total Conn) /. work));
      m "untraced.op_p90_ms" "ms" (quantile 0.9 !plain_ms);
      m "trace_overhead_pct" "%" (100. *. ((median !traced_ms /. median !plain_ms) -. 1.));
      m "layer_sum_error_pct" "%" (100. *. !worst_sum_err);
      m "op_fail_ratio" "ratio" (ratio tally.failed tally.attempted) ]
  in
  Printf.eprintf "%s seed %d traced: %d traced + %d untraced ops, layer sums %s (worst %.3f%%)\n"
    name seed !ops (List.length !plain_ms)
    (if !layers_ok then "ok" else "FAILED")
    (100. *. !worst_sum_err);
  summary metrics;
  (tally, !layers_ok, metrics)

(* ---- command line -------------------------------------------------------- *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let spec =
    [ ("--workload", Arg.Set_string workload, " run | verify | session");
      ("--seed", Arg.Set_int seed, " workload seed");
      ("--seconds", Arg.Set_float seconds, " measurement window");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics, 1: per-layer metrics") ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "wbbench.exe [options]";
  if not (List.mem !workload W.names) then begin
    prerr_endline ("wbbench: --workload must be one of " ^ String.concat ", " W.names);
    exit 2
  end;
  let name = !workload and seed = !seed and seconds = !seconds in
  let tally, layers_ok, metrics =
    if !trace = 1 then traced ~name ~seed ~seconds else untraced ~name ~seed ~seconds
  in
  print_result ~correct:(tally.failed = 0 && layers_ok) ~attempted:tally.attempted
    ~failed:tally.failed metrics
