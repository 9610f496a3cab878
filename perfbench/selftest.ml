(* Count self-check for the benchmark.  For every workload and two seeds it
   performs the warm-up ops four times — untraced twice, traced twice — and
   requires every count (writes, rounds, hook calls, states, finals, dedup
   hits, orbit collapses, fallback executions, frames, RPCs, wire bytes,
   delta messages) to repeat exactly, and every op to pass its output
   check.  Exits 1 on the first mismatch. *)

open Perfbench
module W = Workloads
module T = Tracer

let ops = 3

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("selftest: " ^ s); exit 1) fmt

let show counts = String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) counts)

(* Per-op counts; traced passes add the hook and connection call counts the
   span recorder saw. *)
let pass name ~seed ~traced =
  let w = W.make name ~traced ~seed in
  List.init ops (fun i ->
      let r, calls =
        if traced then
          let r, agg, nested = T.op (fun () -> w.op i) in
          if not nested then fail "%s op %d: overlapping spans" name i;
          ( r,
            [ ("trace.init_calls", T.calls agg Init);
              ("trace.activate_calls", T.calls agg Activate);
              ("trace.compose_calls", T.calls agg Compose);
              ("trace.output_calls", T.calls agg Output) ] )
        else (w.op i, [])
      in
      if not (r.check ()) then
        fail "%s seed %d op %d failed its output check (%s)" name seed i (show (r.counts ()));
      List.sort compare (r.counts () @ calls))

let same what a b =
  List.iteri
    (fun i (x, y) -> if x <> y then fail "%s differ at op %d:\n  %s\n  %s" what i (show x) (show y))
    (List.combine a b)

(* Every count an untraced op reports must read the same when traced. *)
let subsumed name untraced traced =
  List.iteri
    (fun i (u, t) ->
      List.iter
        (fun (k, v) ->
          match List.assoc_opt k t with
          | Some v' when v' = v -> ()
          | Some v' -> fail "%s op %d: %s is %d untraced but %d traced" name i k v v'
          | None -> fail "%s op %d: %s missing from the traced counts" name i k)
        u)
    (List.combine untraced traced)

(* The span recorder's hook counts against the kernel's and the wire's. *)
let cross name traced =
  List.iteri
    (fun i c ->
      let get k = try List.assoc k c with Not_found -> fail "%s op %d: no %s" name i k in
      match name with
      | "run" ->
        if get "trace.compose_calls" <> get "protocols.compose_calls" then
          fail "run op %d: traced compose calls differ from the kernel's" i
      | "session" ->
        if get "trace.compose_calls" + get "trace.activate_calls" <> get "net.rpcs" then
          fail "session op %d: client hook calls differ from the RPC count" i
      | _ -> ())
    traced

let () =
  List.iter
    (fun name ->
      List.iter
        (fun seed ->
          let u1 = pass name ~seed ~traced:false in
          let u2 = pass name ~seed ~traced:false in
          let t1 = pass name ~seed ~traced:true in
          let t2 = pass name ~seed ~traced:true in
          same (name ^ " untraced same-seed counts") u1 u2;
          same (name ^ " traced same-seed counts") t1 t2;
          subsumed name u1 t1;
          cross name t1;
          Printf.printf "selftest %s seed %d: %d ops, counts repeat (%s)\n%!" name seed ops
            (show (List.hd t1)))
        [ 1; 2 ])
    W.names
