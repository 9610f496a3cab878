(* Shared helpers for the table/figure suites: headings, the protocol
   validator, and the paper check that prints a row and fails the run. *)

module P = Wb_model
module G = Wb_graph
module J = Wb_obs.Json
module Prng = Wb_support.Prng

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let subsection title = Printf.printf "\n-- %s --\n" title

(* Common report fields for a completed engine run. *)
let run_fields (r : P.Engine.run) =
  [ ("outcome", J.String (P.Engine.outcome_tag r.P.Engine.outcome));
    ("rounds", J.Int r.P.Engine.stats.rounds);
    ("max_bits", J.Int r.P.Engine.stats.max_message_bits);
    ("total_bits", J.Int r.P.Engine.stats.total_bits) ]

(* Print a row ending in [ok] or [FAILED].  A false check raises once its
   row is out, the same way the other in-suite asserts do, so a broken
   claim fails `wbctl bench` instead of scrolling past. *)
let check ok fmt =
  Printf.ksprintf
    (fun line ->
      Printf.printf "%s[%s]\n%!" line (if ok then "ok" else "FAILED");
      if not ok then failwith ("paper check failed: " ^ String.trim line))
    fmt

(* Validate [protocol] for [problem] over a list of graphs: every graph is
   run under five adversary strategies ([seed] drives the random one), and
   under every schedule when n <= exhaustive_below ([verify] enumerating on
   one domain, so [validate] sees each execution once).  Returns (ok, runs,
   max bits seen). *)
let verify ~seed protocol problem graphs ~exhaustive_below =
  let runs = ref 0 in
  let max_bits = ref 0 in
  let ok = ref true in
  List.iter
    (fun g ->
      let problem = problem (G.Graph.n g) in
      let validate (r : P.Engine.run) =
        incr runs;
        max_bits := max !max_bits r.P.Engine.stats.max_message_bits;
        match r.P.Engine.outcome with
        | P.Engine.Success a -> P.Problems.valid_answer problem g a
        | P.Engine.Deadlock | P.Engine.Size_violation _ | P.Engine.Output_error _ -> false
      in
      let strategies =
        [ P.Adversary.min_id;
          P.Adversary.max_id;
          P.Adversary.alternating_extremes;
          P.Adversary.last_writer_neighbor_avoider g;
          P.Adversary.random (Prng.create seed) ]
      in
      List.iter
        (fun adv -> if not (validate (P.Engine.run_packed protocol g adv)) then ok := false)
        strategies;
      if G.Graph.n g <= exhaustive_below then begin
        match
          P.Engine.verify_packed ~limit:200_000 ~jobs:1 (P.Protocol.opaque protocol) g validate
        with
        | Ok v -> if not v.P.Engine.valid then ok := false
        | Error (`Limit limit) ->
          Printf.printf "  !! exploration exceeded %d executions\n" limit;
          ok := false
      end)
    graphs;
  (!ok, !runs, !max_bits)
