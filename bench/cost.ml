(* The communication-cost observatory sweep: every registry protocol runs
   on a promise-satisfying instance at several sizes, and its measured
   worst message is checked against the entry's certificate — measured <=
   envelope always, measured >= Lemma 3 floor where the entry declares one.
   `wbctl bench cost` and `wbctl cost` share [sweep]; both fail on any
   violation, after the whole table is printed. *)

module P = Wb_model
module G = Wb_graph
module Reg = Wb_protocols.Registry
module Cost = Wb_obs.Cost
module J = Wb_obs.Json

type row = {
  key : string;
  graph_n : int;  (* actual instance size: 2*(n/2) for two-cliques entries *)
  rounds : int;
  total_bits : int;
  verdict : Cost.verdict;
}

(* min_id keeps the sweep deterministic; every registry protocol succeeds
   under every schedule on promise-respecting instances, so the adversary
   choice only picks which of the equally-bounded runs we measure. *)
let measure (e : Reg.entry) ~seed ~n =
  let g = Reg.sweep_graph e ~seed ~n in
  let gn = G.Graph.n g in
  let run = P.Engine.run_packed e.Reg.protocol g P.Adversary.min_id in
  (match run.P.Engine.outcome with
  | P.Engine.Success _ -> ()
  | o ->
    failwith
      (Printf.sprintf "cost sweep: %s failed at n=%d (%s)" e.Reg.key gn (P.Engine.outcome_tag o)));
  { key = e.Reg.key;
    graph_n = gn;
    rounds = run.P.Engine.stats.rounds;
    total_bits = run.P.Engine.stats.total_bits;
    verdict = Cost.check e.Reg.certificate ~n:gn ~measured:run.P.Engine.stats.max_message_bits }

let row_fields r =
  [ ("n", J.Int r.graph_n);
    ("measured_bits", J.Int r.verdict.Cost.measured);
    ("envelope_bits", J.Int r.verdict.Cost.envelope_bits);
    ("floor_bits", J.Int (match r.verdict.Cost.floor_bits with Some f -> f | None -> 0));
    ("rounds", J.Int r.rounds);
    ("total_bits", J.Int r.total_bits);
    ("envelope_ok", J.Bool r.verdict.Cost.envelope_ok);
    ("floor_ok", J.Bool r.verdict.Cost.floor_ok) ]

let print_header () =
  Printf.printf "%-26s %6s %9s %9s %7s %11s  %s\n" "protocol" "n" "measured" "envelope" "floor"
    "total" "ok"

let print_row r =
  Printf.printf "%-26s %6d %9d %9d %7s %11d  %s\n" r.key r.graph_n r.verdict.Cost.measured
    r.verdict.Cost.envelope_bits
    (match r.verdict.Cost.floor_bits with Some f -> string_of_int f | None -> "-")
    r.total_bits
    (if Cost.verdict_ok r.verdict then "ok" else "VIOLATION")

(* Measure [entries] at every size in [ns], printing the verdict table;
   returns the report and the number of certificate violations. *)
let sweep ?(entries = Reg.all ()) ~seed ~fast ~ns () =
  print_endline "Communication-cost certificates: measured vs envelope vs Lemma 3 floor";
  let rep =
    Report.create ~bench:"cost" ~seed ~fast
      ~params:[ ("ns", J.List (List.map (fun n -> J.Int n) ns)) ]
      ()
  in
  print_header ();
  let violations = ref 0 in
  List.iter
    (fun (e : Reg.entry) ->
      List.iter
        (fun n ->
          let r = measure e ~seed ~n in
          print_row r;
          Report.add_row rep ~name:(Printf.sprintf "%s/n=%d" r.key r.graph_n) (row_fields r);
          if not (Cost.verdict_ok r.verdict) then incr violations)
        ns)
    entries;
  (rep, !violations)

let fail_on_violations = function
  | 0 -> ()
  | k -> failwith (Printf.sprintf "cost sweep: %d certificate violation(s)" k)

let run ?(seed = 2012) ?(fast = false) ?out () =
  let rep, violations = sweep ~seed ~fast ~ns:(if fast then [ 16; 64 ] else [ 16; 64; 256 ]) () in
  Report.write ?out rep;
  fail_on_violations violations
