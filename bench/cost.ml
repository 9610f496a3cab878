(* The communication-cost observatory sweep: every registry protocol runs
   on a promise-satisfying instance at several sizes, and its measured
   worst message is checked against the entry's certificate — measured <=
   envelope always, measured >= Lemma 3 floor where the entry declares one.
   `wbctl bench cost` and `wbctl cost` share [sweep]; both fail on any
   violation, after the whole table is printed. *)

module P = Wb_model
module G = Wb_graph
module Reg = Wb_protocols.Registry
module Codec = Wb_protocols.Codec
module Counting = Wb_reductions.Counting
module Nat = Wb_bignum.Nat
module J = Wb_obs.Json

(* ---- theorem-bound certificates --------------------------------------- *)

type certificate = {
  form : string;
      (* The closed form, human-readable with explicit constants — what
         `wbctl protocols --costs` prints. *)
  envelope : n:int -> int;
      (* Max bits any single message may cost on an n-node instance. *)
  floor : Counting.graph_class option;
      (* The Lemma 3 class whose counting floor bounds every message from
         below, where the paper gives one: BUILD-style problems whose
         answer determines the input within the promise class. *)
}

type verdict = {
  n : int;
  measured : int;  (* max message bits observed on the instance *)
  envelope_bits : int;
  floor_bits : int option;
  envelope_ok : bool;  (* measured <= envelope_bits *)
  floor_ok : bool;  (* measured >= floor (vacuous without a floor) *)
}

let check cert ~n ~measured =
  let envelope_bits = cert.envelope ~n in
  let floor_bits = Option.map (fun cls -> Counting.min_message_bits cls n) cert.floor in
  { n;
    measured;
    envelope_bits;
    floor_bits;
    envelope_ok = measured <= envelope_bits;
    floor_ok = (match floor_bits with None -> true | Some fl -> measured >= fl) }

let verdict_ok v = v.envelope_ok && v.floor_ok

(* Envelopes.  Each is the paper bound restated independently of the
   protocol's [message_bound] — same arithmetic, second source — so a
   refactor that inflates an encoder breaks the certificate even if it
   also bumps the protocol's own cap. *)
let no_floor ~form envelope = { form; envelope; floor = None }

(* Trees are k-degenerate and split-k-degenerate for every k >= 1 (peel
   leaves), so Cayley's count floors every degenerate BUILD variant. *)
let with_tree_floor ~form envelope = { form; envelope; floor = Some Counting.labelled_trees }

let build_forest =
  with_tree_floor ~form:"id(n) + int(n) + int(n(n+1)/2) = O(log n)" (fun ~n ->
      Codec.id_bits n + Codec.int_bits n + Codec.int_bits (n * (n + 1) / 2))

(* id + degree + power sums p = 1..k, each sum <= n * n^p = n^(p+1);
   [copies] sums per exponent. *)
let power_sums ~copies ~k ~n =
  let sums = ref 0 in
  for p = 1 to k do
    sums := !sums + (copies * Codec.big_bits (Nat.pow_int (max n 1) (p + 1)))
  done;
  Codec.id_bits n + Codec.int_bits n + !sums

let build_degenerate ~k =
  with_tree_floor
    ~form:(Printf.sprintf "id(n) + int(n) + sum_{p=1}^{%d} big(n^(p+1)) = O(k^2 log n)" k)
    (power_sums ~copies:1 ~k)

(* Decision problems reached through the Section 3 builder write the same
   payloads as build-k-degenerate but answer one bit, so no counting floor. *)
let via_build ~k = { (build_degenerate ~k) with floor = None }

(* Neighbour and non-neighbour power sums, two per exponent. *)
let build_split ~k =
  with_tree_floor
    ~form:(Printf.sprintf "id(n) + int(n) + 2 sum_{p=1}^{%d} big(n^(p+1))" k)
    (power_sums ~copies:2 ~k)

let build_naive =
  { form = "id(n) + n adjacency-row bits";
    envelope = (fun ~n -> Codec.id_bits n + n);
    floor = Some Counting.all_graphs }

let mis = no_floor ~form:"id(n) + 1 joining bit" (fun ~n -> Codec.id_bits n + 1)

let two_cliques =
  no_floor ~form:"id(n) + int(2) side tag" (fun ~n -> Codec.id_bits n + Codec.int_bits 2)

let two_cliques_randomized ~bits =
  no_floor
    ~form:(Printf.sprintf "id(n) + %d fingerprint bits" bits)
    (fun ~n -> Codec.id_bits n + bits)

(* The BFS family writes one tagged record of int(n)-width fields: 4 of
   them, plus d0 for the variants that carry the root distance. *)
let bfs ~with_d0 =
  let fields = if with_d0 then 5 else 4 in
  no_floor
    ~form:(Printf.sprintf "1 + id(n) + %d int(n) fields = O(log n)" fields)
    (fun ~n -> 1 + Codec.id_bits n + (fields * Codec.int_bits n))

(* SUBGRAPH_f with f(n) = floor(sqrt n): a row over the first f(n) nodes,
   whose graphs (edges only among them) SUBGRAPH_f's answer tells apart. *)
let subgraph_sqrt =
  let cutoff n = int_of_float (sqrt (float_of_int n)) in
  { form = "id(n) + min(n, floor(sqrt n)) row bits";
    envelope = (fun ~n -> Codec.id_bits n + max 0 (min n (cutoff n)));
    floor = Some (Counting.isolated_tail ~f:cutoff) }

(* copies(n) * levels(n) cells of three zig-zag ints, each coded <= 80
   bits; copies = 2w+4, levels = 2w+2 with w = width(max 2 n). *)
let sketch =
  no_floor ~form:"id(n) + (2w+4)(2w+2)*240 bits, w = width(n) — O(log^2 n) words" (fun ~n ->
      let w = Wb_support.Bitbuf.width_of (max 2 n) in
      Codec.id_bits n + (((2 * w) + 4) * ((2 * w) + 2) * 3 * 80))

(* One certificate per registry key. *)
let certificates =
  [ ("build-forest", build_forest);
    ("build-2-degenerate", build_degenerate ~k:2);
    ("build-3-degenerate", build_degenerate ~k:3);
    ("build-5-degenerate", build_degenerate ~k:5);
    ("build-naive", build_naive);
    ("mis", mis);
    ("two-cliques", two_cliques);
    ("two-cliques-randomized", two_cliques_randomized ~bits:24);
    ("eob-bfs", bfs ~with_d0:false);
    ("bfs-bipartite", bfs ~with_d0:false);
    ("bfs", bfs ~with_d0:true);
    ("connectivity", bfs ~with_d0:true);
    ("subgraph-sqrt", subgraph_sqrt);
    ("triangle-3-degenerate", via_build ~k:3);
    ("square-3-degenerate", via_build ~k:3);
    ("diameter3-3-degenerate", via_build ~k:3);
    ("build-split-2-degenerate", build_split ~k:2);
    ("spanning-forest", bfs ~with_d0:true);
    ("connectivity-sketch", sketch);
    ("spanning-forest-sketch", sketch) ]

let certificate key =
  match List.assoc_opt key certificates with
  | Some c -> c
  | None -> invalid_arg (Printf.sprintf "Cost.certificate: no certificate for %S" key)

(* ---- the sweep --------------------------------------------------------- *)

type row = {
  key : string;
  graph_n : int;  (* actual instance size: 2*(n/2) for two-cliques entries *)
  rounds : int;
  total_bits : int;
  verdict : verdict;
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
    verdict =
      check (certificate e.Reg.key) ~n:gn ~measured:run.P.Engine.stats.max_message_bits }

let row_fields r =
  [ ("n", J.Int r.graph_n);
    ("measured_bits", J.Int r.verdict.measured);
    ("envelope_bits", J.Int r.verdict.envelope_bits);
    ("floor_bits", J.Int (match r.verdict.floor_bits with Some f -> f | None -> 0));
    ("rounds", J.Int r.rounds);
    ("total_bits", J.Int r.total_bits);
    ("envelope_ok", J.Bool r.verdict.envelope_ok);
    ("floor_ok", J.Bool r.verdict.floor_ok) ]

let print_header () =
  Printf.printf "%-26s %6s %9s %9s %7s %11s  %s\n" "protocol" "n" "measured" "envelope" "floor"
    "total" "ok"

let print_row r =
  Printf.printf "%-26s %6d %9d %9d %7s %11d  %s\n" r.key r.graph_n r.verdict.measured
    r.verdict.envelope_bits
    (match r.verdict.floor_bits with Some f -> string_of_int f | None -> "-")
    r.total_bits
    (if verdict_ok r.verdict then "ok" else "VIOLATION")

(* Measure [entries] at every size in [ns] from the entry's least size on,
   printing the verdict table; returns the report and the number of
   certificate violations.  A size whose instance size the entry has
   already measured (two-cliques entries round odd sizes down) is skipped,
   so every row name is distinct. *)
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
      let measured = ref [] in
      List.iter
        (fun n ->
          if n >= Reg.least_n e then begin
            let r = measure e ~seed ~n in
            if not (List.mem r.graph_n !measured) then begin
              measured := r.graph_n :: !measured;
              print_row r;
              Report.add_row rep ~name:(Printf.sprintf "%s/n=%d" r.key r.graph_n) (row_fields r);
              if not (verdict_ok r.verdict) then incr violations
            end
          end)
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
