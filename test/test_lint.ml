(* The linter lints itself.

   Tier A rules are exercised on inline snippets — violating, suppressed,
   clean, and allowlisted-path variants of each — through
   [Wb_lint.Driver.lint_string], so the expected findings carry exact
   line numbers.  The driver-level project checks (interface coverage,
   unused suppressions) run over throwaway trees on disk, the fixture
   tree under test/lint/fixtures is linted whole and its per-rule counts
   pinned, and the typed tiers are fed the real .cmts dune builds for
   test/lintfix — Tier B on lint_fixture.ml, the whole-program Tier C
   domain-safety solve on the lint_fixture_domain library — so "the
   typed tiers read what the compiler wrote" is itself under test.
   Last, the JSON and SARIF projections round-trip through the
   independent Wb_obs.Json parser. *)

module L = Wb_lint

let det = L.Rules.determinism
let lock = L.Rules.lock_discipline
let dec = L.Rules.decode_hygiene
let allow = L.Rules.lint_allow

let lint ~path src = L.Driver.lint_string ~path src

(* (rule, line) projection: enough to pin both what fired and where. *)
let rules_of findings =
  List.map (fun (f : L.Finding.t) -> (f.rule, f.line)) findings

let check_findings msg expected findings =
  Alcotest.(check (list (pair string int))) msg expected (rules_of findings)

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.equal (String.sub s i n) sub || go (i + 1)) in
  n = 0 || go 0

(* ---- tier A: determinism ------------------------------------------------ *)

let test_determinism () =
  check_findings "Random flagged, right line"
    [ (det, 2) ]
    (lint ~path:"lib/core/foo.ml" "let a = 1\nlet x () = Random.int 3\n");
  check_findings "Hashtbl.hash flagged" [ (det, 1) ]
    (lint ~path:"lib/core/foo.ml" "let h x = Hashtbl.hash x\n");
  check_findings "Sys.time flagged" [ (det, 1) ]
    (lint ~path:"bin/foo.ml" "let t () = Sys.time ()\n");
  check_findings "Unix.gettimeofday flagged" [ (det, 1) ]
    (lint ~path:"examples/foo.ml" "let t () = Unix.gettimeofday ()\n");
  check_findings "explicit Stdlib prefix is stripped" [ (det, 1) ]
    (lint ~path:"lib/core/foo.ml" "let x () = Stdlib.Random.bits ()\n")

let test_determinism_allowlist () =
  List.iter
    (fun path ->
      check_findings (path ^ " may read clocks") []
        (lint ~path "let t () = Unix.gettimeofday ()\n"))
    [ "lib/obs/clock.ml"; "lib/net/conn.ml" ];
  check_findings "bench/explore.ml may not read clocks" [ (det, 1) ]
    (lint ~path:"bench/explore.ml" "let t () = Unix.gettimeofday ()\n")

let test_prof_phase () =
  check_findings "Prof.phase flagged in protocol code" [ (det, 1) ]
    (lint ~path:"lib/protocols/foo.ml" "let f s g = Prof.phase s g\n");
  check_findings "qualified Wb_obs.Prof.phase flagged too" [ (det, 1) ]
    (lint ~path:"lib/protocols/foo.ml" "let f s g = Wb_obs.Prof.phase s g\n");
  check_findings "Prof.site alone is not a clock read" []
    (lint ~path:"lib/protocols/foo.ml" "let s = Wb_obs.Prof.site \"x\"\n");
  List.iter
    (fun path ->
      check_findings (path ^ " may carry profiling hooks") []
        (lint ~path "let f s g = Wb_obs.Prof.phase s g\n"))
    [ "lib/core/machine.ml"; "lib/obs/prof_test.ml"; "lib/net/wire.ml" ];
  check_findings "bench/table2.ml may not carry profiling hooks" [ (det, 1) ]
    (lint ~path:"bench/table2.ml" "let f s g = Wb_obs.Prof.phase s g\n")

let test_determinism_suppressed () =
  check_findings "a well-formed suppression silences the finding" []
    (lint ~path:"lib/core/foo.ml"
       "let x () = (Random.int 3) [@wb.lint.allow \"determinism: test fixture\"]\n")

(* ---- tier A: lock discipline -------------------------------------------- *)

let test_lock () =
  check_findings "raw lock and unlock each flagged"
    [ (lock, 1); (lock, 2) ]
    (lint ~path:"lib/net/server.ml"
       "let f m = Mutex.lock m\nlet g m = Mutex.unlock m\n");
  check_findings "blocking Unix call under with_lock" [ (lock, 1) ]
    (lint ~path:"lib/net/server.ml"
       "let f m fd = with_lock m (fun () -> Unix.select [ fd ] [] [] 1.0)\n");
  check_findings "qualified Sync.with_lock recognised" [ (lock, 1) ]
    (lint ~path:"lib/net/server.ml"
       "let f m fd b = Wb_support.Sync.with_lock m (fun () -> Unix.read fd b 0 1)\n");
  check_findings "the same blocking call outside any lock is fine" []
    (lint ~path:"lib/net/server.ml" "let f fd = Unix.select [ fd ] [] [] 1.0\n");
  check_findings "sync.ml, the combinator's own definition, is exempt" []
    (lint ~path:"lib/support/sync.ml"
       "let with_lock m f = Mutex.lock m; Fun.protect ~finally:(fun () -> Mutex.unlock m) f\n")

(* ---- tier A: decode hygiene --------------------------------------------- *)

let test_decode () =
  check_findings "failwith in a decode function" [ (dec, 1) ]
    (lint ~path:"lib/net/wire.ml" "let decode_op s = failwith s\n");
  check_findings "read*/get* bindings count as decode path"
    [ (dec, 1); (dec, 2) ]
    (lint ~path:"lib/protocols/codec.ml"
       "let read_id r = Option.get r\nlet get_tag r = List.hd r\n");
  check_findings "assert false in a decode function" [ (dec, 1) ]
    (lint ~path:"lib/net/wire.ml" "let decode_op _ = assert false\n");
  check_findings "encode path is not checked" []
    (lint ~path:"lib/net/wire.ml" "let encode_op s = failwith s\n");
  check_findings "only the two decode surfaces are in scope" []
    (lint ~path:"lib/core/engine.ml" "let decode_op s = failwith s\n");
  check_findings "suppression scopes over the expression" []
    (lint ~path:"lib/net/wire.ml"
       "let decode_op s = (failwith s) [@wb.lint.allow \"decode-hygiene: test fixture\"]\n")

(* ---- tier A: suppression hygiene ---------------------------------------- *)

let test_malformed_allow () =
  check_findings
    "missing explanation: the allow is a finding and suppresses nothing"
    [ (det, 1); (allow, 1) ]
    (lint ~path:"lib/core/foo.ml"
       "let x () = (Random.int 3) [@wb.lint.allow \"determinism\"]\n");
  check_findings "unknown rule id is a finding" [ (allow, 1) ]
    (lint ~path:"lib/core/foo.ml"
       "let x = (1 + 1) [@wb.lint.allow \"no-such-rule: why\"]\n")

(* ---- driver: project checks on throwaway trees -------------------------- *)

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

let test_interface_coverage () =
  let dir = Filename.temp_dir "wblint" "-iface" in
  Unix.mkdir (Filename.concat dir "lib") 0o755;
  write_file (Filename.concat dir "lib/foo.ml") "let x = 1\n";
  let r = L.Driver.run ~roots:[ dir ] () in
  Alcotest.(check (list string)) "missing .mli flagged"
    [ L.Rules.interface_coverage ]
    (List.map (fun (f : L.Finding.t) -> f.rule) r.findings);
  write_file (Filename.concat dir "lib/foo.mli") "val x : int\n";
  let r = L.Driver.run ~roots:[ dir ] () in
  Alcotest.(check int) "a matching .mli satisfies the rule" 0
    (List.length r.findings)

let test_unused_allow () =
  let dir = Filename.temp_dir "wblint" "-unused" in
  let file = Filename.concat dir "a.ml" in
  write_file file
    "let x = (1 + 1) [@wb.lint.allow \"determinism: nothing here to silence\"]\n";
  let r = L.Driver.run ~roots:[ dir ] () in
  (match r.findings with
  | [ f ] -> Alcotest.(check string) "unused allow is a finding" allow f.rule
  | fs -> Alcotest.failf "expected exactly one finding, got %d" (List.length fs));
  (* A typed-rule suppression must not be called unused when no .cmt ran:
     only the typed tier could have consumed it. *)
  write_file file
    "let x = (1 + 1) [@wb.lint.allow \"poly-compare: typed tier will judge\"]\n";
  let r = L.Driver.run ~roots:[ dir ] () in
  Alcotest.(check int) "typed-rule allow spared without a .cmt" 0
    (List.length r.findings)

(* ---- driver: the on-disk fixture tree ----------------------------------- *)

(* dune copies test/lint into the build dir (source_tree dep on the test),
   so the tree is at lint/fixtures relative to the test's cwd.  Keep the
   counts in sync with test/check_lint.ml, which pins the same numbers on
   the wblint CLI's --json output. *)
let fixture_root = "lint/fixtures"

let expected_fixture_counts =
  [ (det, 6); (lock, 3); (dec, 3); (L.Rules.interface_coverage, 2); (allow, 2) ]

let count rule findings =
  List.length (List.filter (fun (f : L.Finding.t) -> String.equal f.rule rule) findings)

let test_fixture_tree () =
  let r = L.Driver.run ~roots:[ fixture_root ] () in
  Alcotest.(check int) "seven fixture files scanned" 7 (List.length r.files);
  List.iter
    (fun (rule, n) ->
      Alcotest.(check int) (rule ^ " findings") n (count rule r.findings))
    expected_fixture_counts;
  Alcotest.(check int) "no finding outside the pinned rules" 16
    (List.length r.findings)

(* ---- tier B: a real .cmt ------------------------------------------------ *)

(* The fixture library's .cmt, relative to the test's cwd in _build; the
   test stanza depends on it explicitly so dune builds it first. *)
let fixture_cmt = "lintfix/.lint_fixture.objs/byte/lint_fixture.cmt"

(* Keep in sync with the layout of test/lintfix/lint_fixture.ml. *)
let poly_eq_line = 8
let lookup_line = 19
let suppressed_line = 13

let test_typed_fixture () =
  match L.Typed.lint_cmt_file ~load_root:".." fixture_cmt with
  | Error e -> Alcotest.failf "cannot lint %s: %s" fixture_cmt e
  | Ok findings ->
    List.iter
      (fun (f : L.Finding.t) ->
        Alcotest.(check string) "only poly-compare fires" L.Rules.poly_compare f.rule)
      findings;
    let lines = List.sort Int.compare (List.map (fun (f : L.Finding.t) -> f.line) findings) in
    Alcotest.(check (list int)) "the seeded = and the record-keyed Hashtbl, nothing else"
      [ poly_eq_line; lookup_line ] lines;
    Alcotest.(check bool) "the suppressed = is spared" false
      (List.mem suppressed_line lines);
    List.iter
      (fun (f : L.Finding.t) ->
        if f.line = poly_eq_line then
          Alcotest.(check bool) "= finding names the record type" true
            (contains f.message "type r");
        if f.line = lookup_line then
          Alcotest.(check bool) "Hashtbl finding names the operation" true
            (contains f.message "Hashtbl.find_opt"))
      findings

(* ---- tier C: whole-program domain-safety over real .cmts ---------------- *)

(* The deliberately-racy fixture library's .cmts (dune builds them as test
   deps).  The pipeline below is the same one Driver.run wires: per-unit
   catalog + escape state while each .cmt's load path is active, then
   wrappers over all units, then the global solve. *)
let domain_cmt unit =
  Printf.sprintf "lintfix/.lint_fixture_domain.objs/byte/lint_fixture_domain__%s.cmt" unit

let domain_units = [ "Dls_clean"; "Lockset_tables"; "Racy_ref"; "Suppressed_ok" ]

let tierc_solve () =
  let retained =
    List.map
      (fun unit ->
        let path = domain_cmt unit in
        match L.Typed.read path with
        | Error e -> Alcotest.failf "cannot read %s: %s" path e
        | Ok cmt ->
          let str =
            match L.Typed.structure_of cmt with
            | Some s -> s
            | None -> Alcotest.failf "%s: not an implementation" path
          in
          L.Typed.init_load_path ~load_root:".." cmt;
          let unit_path = L.Catalog.canon [ "Lint_fixture_domain__" ^ unit ] in
          let ctx = L.Allow.create () in
          let source = Option.value cmt.L.Typed.source ~default:path in
          let info = L.Catalog.scan ~ctx ~unit_path ~source str in
          let st = L.Escape.state_of ~unit_path str in
          (unit, ctx, unit_path, str, st, info))
      domain_units
  in
  let wrappers =
    List.concat_map
      (fun (_, _, unit_path, str, st, _) -> L.Escape.wrappers_of ~st ~unit_path str)
      retained
  in
  let wrapper_tbl = Hashtbl.create 4 in
  List.iter (fun (n, l) -> Hashtbl.replace wrapper_tbl n l) wrappers;
  let summaries, spawns, unresolved =
    List.fold_left
      (fun (sums, sps, unres) (unit, ctx, unit_path, str, st, _) ->
        let s, sp, u =
          L.Escape.summarize ~st ~wrappers:wrapper_tbl ~ctx
            ~source:("test/lintfix/" ^ String.lowercase_ascii unit ^ ".ml")
            ~unit_path str
        in
        (s @ sums, sp @ sps, u + unres))
      ([], [], 0) retained
  in
  let findings, stats =
    L.Locks.solve
      { L.Locks.catalog = List.map (fun (_, ctx, _, _, _, info) -> (info, ctx)) retained;
        all_summaries = summaries;
        all_spawns = spawns;
        wrappers;
        unresolved }
  in
  (retained, findings, stats)

(* Keep in sync with the fixture layouts (each pins its lines in a header
   comment) and with the @check-lint Tier C gate in the root dune file. *)
let expected_tierc =
  [ ("lockset_tables.ml", L.Locks.kind_lockset, 10);
    ("lockset_tables.ml", L.Locks.kind_escape, 19);
    ("racy_ref.ml", L.Locks.kind_unguarded, 8);
    ("racy_ref.ml", L.Locks.kind_escape, 13) ]

let test_tierc_findings () =
  let _, findings, _ = tierc_solve () in
  List.iter
    (fun (f : L.Finding.t) ->
      Alcotest.(check string) "every Tier C finding carries the rule"
        L.Rules.domain_safety f.rule)
    findings;
  Alcotest.(check (list (triple string string int)))
    "exactly the seeded races, by kind and line"
    expected_tierc
    (List.map
       (fun (f : L.Finding.t) -> (Filename.basename f.file, f.kind, f.line))
       findings);
  List.iter
    (fun (f : L.Finding.t) ->
      match (Filename.basename f.file, f.kind) with
      | "lockset_tables.ml", k when String.equal k L.Locks.kind_lockset ->
        Alcotest.(check bool) "lockset finding names both locks" true
          (contains f.message "lock_a" && contains f.message "lock_b")
      | "lockset_tables.ml", _ ->
        Alcotest.(check bool) "escape finding shows the call path" true
          (contains f.message "via Lint_fixture_domain.Lockset_tables.put")
      | "racy_ref.ml", k when String.equal k L.Locks.kind_unguarded ->
        Alcotest.(check bool) "unguarded finding names the access site" true
          (contains f.message "Racy_ref.bump")
      | _ ->
        Alcotest.(check bool) "escape finding names the entry" true
          (contains f.message "`Lint_fixture_domain.Racy_ref.hits`"))
    findings

let test_tierc_negatives () =
  let _, findings, _ = tierc_solve () in
  List.iter
    (fun (f : L.Finding.t) ->
      Alcotest.(check bool)
        "DLS + Atomic + one consistent lock stays silent; the suppressed \
         ref stays silent" false
        (contains f.message "Dls_clean" || contains f.message "Suppressed_ok"))
    findings

let test_tierc_stats () =
  let _, _, (s : L.Locks.stats) = tierc_solve () in
  Alcotest.(check int) "four units analysed" 4 s.units;
  (* hits, counts, log, scratch: the annotated Hashtbls must be seen too
     ([let x : ty = e] binds through Tpat_alias, not Tpat_var). *)
  Alcotest.(check int) "four shared-mutable entries" 4 s.entries_mutable;
  Alcotest.(check int) "one suppressed raceable entry" 1 s.entries_suppressed;
  Alcotest.(check int) "four spawn sites" 4 s.spawn_sites;
  Alcotest.(check int) "every qualified reference canonicalised" 0
    s.unresolved_refs

let test_tierc_suppression_used () =
  let retained, _, _ = tierc_solve () in
  List.iter
    (fun (unit, ctx, _, _, _, _) ->
      Alcotest.(check int)
        (unit ^ ": consumed suppressions are not reported unused") 0
        (List.length (L.Allow.unused_findings ~typed_ran:true ctx)))
    retained

(* ---- output projections ------------------------------------------------- *)

let test_json_roundtrip () =
  let r = L.Driver.run ~roots:[ fixture_root ] () in
  match Wb_obs.Json.of_string (Wb_obs.Json.to_string (L.Driver.to_json r)) with
  | Error e -> Alcotest.failf "report JSON does not re-parse: %s" e
  | Ok parsed ->
    (match Wb_obs.Json.to_int (Wb_obs.Json.get "version" parsed) with
    | Some 2 -> ()
    | v -> Alcotest.failf "report version: expected 2, got %s"
             (match v with Some n -> string_of_int n | None -> "none"));
    (match Wb_obs.Json.to_list (Wb_obs.Json.get "findings" parsed) with
    | Some _ -> ()
    | None -> Alcotest.fail "findings is not a list");
    (* per-rule wall time: at least the syntactic pass must be timed *)
    (match Wb_obs.Json.member "timings_us" parsed with
    | Some (Wb_obs.Json.Obj kvs) ->
      Alcotest.(check bool) "syntactic pass timed" true
        (List.mem_assoc "syntactic" kvs)
    | _ -> Alcotest.fail "timings_us is not an object");
    let raw =
      match Wb_obs.Json.to_list (Wb_obs.Json.get "findings" parsed) with
      | Some l -> l
      | None -> Alcotest.fail "findings is not a list"
    in
    let back = List.filter_map L.Finding.of_json raw in
    Alcotest.(check int) "every finding survives the round-trip"
      (List.length r.findings) (List.length back);
    List.iter2
      (fun a b ->
        Alcotest.(check int) "structurally identical" 0 (L.Finding.compare a b))
      r.findings back

let test_sarif () =
  let r = L.Driver.run ~roots:[ fixture_root ] () in
  match Wb_obs.Json.of_string (Wb_obs.Json.to_string (L.Driver.to_sarif r)) with
  | Error e -> Alcotest.failf "SARIF does not re-parse: %s" e
  | Ok sarif ->
    (match Wb_obs.Json.member "version" sarif with
    | Some (Wb_obs.Json.String "2.1.0") -> ()
    | _ -> Alcotest.fail "SARIF version must be 2.1.0");
    let run0 =
      match Wb_obs.Json.to_list (Wb_obs.Json.get "runs" sarif) with
      | Some [ r ] -> r
      | _ -> Alcotest.fail "SARIF must carry exactly one run"
    in
    (match
       Wb_obs.Json.member "name"
         (Wb_obs.Json.get "driver" (Wb_obs.Json.get "tool" run0))
     with
    | Some (Wb_obs.Json.String "wblint") -> ()
    | _ -> Alcotest.fail "tool.driver.name must be wblint");
    let results =
      match Wb_obs.Json.to_list (Wb_obs.Json.get "results" run0) with
      | Some l -> l
      | None -> Alcotest.fail "results is not a list"
    in
    Alcotest.(check int) "one SARIF result per finding"
      (List.length r.findings) (List.length results);
    List.iter
      (fun res ->
        match Wb_obs.Json.member "ruleId" res with
        | Some (Wb_obs.Json.String _) -> ()
        | _ -> Alcotest.fail "every result carries a ruleId")
      results

let test_to_string () =
  match lint ~path:"lib/core/foo.ml" "let x () = Random.int 3\n" with
  | [ f ] ->
    Alcotest.(check bool) "compiler-style file:line:col prefix" true
      (contains (L.Finding.to_string f) "lib/core/foo.ml:1:11: [determinism]")
  | fs -> Alcotest.failf "expected one finding, got %d" (List.length fs)

let suites =
  [ ( "lint.syntactic",
      [ Alcotest.test_case "determinism" `Quick test_determinism;
        Alcotest.test_case "determinism allowlist" `Quick test_determinism_allowlist;
        Alcotest.test_case "Prof.phase placement" `Quick test_prof_phase;
        Alcotest.test_case "determinism suppressed" `Quick test_determinism_suppressed;
        Alcotest.test_case "lock discipline" `Quick test_lock;
        Alcotest.test_case "decode hygiene" `Quick test_decode;
        Alcotest.test_case "malformed suppressions" `Quick test_malformed_allow ] );
    ( "lint.driver",
      [ Alcotest.test_case "interface coverage" `Quick test_interface_coverage;
        Alcotest.test_case "unused suppressions" `Quick test_unused_allow;
        Alcotest.test_case "fixture tree counts" `Quick test_fixture_tree ] );
    ( "lint.typed",
      [ Alcotest.test_case "seeded .cmt findings" `Quick test_typed_fixture ] );
    ( "lint.domain-safety",
      [ Alcotest.test_case "seeded races, by kind and line" `Quick test_tierc_findings;
        Alcotest.test_case "blessed idioms stay silent" `Quick test_tierc_negatives;
        Alcotest.test_case "whole-program stats" `Quick test_tierc_stats;
        Alcotest.test_case "entry suppression is consumed" `Quick
          test_tierc_suppression_used ] );
    ( "lint.output",
      [ Alcotest.test_case "json round-trip" `Quick test_json_roundtrip;
        Alcotest.test_case "sarif projection" `Quick test_sarif;
        Alcotest.test_case "to_string format" `Quick test_to_string ] ) ]
