type tier = Syntactic | Typed | Project

type info = { id : string; tier : tier; summary : string }

let determinism = "determinism"
let poly_compare = "poly-compare"
let lock_discipline = "lock-discipline"
let decode_hygiene = "decode-hygiene"
let interface_coverage = "interface-coverage"
let domain_safety = "domain-safety"
let lint_allow = "lint-allow"
let parse_error = "parse-error"

let catalog =
  [ { id = determinism;
      tier = Syntactic;
      summary =
        "every run replays from its printed seed: randomness flows through \
         Wb_support.Prng, never Stdlib.Random / Hashtbl.hash / wall clocks" };
    { id = poly_compare;
      tier = Typed;
      summary =
        "structural =/compare/Hashtbl at non-immediate types is a silent \
         correctness hazard; use the dedicated equal/compare functions" };
    { id = lock_discipline;
      tier = Syntactic;
      summary =
        "critical sections cannot leak locks or block: with_lock instead of \
         raw Mutex.lock/unlock, no blocking Unix calls under the lock" };
    { id = decode_hygiene;
      tier = Syntactic;
      summary =
        "decode paths turn every malformed input into a typed error: no \
         failwith/invalid_arg/assert false/partial stdlib functions" };
    { id = domain_safety;
      tier = Typed;
      summary =
        "whole-program race check: top-level mutable state reachable from a \
         Domain.spawn/Thread.create closure must be Atomic, under one \
         consistent with_lock lock, or domain-local (Domain.DLS)" };
    { id = interface_coverage;
      tier = Project;
      summary = "every .ml under lib/ has a matching .mli sealing its surface" };
    { id = lint_allow;
      tier = Project;
      summary =
        "suppressions stay minimal and documented: every [@wb.lint.allow] \
         names a rule, explains itself, and suppresses something real" } ]

let is_typed id = String.equal id poly_compare || String.equal id domain_safety

(* ---- path policies ----------------------------------------------------- *)

let components p =
  String.split_on_char '/' p |> List.filter (fun s -> s <> "" && s <> ".")

let rec has_infix needle hay =
  match hay with
  | [] -> needle = []
  | _ :: rest as l ->
    let rec prefix n h =
      match (n, h) with
      | [], _ -> true
      | _, [] -> false
      | x :: n', y :: h' -> String.equal x y && prefix n' h'
    in
    prefix needle l || has_infix needle rest

let has_suffix needle p =
  let cs = components p in
  let n = List.length cs and k = List.length needle in
  if k > n then false
  else
    let rec drop i l = if i = 0 then l else drop (i - 1) (List.tl l) in
    List.for_all2 String.equal needle (drop (n - k) cs)

let determinism_exempt p =
  let cs = components p in
  has_infix [ "lib"; "obs" ] cs || has_infix [ "lib"; "net" ] cs
  (* lib/lint times its own passes (per-rule wall time in --json); the
     linter never runs inside a refereed execution, so the determinism
     contract does not extend to it. *)
  || has_infix [ "lib"; "lint" ] cs

(* Prof.phase is a wall-clock read in disguise: profiling hooks may live in
   the clock-exempt layers plus the execution kernel ([lib/core]), never in
   model or protocol code — a phased [compose] would differ per host. *)
let prof_exempt p = determinism_exempt p || has_infix [ "lib"; "core" ] (components p)

let lock_exempt p = has_suffix [ "lib"; "support"; "sync.ml" ] p

let is_decode_file p =
  has_suffix [ "lib"; "net"; "wire.ml" ] p || has_suffix [ "lib"; "protocols"; "codec.ml" ] p

let is_decode_name name =
  let prefixed pre =
    String.equal name pre || String.starts_with ~prefix:(pre ^ "_") name
  in
  prefixed "decode" || prefixed "read" || prefixed "get"

let needs_interface p = has_infix [ "lib" ] (components p)
